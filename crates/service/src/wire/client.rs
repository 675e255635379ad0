//! [`WireClient`]: a blocking protocol client over any `Read + Write`.
//!
//! One client owns one connection. Submissions are acknowledged
//! synchronously (the daemon acks in frame order — that is the admission
//! contract), while `PlanReply` frames stream back in each tenant's commit
//! order; since the client may be awaiting an ack or a control reply when
//! a plan reply arrives, replies for other requests are buffered by id and
//! handed out when [`WireClient::wait_plan`] asks for them.

use super::frame::{read_frame, write_frame, FrameKind, WireError};
use super::schema::{self, AckStatus, ErrorCode};
use crate::service::{PlanResponse, ServiceMetrics};
use crate::tenant::WireCounters;
use crate::wal::record::ChangeRecord;
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a wire submission did not enter a tenant's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireSubmitError {
    /// The tenant's bounded queue is full; retry after the hinted delay.
    Backpressure {
        /// Suggested client-side wait before re-submitting.
        retry_after: Duration,
        /// Tenant queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The tenant is shutting down.
    ShuttingDown,
    /// No tenant by that id is registered on the daemon.
    UnknownTenant,
    /// This connection exceeded its rate limit; retry after the hint.
    Throttled {
        /// Suggested client-side wait before re-submitting.
        retry_after: Duration,
    },
    /// The connection itself failed.
    Wire(WireError),
}

impl core::fmt::Display for WireSubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireSubmitError::Backpressure {
                retry_after,
                queue_depth,
            } => write!(
                f,
                "tenant queue full ({queue_depth} pending); retry after {retry_after:?}"
            ),
            WireSubmitError::ShuttingDown => write!(f, "tenant is shutting down"),
            WireSubmitError::UnknownTenant => write!(f, "unknown tenant"),
            WireSubmitError::Throttled { retry_after } => write!(
                f,
                "connection rate limit exceeded; retry after {retry_after:?}"
            ),
            WireSubmitError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for WireSubmitError {}

/// Blocking wire-protocol client over a `Read`/`Write` connection pair.
pub struct WireClient<R: Read, W: Write> {
    reader: R,
    writer: W,
    /// Plan replies that arrived while awaiting something else, by id.
    pending: HashMap<RequestId, PlanResponse>,
}

impl WireClient<TcpStream, TcpStream> {
    /// Connect to a daemon over TCP, with Nagle off: every frame is a
    /// small request that the client then waits on.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient::new(stream.try_clone()?, stream))
    }
}

impl<R: Read, W: Write> WireClient<R, W> {
    /// Wrap a connection.
    pub fn new(reader: R, writer: W) -> Self {
        WireClient {
            reader,
            writer,
            pending: HashMap::new(),
        }
    }

    /// Submit `request` to `tenant`. `Ok` means the request entered the
    /// tenant's queue and [`WireClient::wait_plan`] will resolve it.
    pub fn submit(&mut self, tenant: &str, request: &Request) -> Result<(), WireSubmitError> {
        let payload = schema::encode_submit(tenant, request);
        write_frame(&mut self.writer, FrameKind::Submit, &payload)
            .map_err(WireSubmitError::Wire)?;
        loop {
            let (kind, payload) = self.next_frame().map_err(WireSubmitError::Wire)?;
            match kind {
                FrameKind::SubmitAck => {
                    let (id, status) =
                        schema::decode_submit_ack(&payload).map_err(WireSubmitError::Wire)?;
                    if id != request.id {
                        return Err(WireSubmitError::Wire(WireError::Malformed(
                            "ack for a different request",
                        )));
                    }
                    return match status {
                        AckStatus::Accepted => Ok(()),
                        AckStatus::Backpressure {
                            retry_after,
                            queue_depth,
                        } => Err(WireSubmitError::Backpressure {
                            retry_after,
                            queue_depth,
                        }),
                        AckStatus::ShuttingDown => Err(WireSubmitError::ShuttingDown),
                        AckStatus::UnknownTenant => Err(WireSubmitError::UnknownTenant),
                        AckStatus::Throttled { retry_after } => {
                            Err(WireSubmitError::Throttled { retry_after })
                        }
                    };
                }
                FrameKind::PlanReply => {
                    self.buffer_plan_reply(&payload)
                        .map_err(WireSubmitError::Wire)?;
                }
                _ => {
                    return Err(WireSubmitError::Wire(WireError::Malformed(
                        "unexpected frame while awaiting submit ack",
                    )))
                }
            }
        }
    }

    /// Block until the plan reply for `id` arrives (or was already
    /// buffered) and return it.
    pub fn wait_plan(&mut self, id: RequestId) -> Result<PlanResponse, WireError> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let (kind, payload) = self.next_frame()?;
            match kind {
                FrameKind::PlanReply => {
                    let (got, verdict) = schema::decode_plan_reply(&payload)?;
                    let response = verdict.into_response();
                    if got == id {
                        return Ok(response);
                    }
                    self.pending.insert(got, response);
                }
                _ => {
                    return Err(WireError::Malformed(
                        "unexpected frame while awaiting plan reply",
                    ))
                }
            }
        }
    }

    /// Advance `tenant`'s simulation clock; returns its route revisions.
    pub fn advance(
        &mut self,
        tenant: &str,
        now: Time,
    ) -> Result<Vec<(RequestId, Route)>, WireError> {
        let payload = schema::encode_advance(tenant, now);
        write_frame(&mut self.writer, FrameKind::Advance, &payload)?;
        let payload = self.await_control(FrameKind::AdvanceReply)?;
        schema::decode_advance_reply(&payload)
    }

    /// Cancel a committed route on `tenant`; `false` when unknown.
    pub fn cancel(&mut self, tenant: &str, id: RequestId) -> Result<bool, WireError> {
        let payload = schema::encode_cancel(tenant, id);
        write_frame(&mut self.writer, FrameKind::Cancel, &payload)?;
        let payload = self.await_control(FrameKind::CancelReply)?;
        schema::decode_cancel_reply(&payload)
    }

    /// Snapshot `tenant`'s service metrics and wire counters.
    pub fn metrics(&mut self, tenant: &str) -> Result<(ServiceMetrics, WireCounters), WireError> {
        let payload = schema::encode_metrics_query(tenant);
        write_frame(&mut self.writer, FrameKind::MetricsQuery, &payload)?;
        let payload = self.await_control(FrameKind::MetricsReply)?;
        schema::decode_metrics_reply(&payload)
    }

    /// Subscribe this connection to the daemon's changeset log from
    /// `from_seq` (live WAL shipping). After this returns, the daemon
    /// pushes [`FrameKind::LogChunk`] frames for the rest of the
    /// connection's life; read them with
    /// [`WireClient::next_log_chunk`]. The subscription request itself is
    /// fire-and-forget — a refusal (no journal attached, throttled)
    /// arrives as the first reply and surfaces from `next_log_chunk`.
    pub fn tail_log(&mut self, from_seq: u64) -> Result<(), WireError> {
        let payload = schema::encode_tail_log(from_seq);
        write_frame(&mut self.writer, FrameKind::TailLog, &payload)
    }

    /// Block for the next shipped log chunk: `Ok(Some((epoch, records)))`
    /// per chunk, `Ok(None)` when the primary closed the stream cleanly
    /// (its shutdown — the takeover trigger), a typed error on refusal or
    /// corruption.
    pub fn next_log_chunk(&mut self) -> Result<Option<(u64, Vec<ChangeRecord>)>, WireError> {
        let Some((kind, payload)) = read_frame(&mut self.reader)? else {
            return Ok(None);
        };
        match kind {
            FrameKind::LogChunk => {
                let view = schema::decode_log_chunk(&payload)?;
                Ok(Some((view.epoch(), view.records()?)))
            }
            FrameKind::ErrorReply => {
                let (code, _msg) = schema::decode_error_reply(&payload)?;
                Err(Self::error_reply(code))
            }
            _ => Err(WireError::Malformed(
                "unexpected frame on a log-tail subscription",
            )),
        }
    }

    fn error_reply(code: ErrorCode) -> WireError {
        match code {
            ErrorCode::UnknownTenant => WireError::Malformed("daemon knows no such tenant"),
            ErrorCode::UnexpectedFrame => WireError::Malformed("daemon rejected the frame kind"),
            ErrorCode::Throttled => WireError::Throttled,
            ErrorCode::NoJournal => WireError::Malformed("daemon has no journal attached"),
        }
    }

    /// Read frames until one of kind `want` arrives, buffering plan
    /// replies; `ErrorReply` surfaces as a typed error.
    fn await_control(&mut self, want: FrameKind) -> Result<Vec<u8>, WireError> {
        loop {
            let (kind, payload) = self.next_frame()?;
            if kind == want {
                return Ok(payload);
            }
            match kind {
                FrameKind::PlanReply => self.buffer_plan_reply(&payload)?,
                FrameKind::ErrorReply => {
                    let (code, _msg) = schema::decode_error_reply(&payload)?;
                    return Err(Self::error_reply(code));
                }
                _ => {
                    return Err(WireError::Malformed(
                        "unexpected frame while awaiting control reply",
                    ))
                }
            }
        }
    }

    fn buffer_plan_reply(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let (id, verdict) = schema::decode_plan_reply(payload)?;
        self.pending.insert(id, verdict.into_response());
        Ok(())
    }

    fn next_frame(&mut self) -> Result<(FrameKind, Vec<u8>), WireError> {
        read_frame(&mut self.reader)?.ok_or(WireError::Closed)
    }
}
