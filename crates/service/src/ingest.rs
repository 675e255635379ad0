//! The shared ingest front-end: decodes framed requests and runs each one
//! on its tenant.
//!
//! [`dispatch`] runs one inbound frame to completion on the addressed
//! tenant (plan and commit, advance, cancel or metrics, under the tenant's
//! lock). Two front-ends feed it: the event-loop server (`mux`), which
//! serves every TCP connection, and [`serve_connection`], the in-process
//! adapter that services one client over any `Read`/`Write` pair — the
//! [`duplex`] pipe in tests and loadgen — on the calling thread alone.
//! Either way a connection's frames are dispatched in arrival order and
//! every reply a frame produced is written before the next frame is read.
//! So:
//!
//! * per-connection **admission order** is frame order, which pins each
//!   tenant's commit order (and committed route set) to the order its
//!   clients sent their submissions;
//! * a submit is answered by its `SubmitAck` immediately followed by its
//!   `PlanReply`;
//! * a client that sends faster than its tenant plans is held back by the
//!   transport — the connection reads nothing while it plans.
//!
//! Frame and byte counts are tallied on the addressed tenant's
//! [`WireTally`](crate::tenant::WireTally).

use crate::service::SubmitError;
use crate::tenant::{Tenant, TenantRegistry};
use crate::wire::frame::{frame_len, read_frame, write_frame, FrameKind, WireError};
use crate::wire::schema::{self, AckStatus, ErrorCode};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-connection rate limit: a token bucket refilled continuously, spent
/// one token per inbound frame. A throttled submit is refused with
/// [`AckStatus::Throttled`] (carrying a retry hint), a throttled control
/// frame with an [`ErrorCode::Throttled`] error reply — a typed verdict
/// the client can back off on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity: the largest instantaneous frame burst allowed.
    pub burst: u32,
    /// Sustained refill rate, frames per second.
    pub per_sec: f64,
}

impl RateLimit {
    /// Floor on the retry hint a throttled verdict carries. Right at a
    /// refill boundary the raw token deficit can round to a zero or
    /// near-zero duration, which a well-behaved client turns into
    /// `sleep(0)` — a hot spin against a daemon that is actively
    /// throttling it. One millisecond is far below any realistic refill
    /// interval, so the clamp never meaningfully over-delays a retry.
    pub const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);
}

pub(crate) struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    pub(crate) fn new(limit: RateLimit) -> Self {
        TokenBucket {
            limit,
            tokens: f64::from(limit.burst),
            refilled: Instant::now(),
        }
    }

    /// Take one token, or say how long until one will have refilled.
    pub(crate) fn try_take(&mut self) -> Result<(), Duration> {
        let now = Instant::now();
        let refill = now.duration_since(self.refilled).as_secs_f64() * self.limit.per_sec;
        self.tokens = (self.tokens + refill).min(f64::from(self.limit.burst));
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            // Clamped: a zero/near-zero hint at a refill boundary would
            // have the client spin-retry (see RateLimit::MIN_RETRY_AFTER).
            Err(
                Duration::from_secs_f64(deficit / self.limit.per_sec.max(1e-9))
                    .max(RateLimit::MIN_RETRY_AFTER),
            )
        }
    }
}

/// Serve one client connection until clean EOF (`Ok`) or a protocol /
/// transport error (`Err`). See the module docs for the thread model.
pub fn serve_connection<R: Read, W: Write>(
    registry: &TenantRegistry,
    mut reader: R,
    mut writer: W,
) -> Result<(), WireError> {
    let mut out = Vec::new();
    loop {
        let Some((kind, payload)) = read_frame(&mut reader)? else {
            return Ok(()); // clean EOF at a frame boundary
        };
        let received = Instant::now();
        let mut send = |tenant: Option<&Tenant>, kind: FrameKind, payload: &[u8]| {
            encode_reply(&mut out, tenant, kind, payload)
        };
        // Log tailing is a long-lived push stream; only the mux front-end
        // can interleave pushes with request/reply traffic without a
        // dedicated thread per subscriber. This path refuses the
        // subscription with a typed error and keeps serving requests.
        if dispatch(registry, &mut None, kind, &payload, received, &mut send)?.is_some() {
            let reply = schema::encode_error_reply(
                ErrorCode::UnexpectedFrame,
                "log tailing requires the event-loop front-end",
            );
            send(None, FrameKind::ErrorReply, &reply);
        }
        writer.write_all(&out)?;
        writer.flush()?;
        out.clear();
    }
}

/// Encode one daemon → client frame onto `out`, tallying it on `tenant`
/// when known.
pub(crate) fn encode_reply(
    out: &mut Vec<u8>,
    tenant: Option<&Tenant>,
    kind: FrameKind,
    payload: &[u8],
) {
    write_frame(out, kind, payload).expect("Vec<u8> writes are infallible");
    if let Some(t) = tenant {
        t.wire().frame_sent(frame_len(payload.len()));
    }
}

/// Where [`dispatch`] puts a daemon → client frame: the tenant to tally it
/// on (when known), its kind and its payload.
pub(crate) type Sink<'a> = dyn FnMut(Option<&Tenant>, FrameKind, &[u8]) + 'a;

/// Run one inbound frame to completion and hand its replies to `send`, in
/// order. `received` is when the read that completed the frame returned;
/// a submit's deadline counts from it. Returns `Some(from_seq)` for a
/// log-tail subscription, which only the caller knows how to serve; every
/// other frame is answered here.
pub(crate) fn dispatch(
    registry: &TenantRegistry,
    bucket: &mut Option<TokenBucket>,
    kind: FrameKind,
    payload: &[u8],
    received: Instant,
    send: &mut Sink<'_>,
) -> Result<Option<u64>, WireError> {
    // Rate limiting is per inbound frame, decided before any tenant is
    // consulted: a throttled frame costs the daemon only the decode needed
    // to address the refusal.
    if let Some(retry_after) = bucket.as_mut().and_then(|b| b.try_take().err()) {
        if kind == FrameKind::Submit {
            let (_tenant, request) = schema::decode_submit(payload)?;
            let ack = schema::encode_submit_ack(request.id, AckStatus::Throttled { retry_after });
            send(None, FrameKind::SubmitAck, &ack);
        } else {
            let reply =
                schema::encode_error_reply(ErrorCode::Throttled, "connection rate limit exceeded");
            send(None, FrameKind::ErrorReply, &reply);
        }
        return Ok(None);
    }
    let wire_bytes = frame_len(payload.len());
    // Resolve a frame's tenant, answering `ErrorReply` when unknown.
    let lookup = |tenant_id: &str, send: &mut Sink<'_>| {
        let tenant = registry.get(tenant_id);
        match &tenant {
            Some(t) => t.wire().frame_received(wire_bytes),
            None => {
                let reply = schema::encode_error_reply(ErrorCode::UnknownTenant, tenant_id);
                send(None, FrameKind::ErrorReply, &reply);
            }
        }
        tenant
    };
    match kind {
        FrameKind::Submit => {
            let (tenant_id, request) = schema::decode_submit(payload)?;
            let Some(tenant) = registry.get(tenant_id) else {
                let ack = schema::encode_submit_ack(request.id, AckStatus::UnknownTenant);
                send(None, FrameKind::SubmitAck, &ack);
                return Ok(None);
            };
            tenant.wire().frame_received(wire_bytes);
            let t = Some(&*tenant);
            match tenant.submit(&request, received) {
                Ok(response) => {
                    let ack = schema::encode_submit_ack(request.id, AckStatus::Accepted);
                    send(t, FrameKind::SubmitAck, &ack);
                    let reply = schema::encode_plan_reply(request.id, &response);
                    send(t, FrameKind::PlanReply, &reply);
                }
                Err(SubmitError::ShuttingDown) => {
                    let ack = schema::encode_submit_ack(request.id, AckStatus::ShuttingDown);
                    send(t, FrameKind::SubmitAck, &ack);
                }
            }
        }
        FrameKind::Advance => {
            let (tenant_id, now) = schema::decode_advance(payload)?;
            if let Some(tenant) = lookup(tenant_id, send) {
                let reply = schema::encode_advance_reply(&tenant.advance(now));
                send(Some(&tenant), FrameKind::AdvanceReply, &reply);
            }
        }
        FrameKind::Cancel => {
            let (tenant_id, id) = schema::decode_cancel(payload)?;
            if let Some(tenant) = lookup(tenant_id, send) {
                let reply = schema::encode_cancel_reply(tenant.cancel(id));
                send(Some(&tenant), FrameKind::CancelReply, &reply);
            }
        }
        FrameKind::MetricsQuery => {
            let tenant_id = schema::decode_metrics_query(payload)?;
            if let Some(tenant) = lookup(tenant_id, send) {
                let reply =
                    schema::encode_metrics_reply(&tenant.metrics(), &tenant.wire().snapshot());
                send(Some(&tenant), FrameKind::MetricsReply, &reply);
            }
        }
        FrameKind::TailLog => return Ok(Some(schema::decode_tail_log(payload)?)),
        // Reply kinds are daemon → client only; a client sending one is
        // confused but not fatal — answer with a typed error.
        FrameKind::SubmitAck
        | FrameKind::PlanReply
        | FrameKind::AdvanceReply
        | FrameKind::CancelReply
        | FrameKind::MetricsReply
        | FrameKind::ErrorReply
        | FrameKind::LogChunk => {
            let reply = schema::encode_error_reply(
                ErrorCode::UnexpectedFrame,
                "frame kind is daemon to client only",
            );
            send(None, FrameKind::ErrorReply, &reply);
        }
    }
    Ok(None)
}

// ------------------------------------------------------ in-process duplex

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

type PipeShared = Arc<(Mutex<PipeState>, Condvar)>;

fn pipe() -> (PipeReader, PipeWriter) {
    let shared: PipeShared = Arc::new((
        Mutex::new(PipeState {
            buf: VecDeque::new(),
            closed: false,
        }),
        Condvar::new(),
    ));
    (
        PipeReader {
            shared: Arc::clone(&shared),
        },
        PipeWriter { shared },
    )
}

/// Read half of an in-process byte pipe; blocking, `Ok(0)` after the write
/// half closes and the buffer drains (standard EOF semantics).
pub struct PipeReader {
    shared: PipeShared,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let (lock, cv) = &*self.shared;
        let mut st = lock.lock().expect("pipe lock");
        while st.buf.is_empty() && !st.closed {
            st = cv.wait(st).expect("pipe lock");
        }
        if st.buf.is_empty() {
            return Ok(0); // closed and drained: EOF
        }
        let n = st.buf.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = st.buf.pop_front().expect("len checked");
        }
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        lock.lock().expect("pipe lock").closed = true;
        cv.notify_all();
    }
}

/// Write half of an in-process byte pipe; unbounded, never blocks.
pub struct PipeWriter {
    shared: PipeShared,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let (lock, cv) = &*self.shared;
        let mut st = lock.lock().expect("pipe lock");
        if st.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe reader closed",
            ));
        }
        st.buf.extend(data);
        cv.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        lock.lock().expect("pipe lock").closed = true;
        cv.notify_all();
    }
}

/// An in-process bidirectional byte transport: returns
/// `(client_half, server_half)`, each a `(reader, writer)` pair. The same
/// frames that cross a TCP socket cross this — loadgen and the conformance
/// tests exercise the full wire path without networking.
pub fn duplex() -> ((PipeReader, PipeWriter), (PipeReader, PipeWriter)) {
    let (server_read, client_write) = pipe(); // client → server
    let (client_read, server_write) = pipe(); // server → client
    ((client_read, client_write), (server_read, server_write))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_moves_bytes_both_ways_and_eofs() {
        let ((mut cr, mut cw), (mut sr, mut sw)) = duplex();
        cw.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        sr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        sw.write_all(b"pong").unwrap();
        cr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        drop(cw);
        assert_eq!(sr.read(&mut buf).unwrap(), 0); // EOF after close
    }

    #[test]
    fn write_after_reader_drop_is_broken_pipe() {
        let ((cr, _cw), (_sr, mut sw)) = duplex();
        drop(cr);
        let err = sw.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }
}
