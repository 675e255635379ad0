//! Payload schemas: how each frame kind's payload is laid out.
//!
//! All integers are little-endian ([`codec`](super::codec)); tenant ids are
//! `str16` (u16 length + UTF-8 bytes). Route payloads are decoded
//! **zero-copy**: [`RouteView`] borrows the cell bytes straight from the
//! frame payload, so a client can inspect a route (length, individual
//! cells) without materializing a `Vec<Cell>`; [`RouteView::to_route`]
//! materializes on demand.
//!
//! ```text
//! Submit        str16 tenant · u64 id · u32 t · u16 o.row · u16 o.col
//!               · u16 d.row · u16 d.col · u8 kind (0 pickup, 1 transmission, 2 return)
//! SubmitAck     u64 id · u8 status (0 accepted; 1 backpressure:
//!               u64 retry_after_µs · u32 queue_depth; 2 shutting-down;
//!               3 unknown-tenant)
//! PlanReply     u64 id · u8 verdict (0 planned: route; 1 infeasible;
//!               2 shed; 3 overrun; 4 died)
//! route         u32 start · u32 ncells · ncells × (u16 row · u16 col)
//! Advance       str16 tenant · u32 now
//! AdvanceReply  u32 count · count × (u64 id · route)
//! Cancel        str16 tenant · u64 id
//! CancelReply   u8 ok
//! MetricsQuery  str16 tenant
//! MetricsReply  service metrics · wire counters (see encode_metrics_reply)
//! ErrorReply    u8 code (1 unknown-tenant, 2 unexpected-frame) · str16 msg
//! TailLog       u64 from_seq
//! LogChunk      u64 epoch · u32 count · count × raw changeset record
//!               (each in its on-disk `len · crc32 · payload` framing, so
//!               CRC protection survives the hop and a standby can verify
//!               end-to-end)
//! ```

use super::codec::{Reader, Writer};
use super::frame::WireError;
use crate::histogram::LatencySummary;
use crate::service::{PlanResponse, ServiceMetrics};
use crate::tenant::WireCounters;
use crate::wal::record::{decode_records, encode_record, ChangeRecord, LogTail};
use carp_warehouse::planner::EngineMetrics;
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::time::Duration;

/// Bytes per cell on the wire (`u16 row` + `u16 col`).
const CELL_BYTES: usize = 4;

// ---------------------------------------------------------------- Submit

/// Encode a [`FrameKind::Submit`](super::FrameKind::Submit) payload.
pub fn encode_submit(tenant: &str, req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str16(tenant);
    w.put_u64(req.id);
    w.put_u32(req.t);
    w.put_u16(req.origin.row);
    w.put_u16(req.origin.col);
    w.put_u16(req.destination.row);
    w.put_u16(req.destination.col);
    w.put_u8(match req.kind {
        QueryKind::Pickup => 0,
        QueryKind::Transmission => 1,
        QueryKind::Return => 2,
    });
    w.into_inner()
}

/// Decode a submit payload; the tenant id borrows from the payload.
pub fn decode_submit(payload: &[u8]) -> Result<(&str, Request), WireError> {
    let mut r = Reader::new(payload);
    let tenant = r.str16()?;
    let id = r.u64()?;
    let t = r.u32()?;
    let origin = Cell::new(r.u16()?, r.u16()?);
    let destination = Cell::new(r.u16()?, r.u16()?);
    let kind = match r.u8()? {
        0 => QueryKind::Pickup,
        1 => QueryKind::Transmission,
        2 => QueryKind::Return,
        _ => return Err(WireError::Malformed("unknown query kind")),
    };
    r.done()?;
    Ok((tenant, Request::new(id, t, origin, destination, kind)))
}

// ------------------------------------------------------------- SubmitAck

/// Admission verdict carried by a `SubmitAck` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// The tenant took the request; its `PlanReply` follows.
    Accepted,
    /// A tenant queue was full; retry after the hinted delay. This daemon
    /// has no queue and never sends it; clients still decode it.
    Backpressure {
        /// Suggested client-side wait before re-submitting.
        retry_after: Duration,
        /// Tenant queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The tenant is shutting down and accepts no new work.
    ShuttingDown,
    /// No tenant by that id is registered.
    UnknownTenant,
    /// The connection exceeded its per-connection rate limit; retry after
    /// the hinted delay. This is a *connection* verdict — the tenant was
    /// never consulted.
    Throttled {
        /// Suggested client-side wait before re-submitting.
        retry_after: Duration,
    },
}

/// Encode a `SubmitAck` payload.
pub fn encode_submit_ack(id: RequestId, status: AckStatus) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(id);
    match status {
        AckStatus::Accepted => w.put_u8(0),
        AckStatus::Backpressure {
            retry_after,
            queue_depth,
        } => {
            w.put_u8(1);
            w.put_u64(retry_after.as_micros().min(u128::from(u64::MAX)) as u64);
            w.put_u32(queue_depth.min(u32::MAX as usize) as u32);
        }
        AckStatus::ShuttingDown => w.put_u8(2),
        AckStatus::UnknownTenant => w.put_u8(3),
        AckStatus::Throttled { retry_after } => {
            w.put_u8(4);
            w.put_u64(retry_after.as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    w.into_inner()
}

/// Decode a `SubmitAck` payload.
pub fn decode_submit_ack(payload: &[u8]) -> Result<(RequestId, AckStatus), WireError> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let status = match r.u8()? {
        0 => AckStatus::Accepted,
        1 => AckStatus::Backpressure {
            retry_after: Duration::from_micros(r.u64()?),
            queue_depth: r.u32()? as usize,
        },
        2 => AckStatus::ShuttingDown,
        3 => AckStatus::UnknownTenant,
        4 => AckStatus::Throttled {
            retry_after: Duration::from_micros(r.u64()?),
        },
        _ => return Err(WireError::Malformed("unknown ack status")),
    };
    r.done()?;
    Ok((id, status))
}

// ------------------------------------------------------------- PlanReply

/// Zero-copy view over an encoded route: `start` is decoded eagerly, the
/// cell array stays borrowed wire bytes until [`RouteView::to_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteView<'a> {
    start: Time,
    cells: &'a [u8],
}

impl<'a> RouteView<'a> {
    /// The route's start time.
    pub fn start(&self) -> Time {
        self.start
    }

    /// Number of cells in the route.
    pub fn len(&self) -> usize {
        self.cells.len() / CELL_BYTES
    }

    /// Whether the route has no cells (never true for a valid route).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The `i`-th cell, decoded from the borrowed bytes.
    ///
    /// # Panics
    /// When `i >= len()`.
    pub fn cell(&self, i: usize) -> Cell {
        let at = i * CELL_BYTES;
        let b = &self.cells[at..at + CELL_BYTES];
        Cell::new(
            u16::from_le_bytes([b[0], b[1]]),
            u16::from_le_bytes([b[2], b[3]]),
        )
    }

    /// Iterate the cells without materializing them.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + 'a {
        let cells = self.cells;
        (0..cells.len() / CELL_BYTES).map(move |i| {
            let b = &cells[i * CELL_BYTES..(i + 1) * CELL_BYTES];
            Cell::new(
                u16::from_le_bytes([b[0], b[1]]),
                u16::from_le_bytes([b[2], b[3]]),
            )
        })
    }

    /// Materialize an owned [`Route`].
    pub fn to_route(&self) -> Route {
        Route {
            start: self.start,
            grids: self.iter().collect(),
        }
    }
}

fn put_route(w: &mut Writer, route: &Route) {
    w.put_u32(route.start);
    w.put_u32(route.grids.len().min(u32::MAX as usize) as u32);
    for c in &route.grids {
        w.put_u16(c.row);
        w.put_u16(c.col);
    }
}

fn get_route_view<'a>(r: &mut Reader<'a>) -> Result<RouteView<'a>, WireError> {
    let start = r.u32()?;
    let ncells = r.u32()? as usize;
    let bytes = ncells
        .checked_mul(CELL_BYTES)
        .ok_or(WireError::Malformed("route cell count overflows"))?;
    let cells = r.bytes(bytes)?;
    Ok(RouteView { start, cells })
}

/// A decoded plan verdict; `Planned` borrows its route from the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanVerdict<'a> {
    /// A collision-free route was committed.
    Planned(RouteView<'a>),
    /// No route under the planner's search limits.
    Infeasible,
    /// Shed past its deadline before planning.
    DeadlineShed,
    /// Planned over budget; the route was cancelled.
    DeadlineOverrun,
    /// The tenant's planner panicked.
    ServiceDied,
}

impl PlanVerdict<'_> {
    /// Materialize the owned [`PlanResponse`] the in-process API returns.
    pub fn into_response(self) -> PlanResponse {
        match self {
            PlanVerdict::Planned(v) => PlanResponse::Planned(v.to_route()),
            PlanVerdict::Infeasible => PlanResponse::Infeasible,
            PlanVerdict::DeadlineShed => PlanResponse::DeadlineShed,
            PlanVerdict::DeadlineOverrun => PlanResponse::DeadlineOverrun,
            PlanVerdict::ServiceDied => PlanResponse::ServiceDied,
        }
    }
}

/// Encode a `PlanReply` payload from a terminal response.
pub fn encode_plan_reply(id: RequestId, response: &PlanResponse) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(id);
    match response {
        PlanResponse::Planned(route) => {
            w.put_u8(0);
            put_route(&mut w, route);
        }
        PlanResponse::Infeasible => w.put_u8(1),
        PlanResponse::DeadlineShed => w.put_u8(2),
        PlanResponse::DeadlineOverrun => w.put_u8(3),
        PlanResponse::ServiceDied => w.put_u8(4),
    }
    w.into_inner()
}

/// Decode a `PlanReply` payload; a planned route stays zero-copy.
pub fn decode_plan_reply(payload: &[u8]) -> Result<(RequestId, PlanVerdict<'_>), WireError> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let verdict = match r.u8()? {
        0 => PlanVerdict::Planned(get_route_view(&mut r)?),
        1 => PlanVerdict::Infeasible,
        2 => PlanVerdict::DeadlineShed,
        3 => PlanVerdict::DeadlineOverrun,
        4 => PlanVerdict::ServiceDied,
        _ => return Err(WireError::Malformed("unknown plan verdict")),
    };
    r.done()?;
    Ok((id, verdict))
}

// --------------------------------------------------------------- Advance

/// Encode an `Advance` payload.
pub fn encode_advance(tenant: &str, now: Time) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str16(tenant);
    w.put_u32(now);
    w.into_inner()
}

/// Decode an `Advance` payload.
pub fn decode_advance(payload: &[u8]) -> Result<(&str, Time), WireError> {
    let mut r = Reader::new(payload);
    let tenant = r.str16()?;
    let now = r.u32()?;
    r.done()?;
    Ok((tenant, now))
}

/// Encode an `AdvanceReply` payload (route revisions, usually empty).
pub fn encode_advance_reply(revisions: &[(RequestId, Route)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(revisions.len().min(u32::MAX as usize) as u32);
    for (id, route) in revisions {
        w.put_u64(*id);
        put_route(&mut w, route);
    }
    w.into_inner()
}

/// Decode an `AdvanceReply` payload into owned revisions.
pub fn decode_advance_reply(payload: &[u8]) -> Result<Vec<(RequestId, Route)>, WireError> {
    let mut r = Reader::new(payload);
    let count = r.u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let id = r.u64()?;
        let route = get_route_view(&mut r)?.to_route();
        out.push((id, route));
    }
    r.done()?;
    Ok(out)
}

// ---------------------------------------------------------------- Cancel

/// Encode a `Cancel` payload.
pub fn encode_cancel(tenant: &str, id: RequestId) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str16(tenant);
    w.put_u64(id);
    w.into_inner()
}

/// Decode a `Cancel` payload.
pub fn decode_cancel(payload: &[u8]) -> Result<(&str, RequestId), WireError> {
    let mut r = Reader::new(payload);
    let tenant = r.str16()?;
    let id = r.u64()?;
    r.done()?;
    Ok((tenant, id))
}

/// Encode a `CancelReply` payload.
pub fn encode_cancel_reply(ok: bool) -> Vec<u8> {
    vec![u8::from(ok)]
}

/// Decode a `CancelReply` payload.
pub fn decode_cancel_reply(payload: &[u8]) -> Result<bool, WireError> {
    let mut r = Reader::new(payload);
    let ok = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("non-boolean cancel reply")),
    };
    r.done()?;
    Ok(ok)
}

// --------------------------------------------------------------- Metrics

/// Encode a `MetricsQuery` payload.
pub fn encode_metrics_query(tenant: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str16(tenant);
    w.into_inner()
}

/// Decode a `MetricsQuery` payload.
pub fn decode_metrics_query(payload: &[u8]) -> Result<&str, WireError> {
    let mut r = Reader::new(payload);
    let tenant = r.str16()?;
    r.done()?;
    Ok(tenant)
}

fn put_latency(w: &mut Writer, s: &LatencySummary) {
    w.put_u64(s.count);
    w.put_f64(s.mean_us);
    w.put_u64(s.p50_us);
    w.put_u64(s.p95_us);
    w.put_u64(s.p99_us);
    w.put_u64(s.max_us);
}

fn get_latency(r: &mut Reader<'_>) -> Result<LatencySummary, WireError> {
    Ok(LatencySummary {
        count: r.u64()?,
        mean_us: r.f64()?,
        p50_us: r.u64()?,
        p95_us: r.u64()?,
        p99_us: r.u64()?,
        max_us: r.u64()?,
    })
}

/// Encode a `MetricsReply` payload: the full [`ServiceMetrics`] snapshot
/// followed by the tenant's [`WireCounters`].
pub fn encode_metrics_reply(metrics: &ServiceMetrics, wire: &WireCounters) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(metrics.submitted);
    w.put_u64(metrics.rejected_backpressure);
    w.put_u64(metrics.planned);
    w.put_u64(metrics.infeasible);
    w.put_u64(metrics.shed_deadline);
    w.put_u64(metrics.cancelled_deadline);
    put_latency(&mut w, &metrics.queue_latency);
    put_latency(&mut w, &metrics.planning_latency);
    put_latency(&mut w, &metrics.commit_latency);
    put_latency(&mut w, &metrics.turnaround_latency);
    match &metrics.engine {
        None => w.put_u8(0),
        Some(e) => {
            w.put_u8(1);
            w.put_u64(e.probe_queries);
            w.put_f64(e.retire_batch_size);
            w.put_u64(e.soft_bookings);
            w.put_u64(e.window_debt);
        }
    }
    w.put_u64(wire.frames_received);
    w.put_u64(wire.frames_sent);
    w.put_u64(wire.bytes_received);
    w.put_u64(wire.bytes_sent);
    w.put_u64(wire.protocol_errors);
    w.into_inner()
}

/// Decode a `MetricsReply` payload.
pub fn decode_metrics_reply(payload: &[u8]) -> Result<(ServiceMetrics, WireCounters), WireError> {
    let mut r = Reader::new(payload);
    let submitted = r.u64()?;
    let rejected_backpressure = r.u64()?;
    let planned = r.u64()?;
    let infeasible = r.u64()?;
    let shed_deadline = r.u64()?;
    let cancelled_deadline = r.u64()?;
    let queue_latency = get_latency(&mut r)?;
    let planning_latency = get_latency(&mut r)?;
    let commit_latency = get_latency(&mut r)?;
    let turnaround_latency = get_latency(&mut r)?;
    let engine = match r.u8()? {
        0 => None,
        1 => Some(EngineMetrics {
            probe_queries: r.u64()?,
            retire_batch_size: r.f64()?,
            soft_bookings: r.u64()?,
            window_debt: r.u64()?,
        }),
        _ => return Err(WireError::Malformed("non-boolean engine flag")),
    };
    let wire = WireCounters {
        frames_received: r.u64()?,
        frames_sent: r.u64()?,
        bytes_received: r.u64()?,
        bytes_sent: r.u64()?,
        protocol_errors: r.u64()?,
    };
    r.done()?;
    let metrics = ServiceMetrics {
        submitted,
        rejected_backpressure,
        planned,
        infeasible,
        shed_deadline,
        cancelled_deadline,
        queue_latency,
        planning_latency,
        commit_latency,
        turnaround_latency,
        engine,
    };
    Ok((metrics, wire))
}

// -------------------------------------------------- TailLog · LogChunk

/// Encode a `TailLog` payload: subscribe from this sequence number.
pub fn encode_tail_log(from_seq: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(from_seq);
    w.into_inner()
}

/// Decode a `TailLog` payload.
pub fn decode_tail_log(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    let from_seq = r.u64()?;
    r.done()?;
    Ok(from_seq)
}

/// Encode a `LogChunk` payload from already-encoded record frames
/// (`raw` is a concatenation of `count` on-disk record encodings). The
/// shipping path keeps records in their durable framing, CRC and all.
pub fn encode_log_chunk_raw(epoch: u64, count: u32, raw: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(epoch);
    w.put_u32(count);
    w.put_bytes(raw);
    w.into_inner()
}

/// Encode a `LogChunk` payload from decoded records.
pub fn encode_log_chunk(epoch: u64, records: &[ChangeRecord]) -> Vec<u8> {
    let mut raw = Vec::new();
    for rec in records {
        raw.extend_from_slice(&encode_record(rec));
    }
    encode_log_chunk_raw(epoch, records.len().min(u32::MAX as usize) as u32, &raw)
}

/// Zero-copy view over a `LogChunk` payload: the epoch and record count
/// are decoded eagerly, the record bytes stay borrowed wire bytes (still
/// in their on-disk framing) until [`LogChunkView::records`] materializes
/// them — a relay can forward or append the raw bytes without ever
/// decoding a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogChunkView<'a> {
    epoch: u64,
    count: u32,
    raw: &'a [u8],
}

impl<'a> LogChunkView<'a> {
    /// The journal epoch in force when the chunk was shipped.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of records the chunk declares.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The records' raw bytes — each in its on-disk
    /// `len · crc32 · payload` framing, concatenated.
    pub fn raw(&self) -> &'a [u8] {
        self.raw
    }

    /// Decode and CRC-check every record. Unlike a log *file* read, a
    /// torn or corrupt record inside a chunk is a protocol error, not a
    /// tolerated tail — the transport delivered the payload whole, so any
    /// defect is corruption, and so is a count mismatch.
    pub fn records(&self) -> Result<Vec<ChangeRecord>, WireError> {
        let (records, tail) = decode_records(self.raw);
        if tail != LogTail::Clean {
            return Err(WireError::Malformed("corrupt record in log chunk"));
        }
        if records.len() != self.count as usize {
            return Err(WireError::Malformed("log chunk count mismatch"));
        }
        Ok(records)
    }
}

/// Decode a `LogChunk` payload into its zero-copy view.
pub fn decode_log_chunk(payload: &[u8]) -> Result<LogChunkView<'_>, WireError> {
    let mut r = Reader::new(payload);
    let epoch = r.u64()?;
    if epoch == 0 {
        return Err(WireError::Malformed("log chunk epoch zero"));
    }
    let count = r.u32()?;
    let raw = r.bytes(r.remaining())?;
    Ok(LogChunkView { epoch, count, raw })
}

// ------------------------------------------------------------ ErrorReply

/// Request-level error codes carried by `ErrorReply` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A control frame named a tenant that is not registered.
    UnknownTenant,
    /// The daemon received a frame kind it does not serve (e.g. a reply
    /// kind sent client → daemon).
    UnexpectedFrame,
    /// The connection exceeded its per-connection rate limit on a control
    /// frame (submissions get [`AckStatus::Throttled`] instead).
    Throttled,
    /// A `TailLog` subscription was refused because the daemon has no
    /// changeset journal attached — nothing to ship.
    NoJournal,
}

/// Encode an `ErrorReply` payload.
pub fn encode_error_reply(code: ErrorCode, msg: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(match code {
        ErrorCode::UnknownTenant => 1,
        ErrorCode::UnexpectedFrame => 2,
        ErrorCode::Throttled => 3,
        ErrorCode::NoJournal => 4,
    });
    w.put_str16(msg);
    w.into_inner()
}

/// Decode an `ErrorReply` payload; the message borrows from the payload.
pub fn decode_error_reply(payload: &[u8]) -> Result<(ErrorCode, &str), WireError> {
    let mut r = Reader::new(payload);
    let code = match r.u8()? {
        1 => ErrorCode::UnknownTenant,
        2 => ErrorCode::UnexpectedFrame,
        3 => ErrorCode::Throttled,
        4 => ErrorCode::NoJournal,
        _ => return Err(WireError::Malformed("unknown error code")),
    };
    let msg = r.str16()?;
    r.done()?;
    Ok((code, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(start: Time, cols: core::ops::Range<u16>) -> Route {
        Route {
            start,
            grids: cols.map(|c| Cell::new(3, c)).collect(),
        }
    }

    #[test]
    fn submit_round_trip() {
        let req = Request::new(
            42,
            7,
            Cell::new(1, 2),
            Cell::new(3, 4),
            QueryKind::Transmission,
        );
        let payload = encode_submit("W-2", &req);
        let (tenant, decoded) = decode_submit(&payload).unwrap();
        assert_eq!(tenant, "W-2");
        assert_eq!(decoded, req);
    }

    #[test]
    fn plan_reply_route_is_zero_copy_and_exact() {
        let r = route(5, 0..6);
        let payload = encode_plan_reply(9, &PlanResponse::Planned(r.clone()));
        let (id, verdict) = decode_plan_reply(&payload).unwrap();
        assert_eq!(id, 9);
        let PlanVerdict::Planned(view) = verdict else {
            panic!("expected planned");
        };
        assert_eq!(view.start(), 5);
        assert_eq!(view.len(), 6);
        assert_eq!(view.cell(2), Cell::new(3, 2));
        assert_eq!(view.to_route(), r);
        assert_eq!(view.iter().collect::<Vec<_>>(), r.grids);
    }

    #[test]
    fn ack_and_error_round_trips() {
        for status in [
            AckStatus::Accepted,
            AckStatus::Backpressure {
                retry_after: Duration::from_micros(1234),
                queue_depth: 17,
            },
            AckStatus::ShuttingDown,
            AckStatus::UnknownTenant,
            AckStatus::Throttled {
                retry_after: Duration::from_micros(777),
            },
        ] {
            let payload = encode_submit_ack(5, status);
            assert_eq!(decode_submit_ack(&payload).unwrap(), (5, status));
        }
        for code in [
            ErrorCode::UnknownTenant,
            ErrorCode::UnexpectedFrame,
            ErrorCode::Throttled,
        ] {
            let payload = encode_error_reply(code, "no such tenant: X");
            assert_eq!(
                decode_error_reply(&payload).unwrap(),
                (code, "no such tenant: X")
            );
        }
    }

    #[test]
    fn tail_log_and_chunk_round_trip() {
        use crate::wal::record::ChangeOp;
        assert_eq!(decode_tail_log(&encode_tail_log(42)).unwrap(), 42);

        let recs = vec![
            ChangeRecord {
                seq: 5,
                tenant: "W-1".into(),
                op: ChangeOp::TenantOpen,
            },
            ChangeRecord {
                seq: 6,
                tenant: "W-1".into(),
                op: ChangeOp::Advance { now: 9 },
            },
        ];
        let payload = encode_log_chunk(3, &recs);
        let view = decode_log_chunk(&payload).unwrap();
        assert_eq!(view.epoch(), 3);
        assert_eq!(view.count(), 2);
        assert_eq!(view.records().unwrap(), recs);

        // A flipped payload bit inside a record is a protocol error, not
        // a tolerated torn tail.
        let mut bad = payload.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let view = decode_log_chunk(&bad).unwrap();
        assert_eq!(
            view.records(),
            Err(WireError::Malformed("corrupt record in log chunk"))
        );

        // A count mismatch is a protocol error too.
        let short = encode_log_chunk_raw(3, 3, view.raw());
        assert!(decode_log_chunk(&short).unwrap().records().is_err());
    }

    #[test]
    fn advance_reply_round_trip() {
        let revs = vec![(1u64, route(0, 0..3)), (9u64, route(4, 2..9))];
        let payload = encode_advance_reply(&revs);
        assert_eq!(decode_advance_reply(&payload).unwrap(), revs);
    }

    fn zero_latency() -> LatencySummary {
        LatencySummary {
            count: 0,
            mean_us: 0.0,
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
            max_us: 0,
        }
    }

    #[test]
    fn metrics_reply_round_trip() {
        let metrics = ServiceMetrics {
            submitted: 100,
            rejected_backpressure: 5,
            planned: 90,
            infeasible: 5,
            shed_deadline: 0,
            cancelled_deadline: 0,
            queue_latency: LatencySummary {
                count: 100,
                mean_us: 12.5,
                p50_us: 10,
                p95_us: 50,
                p99_us: 100,
                max_us: 200,
            },
            planning_latency: zero_latency(),
            commit_latency: zero_latency(),
            turnaround_latency: zero_latency(),
            engine: Some(EngineMetrics {
                probe_queries: 100,
                retire_batch_size: 8.5,
                soft_bookings: 3,
                window_debt: 1,
            }),
        };
        let wire = WireCounters {
            frames_received: 11,
            frames_sent: 12,
            bytes_received: 1300,
            bytes_sent: 1400,
            protocol_errors: 1,
        };
        let payload = encode_metrics_reply(&metrics, &wire);
        let (m2, w2) = decode_metrics_reply(&payload).unwrap();
        assert_eq!(w2, wire);
        assert_eq!(m2.submitted, 100);
        assert_eq!(m2.queue_latency.mean_us, 12.5);
        assert_eq!(m2.engine, metrics.engine);
    }
}
