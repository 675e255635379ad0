//! Changeset records: the on-disk unit of the durable log.
//!
//! Every state transition the daemon commits — route adoptions, cancels,
//! clock advances (batched retirement), windowed route revisions, tenant
//! lifecycle — is one length-prefixed record:
//!
//! ```text
//!  offset  size  field
//!       0     4  payload length (LE u32), ≤ MAX_RECORD
//!       4     4  CRC-32 (IEEE) of the payload (LE u32)
//!       8     …  payload
//! ```
//!
//! The payload reuses the wire codec discipline
//! ([`crate::wire::codec`]): `u64 seq · u8 kind · str16 tenant ·
//! kind-specific body`. Sequence numbers are strictly monotonic across the
//! whole log (all tenants share one sequence), which is what lets a
//! standby total-order replay a multi-tenant day.
//!
//! Decoding is deliberately forgiving at the *tail* and strict everywhere
//! else: a record that fails its length bound, CRC, schema, or sequence
//! check ends the readable prefix — the decoder returns every record
//! before it plus a [`LogTail::Torn`] marker, never an error and never a
//! panic. A crash mid-append therefore costs at most the record being
//! written (pinned by the torn-tail fuzz suite, mirroring the wire codec
//! tests).

use crate::wire::codec::{Reader, Writer};
use crate::wire::WireError;
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};

/// Bytes in the fixed record header (length + CRC).
pub const RECORD_HEADER_LEN: usize = 8;
/// Upper bound on a record payload; same rationale as the wire layer's
/// `MAX_PAYLOAD` — anything bigger is a corrupt length field.
pub const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the same checksum gzip and
/// PNG use. Bitwise implementation: the log appends at commit cadence, not
/// packet cadence, so a lookup table buys nothing measurable.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The state transition a record carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeOp {
    /// A tenant was registered (or re-opened by a standby takeover).
    TenantOpen,
    /// A tenant was deregistered; its planner state is dead.
    TenantClose,
    /// A route passed the single validate-and-commit point.
    Commit {
        /// The admitted request.
        request: Request,
        /// The committed route.
        route: Route,
    },
    /// A committed route was cancelled before completion.
    Cancel {
        /// Id of the cancelled request.
        id: RequestId,
    },
    /// The tenant's clock advanced; implies batched retirement of every
    /// active route with `end_time() < now`.
    Advance {
        /// The new simulated time.
        now: Time,
    },
    /// A windowed planner revised a committed route in place (TWP/RP
    /// repair rounds). Replaces the route under `id`.
    Revise {
        /// Id of the revised request.
        id: RequestId,
        /// The replacement route.
        route: Route,
    },
    /// A leadership epoch bump: every later append is made under this
    /// epoch. A standby writes one at takeover; appends stamped with an
    /// older epoch are fenced off (refused) from then on.
    Epoch(u64),
}

impl ChangeOp {
    fn kind_tag(&self) -> u8 {
        match self {
            ChangeOp::TenantOpen => 1,
            ChangeOp::TenantClose => 2,
            ChangeOp::Commit { .. } => 3,
            ChangeOp::Cancel { .. } => 4,
            ChangeOp::Advance { .. } => 5,
            ChangeOp::Revise { .. } => 6,
            // 7 is retired (it framed whole-state snapshots); it is never
            // reused, so older logs keep decoding as they always did.
            ChangeOp::Epoch(_) => 8,
        }
    }
}

/// One decoded log record: a sequence number, the tenant it belongs to
/// (empty for [`ChangeOp::Epoch`], which spans tenants), and the op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Strictly monotonic sequence number (log-wide, 1-based).
    pub seq: u64,
    /// Owning tenant id; empty for epoch records.
    pub tenant: String,
    /// The state transition.
    pub op: ChangeOp,
}

/// How a log read ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogTail {
    /// The log ended exactly at a record boundary.
    Clean,
    /// The log ended mid-record (crash during an append) or the tail
    /// failed CRC/schema/sequence validation: everything before
    /// `valid_bytes` decoded, `dropped_bytes` were discarded.
    Torn {
        /// Bytes of intact prefix (a safe truncation point).
        valid_bytes: u64,
        /// Bytes beyond the intact prefix.
        dropped_bytes: u64,
    },
}

fn put_cell(w: &mut Writer, c: Cell) {
    w.put_u16(c.row);
    w.put_u16(c.col);
}

fn get_cell(r: &mut Reader<'_>) -> Result<Cell, WireError> {
    Ok(Cell::new(r.u16()?, r.u16()?))
}

fn put_request(w: &mut Writer, q: &Request) {
    w.put_u64(q.id);
    w.put_u32(q.t);
    put_cell(w, q.origin);
    put_cell(w, q.destination);
    w.put_u8(match q.kind {
        QueryKind::Pickup => 0,
        QueryKind::Transmission => 1,
        QueryKind::Return => 2,
    });
}

fn get_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    let id = r.u64()?;
    let t = r.u32()?;
    let origin = get_cell(r)?;
    let destination = get_cell(r)?;
    let kind = match r.u8()? {
        0 => QueryKind::Pickup,
        1 => QueryKind::Transmission,
        2 => QueryKind::Return,
        _ => return Err(WireError::Malformed("unknown query kind")),
    };
    Ok(Request::new(id, t, origin, destination, kind))
}

fn put_route(w: &mut Writer, route: &Route) {
    w.put_u32(route.start);
    w.put_u32(route.grids.len() as u32);
    for &g in &route.grids {
        put_cell(w, g);
    }
}

fn get_route(r: &mut Reader<'_>) -> Result<Route, WireError> {
    let start = r.u32()?;
    let n = r.u32()? as usize;
    if n == 0 {
        return Err(WireError::Malformed("empty route"));
    }
    if n > r.remaining() / 4 {
        return Err(WireError::Malformed("route length exceeds payload"));
    }
    let mut grids = Vec::with_capacity(n);
    for _ in 0..n {
        grids.push(get_cell(r)?);
    }
    Ok(Route::new(start, grids))
}

/// Encode one record (header + payload) into a fresh buffer.
pub fn encode_record(rec: &ChangeRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(rec.seq);
    w.put_u8(rec.op.kind_tag());
    w.put_str16(&rec.tenant);
    match &rec.op {
        ChangeOp::TenantOpen | ChangeOp::TenantClose => {}
        ChangeOp::Commit { request, route } => {
            put_request(&mut w, request);
            put_route(&mut w, route);
        }
        ChangeOp::Cancel { id } => w.put_u64(*id),
        ChangeOp::Advance { now } => w.put_u32(*now),
        ChangeOp::Revise { id, route } => {
            w.put_u64(*id);
            put_route(&mut w, route);
        }
        ChangeOp::Epoch(epoch) => w.put_u64(*epoch),
    }
    let payload = w.into_inner();
    debug_assert!(payload.len() as u32 <= MAX_RECORD);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8]) -> Result<ChangeRecord, WireError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let kind = r.u8()?;
    let tenant = r.str16()?.to_string();
    let op = match kind {
        1 => ChangeOp::TenantOpen,
        2 => ChangeOp::TenantClose,
        3 => {
            let request = get_request(&mut r)?;
            let route = get_route(&mut r)?;
            ChangeOp::Commit { request, route }
        }
        4 => ChangeOp::Cancel { id: r.u64()? },
        5 => ChangeOp::Advance { now: r.u32()? },
        6 => {
            let id = r.u64()?;
            let route = get_route(&mut r)?;
            ChangeOp::Revise { id, route }
        }
        8 => {
            let epoch = r.u64()?;
            if epoch == 0 {
                return Err(WireError::Malformed("epoch zero"));
            }
            ChangeOp::Epoch(epoch)
        }
        _ => return Err(WireError::Malformed("unknown record kind")),
    };
    r.done()?;
    Ok(ChangeRecord { seq, tenant, op })
}

/// Decode a log image into its intact record prefix.
///
/// Never errors, never panics: any defect — truncated header or payload,
/// length field over [`MAX_RECORD`], CRC mismatch, schema violation,
/// non-monotonic sequence number — ends the readable prefix there, and the
/// byte counts come back in [`LogTail::Torn`] so the caller can truncate
/// before resuming appends.
pub fn decode_records(buf: &[u8]) -> (Vec<ChangeRecord>, LogTail) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut last_seq = 0u64;
    while offset < buf.len() {
        let Some(rest) = buf.get(offset..) else { break };
        if rest.len() < RECORD_HEADER_LEN {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("len 4"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("len 4"));
        if len > MAX_RECORD {
            break; // corrupt length field
        }
        let end = RECORD_HEADER_LEN + len as usize;
        if rest.len() < end {
            break; // torn payload
        }
        let payload = &rest[RECORD_HEADER_LEN..end];
        if crc32(payload) != crc {
            break; // bit rot or torn overwrite
        }
        let Ok(rec) = decode_payload(payload) else {
            break; // schema violation
        };
        if rec.seq <= last_seq {
            break; // sequence went backwards: stale bytes past a rewrite
        }
        last_seq = rec.seq;
        records.push(rec);
        offset += end;
    }
    let tail = if offset == buf.len() {
        LogTail::Clean
    } else {
        LogTail::Torn {
            valid_bytes: offset as u64,
            dropped_bytes: (buf.len() - offset) as u64,
        }
    };
    (records, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_route() -> Route {
        Route::new(3, vec![Cell::new(1, 1), Cell::new(1, 2), Cell::new(2, 2)])
    }

    fn sample_records() -> Vec<ChangeRecord> {
        let req = Request::new(7, 3, Cell::new(1, 1), Cell::new(2, 2), QueryKind::Pickup);
        vec![
            ChangeRecord {
                seq: 1,
                tenant: "acme".into(),
                op: ChangeOp::TenantOpen,
            },
            ChangeRecord {
                seq: 2,
                tenant: "acme".into(),
                op: ChangeOp::Commit {
                    request: req,
                    route: sample_route(),
                },
            },
            ChangeRecord {
                seq: 3,
                tenant: "acme".into(),
                op: ChangeOp::Revise {
                    id: 7,
                    route: sample_route(),
                },
            },
            ChangeRecord {
                seq: 4,
                tenant: "acme".into(),
                op: ChangeOp::Advance { now: 9 },
            },
            ChangeRecord {
                seq: 5,
                tenant: "acme".into(),
                op: ChangeOp::Cancel { id: 7 },
            },
            ChangeRecord {
                seq: 6,
                tenant: "acme".into(),
                op: ChangeOp::TenantClose,
            },
            ChangeRecord {
                seq: 7,
                tenant: String::new(),
                op: ChangeOp::Epoch(2),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&encode_record(r));
        }
        let (got, tail) = decode_records(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(got, recs);
    }

    #[test]
    fn every_truncation_point_recovers_the_prefix() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            buf.extend_from_slice(&encode_record(r));
            boundaries.push(buf.len());
        }
        for cut in 0..buf.len() {
            let (got, tail) = decode_records(&buf[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.len(), whole, "cut at {cut}");
            assert_eq!(&got[..], &recs[..whole]);
            if boundaries.contains(&cut) {
                assert_eq!(tail, LogTail::Clean);
            } else {
                let valid = boundaries[whole] as u64;
                assert_eq!(
                    tail,
                    LogTail::Torn {
                        valid_bytes: valid,
                        dropped_bytes: cut as u64 - valid,
                    }
                );
            }
        }
    }

    #[test]
    fn crc_flip_drops_tail_not_head() {
        let recs = sample_records();
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_record(&recs[0]));
        let first = buf.len();
        buf.extend_from_slice(&encode_record(&recs[1]));
        // Flip a payload byte of the second record.
        let pos = first + RECORD_HEADER_LEN + 2;
        buf[pos] ^= 0x40;
        let (got, tail) = decode_records(&buf);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], recs[0]);
        assert_eq!(
            tail,
            LogTail::Torn {
                valid_bytes: first as u64,
                dropped_bytes: (buf.len() - first) as u64,
            }
        );
    }

    #[test]
    fn non_monotonic_seq_ends_the_prefix() {
        let mut a = sample_records()[0].clone();
        a.seq = 5;
        let mut b = sample_records()[0].clone();
        b.seq = 5; // repeat: must be rejected
        let mut buf = encode_record(&a);
        buf.extend_from_slice(&encode_record(&b));
        let (got, tail) = decode_records(&buf);
        assert_eq!(got.len(), 1);
        assert!(matches!(tail, LogTail::Torn { .. }));
    }
}
