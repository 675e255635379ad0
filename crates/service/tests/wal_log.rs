//! Changeset-log robustness suite, mirroring the wire fuzz tests.
//!
//! Five families:
//!
//! * **Torn-tail / corruption fuzz** — cut a valid log anywhere or flip
//!   any single byte: decoding must keep every record *before* the damage
//!   bit-exactly, drop the rest, and never panic; `open_append` on the
//!   damaged file must truncate the tail and accept new appends cleanly.
//!
//! * **File ≡ op stream** — drive a random op stream through a journal;
//!   the file, and a reopened journal's records and epoch, must replay to
//!   exactly the state of the ops that were appended.
//!
//! * **Shipping ≡ file** — a standby fed over the wire ends with the
//!   primary's last sequence, epoch and on-disk replay state.
//!
//! * **Append-after-recovery** — a journal reopened over a torn file
//!   resumes the sequence without gaps or reuse.
//!
//! * **Durability bound** — the background syncer's watermark is
//!   monotone, never passes the last record, and no append returns with
//!   `FSYNC_EVERY` or more unsynced records; the synchronous paths leave
//!   it at the last record; dropping a journal joins its syncer.

use carp_service::wal::record::{decode_records, encode_record};
use carp_service::wal::{
    read_log, ChangeOp, ChangeRecord, LogTail, ReplayState, TenantJournal, WalJournal, FSYNC_EVERY,
};
use carp_service::wire::schema;
use carp_service::wire::{write_frame, FrameDecoder, FrameKind, WireError};
use carp_warehouse::request::{QueryKind, Request};
use carp_warehouse::route::Route;
use carp_warehouse::types::Cell;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A scratch log path unique per test case; removed on drop.
struct ScratchLog(PathBuf);

impl ScratchLog {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        ScratchLog(
            std::env::temp_dir().join(format!("carp-wal-test-{}-{n}.wal", std::process::id())),
        )
    }
}

impl Drop for ScratchLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn route_strategy() -> impl Strategy<Value = Route> {
    (
        0u32..200,
        proptest::collection::vec((0u16..24, 0u16..24), 1..6),
    )
        .prop_map(|(start, cells)| {
            Route::new(
                start,
                cells.into_iter().map(|(r, c)| Cell::new(r, c)).collect(),
            )
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u64..50,
        0u32..200,
        (0u16..24, 0u16..24),
        (0u16..24, 0u16..24),
        0u8..3,
    )
        .prop_map(|(id, t, o, d, k)| {
            let kind = match k {
                0 => QueryKind::Pickup,
                1 => QueryKind::Transmission,
                _ => QueryKind::Return,
            };
            Request::new(id, t, Cell::new(o.0, o.1), Cell::new(d.0, d.1), kind)
        })
}

fn op_strategy() -> impl Strategy<Value = ChangeOp> {
    // Commit is over-weighted (variants 6..=9) — it is the hot record kind.
    (
        0u8..10,
        request_strategy(),
        route_strategy(),
        0u32..300,
        1u64..8,
    )
        .prop_map(|(variant, request, route, now, epoch)| match variant {
            0 => ChangeOp::TenantOpen,
            1 => ChangeOp::TenantClose,
            2 => ChangeOp::Cancel { id: request.id },
            3 => ChangeOp::Advance { now },
            4 => ChangeOp::Revise {
                id: request.id,
                route,
            },
            5 => ChangeOp::Epoch(epoch),
            _ => ChangeOp::Commit { request, route },
        })
}

/// An encoded multi-record stream plus each record's end offset.
fn encode_stream(ops: &[(u8, ChangeOp)]) -> (Vec<u8>, Vec<ChangeRecord>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut records = Vec::new();
    let mut ends = Vec::new();
    for (i, (tenant, op)) in ops.iter().enumerate() {
        let rec = ChangeRecord {
            seq: i as u64 + 1,
            tenant: format!("wh-{tenant}"),
            op: op.clone(),
        };
        bytes.extend_from_slice(&encode_record(&rec));
        records.push(rec);
        ends.push(bytes.len());
    }
    (bytes, records, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cut a random log anywhere: the readable prefix is exactly the
    /// records whose bytes survive whole, and `open_append` truncates the
    /// stump then keeps appending with the next sequence number.
    #[test]
    fn any_truncation_point_recovers_the_whole_prefix(
        ops in proptest::collection::vec((0u8..2, op_strategy()), 1..8),
        cut_ppm in 0u32..1_000_000,
    ) {
        let (bytes, records, ends) = encode_stream(&ops);
        let cut = bytes.len() * cut_ppm as usize / 1_000_000;
        let intact = ends.iter().filter(|&&e| e <= cut).count();

        let (decoded, tail) = decode_records(&bytes[..cut]);
        prop_assert_eq!(&decoded[..], &records[..intact]);
        let at_boundary = cut == 0 || (intact > 0 && cut == ends[intact - 1]);
        prop_assert_eq!(tail == LogTail::Clean, at_boundary);

        let scratch = ScratchLog::new();
        std::fs::write(&scratch.0, &bytes[..cut]).expect("write truncated log");
        let (journal, replayed, tail) =
            WalJournal::open_append(&scratch.0).expect("open truncated log");
        prop_assert_eq!(&replayed[..], &records[..intact]);
        match tail {
            LogTail::Clean => prop_assert_eq!(cut, replayed.last().map_or(0, |_| ends[intact - 1])),
            LogTail::Torn { valid_bytes, dropped_bytes } => {
                prop_assert_eq!(valid_bytes + dropped_bytes, cut as u64);
            }
        }
        // The file was truncated to the intact prefix and the sequence
        // resumes exactly after the last surviving record.
        let next = journal.append("wh-0", ChangeOp::Advance { now: 999 });
        prop_assert_eq!(next, intact as u64 + 1);
        drop(journal);
        let (after, tail) = read_log(&scratch.0).expect("reread");
        prop_assert_eq!(tail, LogTail::Clean);
        prop_assert_eq!(after.len(), intact + 1);
        prop_assert_eq!(&after[..intact], &records[..intact]);
    }

    /// Flip any single byte: every record before the damaged one decodes
    /// bit-exactly; decoding never panics and never runs past the damage
    /// into misframed garbage that masquerades as the head.
    #[test]
    fn any_byte_flip_keeps_the_head_intact(
        ops in proptest::collection::vec((0u8..2, op_strategy()), 1..8),
        flip_ppm in 0u32..1_000_000,
        flip_bit in 0u8..8,
    ) {
        let (mut bytes, records, ends) = encode_stream(&ops);
        let pos = (bytes.len() * flip_ppm as usize / 1_000_000).min(bytes.len() - 1);
        bytes[pos] ^= 1 << flip_bit;
        // Index of the record whose bytes contain the flip.
        let damaged = ends.iter().filter(|&&e| e <= pos).count();

        let (decoded, _tail) = decode_records(&bytes);
        prop_assert!(decoded.len() <= records.len());
        let intact_head = decoded.len().min(damaged);
        prop_assert_eq!(&decoded[..intact_head], &records[..intact_head]);
        // CRC-32 catches any single-bit error inside one record's frame,
        // so the damaged record itself must never survive verbatim.
        if decoded.len() > damaged {
            prop_assert_ne!(&decoded[damaged], &records[damaged]);
        }

        // File-level recovery over the damaged image must not panic and
        // must leave an appendable journal.
        let scratch = ScratchLog::new();
        std::fs::write(&scratch.0, &bytes).expect("write damaged log");
        let (journal, replayed, _tail) =
            WalJournal::open_append(&scratch.0).expect("open damaged log");
        prop_assert_eq!(&replayed[..], &decoded[..]);
        journal.append("wh-0", ChangeOp::TenantOpen);
        journal.seal();
    }

    /// file ≡ op stream: the file, and a reopened journal's records,
    /// replay to exactly the state of the ops that were appended, and
    /// both journals hold the stream's epoch.
    #[test]
    fn the_file_replays_to_the_appended_op_stream(
        ops in proptest::collection::vec((0u8..3, op_strategy()), 1..24),
    ) {
        let scratch = ScratchLog::new();
        let journal = WalJournal::create(&scratch.0).expect("create journal");
        let mut logical = Vec::new();
        for (tenant, op) in &ops {
            let tenant = format!("wh-{tenant}");
            let seq = journal.append(&tenant, op.clone());
            logical.push(ChangeRecord { seq, tenant, op: op.clone() });
        }
        let expected = ReplayState::from_records(&logical);
        prop_assert_eq!(journal.epoch(), expected.epoch);
        journal.seal();
        drop(journal);

        let (records, tail) = read_log(&scratch.0).expect("read log");
        prop_assert_eq!(tail, LogTail::Clean);
        prop_assert_eq!(ReplayState::from_records(&records), expected.clone());

        // And the reopened journal agrees too (the standby's view).
        let (journal, reopened, tail) = WalJournal::open_append(&scratch.0).expect("reopen");
        prop_assert_eq!(tail, LogTail::Clean);
        prop_assert_eq!(ReplayState::from_records(&reopened), expected.clone());
        prop_assert_eq!(journal.epoch(), expected.epoch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Live shipping equivalence: a standby that mirrors the shipped tail
    /// — records carried over the wire in `LogChunk` frames, reassembled
    /// through the reactor's incremental decoder at arbitrary read
    /// segmentation, with a mid-stream disconnect re-delivering an
    /// overlapping suffix — ends bit-identical to the primary: same epoch,
    /// same last sequence number, and its on-disk log replays to the same
    /// state as the primary's.
    ///
    /// The subscription may start anywhere in the history (`from_ppm`);
    /// the standby already holds the prefix below it verbatim, as a
    /// reconnecting follower has mirrored it before.
    #[test]
    fn shipped_tail_replays_to_primary_state(
        prefix in proptest::collection::vec((0u8..3, op_strategy()), 1..12),
        suffix in proptest::collection::vec((0u8..3, op_strategy()), 0..12),
        from_ppm in 0u32..1_000_000,
        chunk_len in 1usize..5,
        split_ppm in 0u32..1_000_000,
        overlap_ppm in 0u32..1_000_000,
        cuts in proptest::collection::vec(0usize..10_000, 0..6),
    ) {
        let primary_path = ScratchLog::new();
        let standby_path = ScratchLog::new();
        let primary = WalJournal::create(&primary_path.0).expect("create primary");

        // History before the standby shows up, tracked on the test side.
        let mut logical = Vec::new();
        for (tenant, op) in &prefix {
            let tenant = format!("wh-{tenant}");
            let seq = primary.append(&tenant, op.clone());
            logical.push(ChangeRecord { seq, tenant, op: op.clone() });
        }

        // Subscribe from an arbitrary point in the history: catch-up and
        // live registration are atomic, so catch_up ⊕ drain() is the
        // gap-free stream from `from_seq` on.
        let from_seq = 1 + primary.last_seq() * from_ppm as u64 / 1_000_000;
        let (catch_up, sub) = primary.tail(from_seq, || {}).expect("subscribe");

        let standby = WalJournal::create(&standby_path.0).expect("create standby");
        for rec in logical.iter().filter(|r| r.seq < from_seq) {
            prop_assert!(standby.append_record(rec));
        }

        // Live phase: these appends are pushed into the subscription.
        for (tenant, op) in &suffix {
            primary.append(&format!("wh-{tenant}"), op.clone());
        }
        let mut shipped = catch_up;
        shipped.extend(sub.drain());

        // Disconnect mid-stream, reconnect, and re-deliver an overlapping
        // suffix. Each delivery is its own connection — its own chunk
        // framing and its own incremental decoder (a chunk's embedded
        // records are seq-monotonic, so re-delivery can never share a
        // stream with the original) — and the duplicate records in the
        // overlap must be absorbed by the standby's seq dedup.
        let split = shipped.len() * split_ppm as usize / 1_000_000;
        let overlap = split * overlap_ppm as usize / 1_000_000;
        let epoch = primary.epoch();
        let first = ship_over_wire(&shipped[..split], chunk_len, epoch, &cuts, &standby);
        let second =
            ship_over_wire(&shipped[split - overlap..], chunk_len, epoch, &cuts, &standby);
        prop_assert_eq!(first, split);
        prop_assert_eq!(first + second, shipped.len() + overlap);

        // Live equivalence, then on-disk equivalence.
        prop_assert_eq!(standby.last_seq(), primary.last_seq());
        prop_assert_eq!(standby.epoch(), primary.epoch());
        primary.seal();
        standby.seal();
        let (p_records, p_tail) = read_log(&primary_path.0).expect("read primary");
        let (s_records, s_tail) = read_log(&standby_path.0).expect("read standby");
        prop_assert_eq!(p_tail, LogTail::Clean);
        prop_assert_eq!(s_tail, LogTail::Clean);
        prop_assert_eq!(
            ReplayState::from_records(&s_records),
            ReplayState::from_records(&p_records)
        );
    }
}

/// One shipping "connection": encode `records` into `LogChunk` frames
/// (`chunk_len` records per chunk), deliver the byte stream to a fresh
/// incremental decoder in arbitrary read segments (`cuts`), and apply
/// every decoded record to `standby`. Returns how many records arrived
/// (applied or deduped).
fn ship_over_wire(
    records: &[ChangeRecord],
    chunk_len: usize,
    epoch: u64,
    cuts: &[usize],
    standby: &WalJournal,
) -> usize {
    let mut wire = Vec::new();
    for chunk in records.chunks(chunk_len.max(1)) {
        let payload = schema::encode_log_chunk(epoch, chunk);
        write_frame(&mut wire, FrameKind::LogChunk, &payload).expect("in-memory write");
    }
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    bounds.push(wire.len());
    bounds.sort_unstable();
    let mut decoder = FrameDecoder::new();
    let mut start = 0;
    let mut received = 0usize;
    for &end in &bounds {
        decoder.push(&wire[start..end]);
        start = end;
        while let Some((kind, body)) = decoder.next_frame().expect("clean frames") {
            assert_eq!(kind, FrameKind::LogChunk);
            let view = schema::decode_log_chunk(&body).expect("chunk decodes");
            assert_eq!(view.epoch(), epoch);
            for rec in view.records().expect("records intact") {
                standby.append_record(&rec);
                received += 1;
            }
        }
    }
    assert_eq!(decoder.finish(), Ok(()));
    received
}

/// Epoch fencing pin: an append stamped with a pre-takeover epoch is
/// refused with the typed [`WireError::Fenced`] error, counted in the
/// stats, and never written — and the bump itself is durable.
#[test]
fn stale_epoch_append_is_refused_with_typed_fenced_error() {
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create");
    assert_eq!(journal.epoch(), 1);
    journal.append("wh-0", ChangeOp::TenantOpen);

    // A tenant handle captures the epoch it was built under — this is
    // what a soon-to-be-fenced primary's commit pipeline holds.
    let stale_handle = TenantJournal::new(Arc::clone(&journal), "wh-0");
    assert_eq!(stale_handle.epoch(), 1);

    // Standby takeover.
    assert_eq!(journal.bump_epoch(), 2);
    assert_eq!(journal.epoch(), 2);

    // Direct stale append: typed refusal, nothing written.
    let before = journal.last_seq();
    let err = journal
        .append_at(1, "wh-0", ChangeOp::Advance { now: 7 })
        .unwrap_err();
    assert_eq!(
        err,
        WireError::Fenced {
            stale: 1,
            current: 2
        }
    );
    assert_eq!(journal.last_seq(), before);
    assert_eq!(journal.stats().fenced_appends, 1);

    // The pre-takeover handle is fenced the same way; it absorbs the
    // error (the pipeline must not die) but the refusal is counted and
    // the log stays untouched.
    stale_handle.advance(9, &[]);
    assert_eq!(journal.last_seq(), before);
    assert_eq!(journal.stats().fenced_appends, 2);

    // A current-epoch append still lands.
    assert!(journal
        .append_at(2, "wh-0", ChangeOp::Advance { now: 9 })
        .is_ok());
    assert_eq!(journal.last_seq(), before + 1);

    // The bump is durable: a reopened journal resumes at epoch 2 and a
    // fresh handle appends cleanly.
    journal.seal();
    drop(stale_handle);
    drop(journal);
    let (reopened, records, tail) = WalJournal::open_append(&scratch.0).expect("reopen");
    assert_eq!(tail, LogTail::Clean);
    assert_eq!(reopened.epoch(), 2);
    // The reopened watermark starts at the last record, and the sequence
    // resumes right after it.
    let last = records.last().map_or(0, |r| r.seq);
    assert_eq!(reopened.last_seq(), last);
    assert_eq!(reopened.stats().durable_seq, last);
    let fresh = TenantJournal::new(Arc::clone(&reopened), "wh-0");
    assert_eq!(fresh.epoch(), 2);
    fresh.advance(11, &[]);
    assert_eq!(reopened.last_seq(), last + 1);
}

/// Reconnect dedup pin: `append_record` skips records at or below the
/// standby's last sequence (duplicate delivery after a tail reconnect)
/// and accepts everything past it, preserving shipped sequence numbers.
#[test]
fn append_record_dedups_reconnect_overlap() {
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create");
    let rec = |seq: u64| ChangeRecord {
        seq,
        tenant: "wh-0".into(),
        op: ChangeOp::Advance { now: seq as u32 },
    };
    assert!(journal.append_record(&rec(1)));
    assert!(journal.append_record(&rec(2)));
    // Re-delivery of the already-applied overlap: skipped, not an error.
    assert!(!journal.append_record(&rec(1)));
    assert!(!journal.append_record(&rec(2)));
    // The stream resumes past the overlap.
    assert!(journal.append_record(&rec(3)));
    assert_eq!(journal.last_seq(), 3);
    journal.seal();
    let (records, tail) = read_log(&scratch.0).expect("reread");
    assert_eq!(tail, LogTail::Clean);
    assert_eq!(records, vec![rec(1), rec(2), rec(3)]);
}

/// The group-commit bound: over many sync cycles the watermark only
/// grows, never passes the last record, and every append returns with
/// fewer than `FSYNC_EVERY` records unsynced.
#[test]
fn appends_never_return_past_the_durability_bound() {
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create");
    let mut watermark = 0;
    for now in 0..(32 * FSYNC_EVERY as u32) {
        let seq = journal.append("wh-0", ChangeOp::Advance { now });
        let stats = journal.stats();
        assert!(stats.durable_seq >= watermark, "watermark went back");
        assert!(stats.durable_seq <= seq, "watermark passed the log");
        assert!(
            seq - stats.durable_seq < FSYNC_EVERY,
            "append {seq} returned with watermark {}",
            stats.durable_seq
        );
        watermark = stats.durable_seq;
    }
    let stats = journal.stats();
    assert!(stats.max_unsynced < FSYNC_EVERY, "{stats:?}");
    assert!(stats.fsyncs > 0);
    assert_eq!(stats.append_errors, 0);
}

/// `sync` and `seal` stay synchronous: each leaves the watermark at the
/// last record, however far below the cadence the log is.
#[test]
fn sync_and_seal_leave_the_watermark_at_the_last_record() {
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create");
    assert_eq!(journal.stats().durable_seq, 0);
    for now in 0..3 {
        journal.append("wh-0", ChangeOp::Advance { now });
    }
    journal.sync();
    assert_eq!(journal.stats().durable_seq, journal.last_seq());
    for now in 3..8 {
        journal.append("wh-0", ChangeOp::Advance { now });
    }
    journal.seal();
    assert_eq!(journal.stats().durable_seq, journal.last_seq());
    assert_eq!(journal.bump_epoch(), 2);
    assert_eq!(journal.stats().durable_seq, journal.last_seq());
}

/// Dropping a journal stops and joins its syncer: create → append → drop
/// cycles without `seal`, some past half the cadence so that a sync is in
/// flight or just asked for, all return.
#[test]
fn dropping_a_journal_joins_its_syncer() {
    let scratch = ScratchLog::new();
    for cycle in 0..64u32 {
        let journal = WalJournal::create(&scratch.0).expect("create");
        for now in 0..(cycle % 5) * 17 {
            journal.append("wh-0", ChangeOp::Advance { now });
        }
        drop(journal);
    }
}
