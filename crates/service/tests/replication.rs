//! Live-shipping failover conformance: kill the primary daemon mid-day
//! over TCP and finish on a standby fed *only* by the wire (`TailLog` /
//! `LogChunk` frames) — never by reading the primary's file.
//!
//! The headline property mirrors crash recovery's: the failover day's
//! committed route set must be **bit-identical** to an uninterrupted
//! run's, with zero audited collisions — and the takeover must actually
//! arm the epoch fence (a stale pre-takeover append is refused and
//! counted, proving a resurrected primary could not corrupt the log).
//! A standby that never subscribes must not take over at all.
#![cfg(unix)]

use carp_service::loadgen::{run_load_replication, LoadScenario};
use carp_service::service::ServiceConfig;
use carp_service::wal::{self, WalJournal};
use carp_simenv::SimConfig;
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::LayoutConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct ScratchLog(PathBuf);

impl ScratchLog {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        ScratchLog(std::env::temp_dir().join(format!(
            "carp-replication-test-{}-{n}.wal",
            std::process::id()
        )))
    }
}

impl Drop for ScratchLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut standby = self.0.clone().into_os_string();
        standby.push(".standby");
        let _ = std::fs::remove_file(PathBuf::from(standby));
    }
}

#[test]
fn network_standby_takeover_finishes_the_day_bit_identically() {
    let layout = LayoutConfig::small().generate();
    let scenario = LoadScenario::new("small@2x", layout.clone(), 40, 400, 2.0, 17);
    let last_arrival = scenario.tasks.last().map_or(0, |t| t.arrival);
    let cfg = ServiceConfig::default();
    let srp = || SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());

    let scratch = ScratchLog::new();
    let report = run_load_replication(
        &scenario,
        srp,
        SimConfig::default(),
        cfg,
        2,
        &scratch.0,
        last_arrival / 2,
    );

    // The failover day committed exactly what the uninterrupted day did.
    assert!(
        report.digests_match,
        "failover day diverged from the uninterrupted baseline"
    );
    assert_eq!(report.total_audit_conflicts(), 0);

    // The standby was fed over the wire and took over mid-day.
    assert!(report.records_shipped > 0, "nothing shipped over the wire");
    assert!(report.killed_at >= last_arrival / 2);
    assert!(report.takeover_ms >= 0.0);

    // Takeover armed the fence: epoch bumped, and the provoked
    // stale-epoch append was refused and counted, not written.
    assert_eq!(report.takeover_epoch, 2);
    assert!(
        report.fenced_appends > 0,
        "stale-epoch append was not refused (fence inactive)"
    );

    // Both halves served real traffic.
    assert!(report.primary.planned > 0, "primary planned nothing");
    assert!(report.replicated.service.planned > 0);
    assert!(report.wal_stats.appends > 0);
}

/// A standby whose primary never answers is refused, not promoted:
/// `follow` to an address nobody listens on retries for a while, then
/// returns an error with nothing shipped, the standby's journal empty and
/// its epoch unbumped.
#[test]
fn follow_with_nothing_shipped_is_an_error() {
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("local addr")
    };
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create standby log");
    let mut shipped = Vec::new();
    let started = Instant::now();
    assert!(wal::follow(addr, &journal, &mut shipped).is_err());
    // It retried for a while instead of giving up at the first refusal.
    assert!(started.elapsed() >= Duration::from_secs(1));
    assert!(shipped.is_empty());
    assert_eq!(journal.last_seq(), 0);
    assert_eq!(journal.epoch(), 1);
}
