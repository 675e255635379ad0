//! Serializable load-run reports — the `BENCH_service.json` schema.
//!
//! One [`LoadReport`] per (scenario, rate) run; a [`ServiceBenchReport`]
//! bundles the runs of one invocation. The schema is versioned so the CI
//! artifact trail stays parseable as fields accrue.

use crate::loadgen::{LoadScenario, RawRun};
use crate::service::ServiceMetrics;
use crate::tenant::WireCounters;
use carp_warehouse::planner::EngineMetrics;
use carp_warehouse::request::RequestId;
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Current `BENCH_service.json` schema version.
///
/// v2: `service` gained `workers`, three win/retry/abort counters, and
/// the per-stage `queue_latency` / `commit_latency` summaries from the
/// multi-worker commit pipeline.
///
/// v3: runs are per-tenant — each gained `tenant` (the warehouse id the
/// run was served under) and `wire` (the tenant's frame/byte encode-decode
/// counters), now that all loadgen traffic flows through the wire
/// protocol.
///
/// v4: each run carries one engine block, `service.engine`, holding the
/// final post-shutdown view (the run-level `engine` duplicate is gone),
/// and `EngineMetrics` lost the probe-batch and eval-batch fields with the
/// parallel engine paths they described.
///
/// v5: `service` lost `workers` and the three win/retry/abort counters
/// with the multi-worker commit pipeline they described; every tenant is
/// served by one planning worker.
///
/// v6: `service` lost `queue_depth` and `in_flight` with the per-tenant
/// queue and worker they described; requests run to completion on the
/// thread that decoded them, so `queue_latency` is now the wait from frame
/// receipt to planning start and `rejected_backpressure` is always 0.
pub const BENCH_VERSION: u32 = 6;

/// Result of one load run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// Scenario label ("W-2" …).
    pub scenario: String,
    /// Warehouse id the run was served under on the daemon.
    pub tenant: String,
    /// Arrival-rate multiplier the day was compressed by.
    pub rate_multiplier: f64,
    /// Task-stream RNG seed.
    pub seed: u64,
    /// Tasks in the stream.
    pub tasks: usize,
    /// Tasks whose three legs all completed.
    pub completed: usize,
    /// Planning requests submitted (including retries).
    pub requests: usize,
    /// Leg requests abandoned after exhausting retries.
    pub failed_requests: usize,
    /// Requests refused by the service (deadline shed/overrun), before
    /// retries; rate-limit rejections are counted separately since those
    /// submissions never reached the tenant.
    pub refused_requests: usize,
    /// Submission attempts bounced by the connection's rate limit and
    /// retried.
    pub backpressure_retries: u64,
    /// Refusal rate over all submission attempts (see
    /// [`ServiceMetrics::refusal_rate`]).
    pub refusal_rate: f64,
    /// Audited conflicts across the committed route set (must be 0).
    pub audit_conflicts: usize,
    /// Makespan of the committed route set (sim-time).
    pub makespan: Time,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Planned routes per wall-clock second.
    pub throughput_rps: f64,
    /// FNV-1a digest over the final committed route set, sorted by request
    /// id — two runs with the same seed and rate must produce the same
    /// digest (the determinism pin the CI job checks).
    pub routes_digest: u64,
    /// Full service metrics snapshot (latency percentiles, refusal
    /// counters), fetched through the wire (`MetricsQuery`). Its `engine`
    /// block is the planner's final view, read after shutdown.
    pub service: ServiceMetrics,
    /// Per-tenant wire traffic: frames/bytes encoded and decoded for this
    /// tenant, plus protocol errors attributed to it.
    pub wire: WireCounters,
}

impl LoadReport {
    /// Assemble a report from a finished run's raw outcome and the
    /// tenant's metrics, fetched over the wire. `engine` is the planner's
    /// post-shutdown view; it replaces the last mid-run one the service
    /// snapshot carries.
    pub(crate) fn build(
        scenario: &LoadScenario,
        raw: &RawRun,
        mut service: ServiceMetrics,
        wire: WireCounters,
        engine: Option<EngineMetrics>,
    ) -> Self {
        service.engine = engine;
        let throughput_rps = if raw.wall_secs > 0.0 {
            service.planned as f64 / raw.wall_secs
        } else {
            0.0
        };
        LoadReport {
            scenario: scenario.name.clone(),
            tenant: scenario.name.clone(),
            rate_multiplier: scenario.rate_multiplier,
            seed: scenario.seed,
            tasks: scenario.tasks.len(),
            completed: raw.completed,
            requests: service.submitted as usize,
            failed_requests: raw.failed_requests,
            refused_requests: raw.refused_requests,
            backpressure_retries: raw.backpressure_retries,
            refusal_rate: service.refusal_rate(),
            audit_conflicts: raw.audit_conflicts,
            makespan: raw.makespan,
            wall_secs: raw.wall_secs,
            throughput_rps,
            routes_digest: routes_digest(&raw.final_routes),
            service,
            wire,
        }
    }
}

/// The `BENCH_service.json` top-level document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceBenchReport {
    /// Schema version ([`BENCH_VERSION`]).
    pub version: u32,
    /// One entry per (scenario, rate) run, in execution order.
    pub runs: Vec<LoadReport>,
}

impl ServiceBenchReport {
    /// Bundle runs under the current schema version.
    pub fn new(runs: Vec<LoadReport>) -> Self {
        ServiceBenchReport {
            version: BENCH_VERSION,
            runs,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report document.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Total audited conflicts across all runs (the CI gate).
    pub fn total_audit_conflicts(&self) -> usize {
        self.runs.iter().map(|r| r.audit_conflicts).sum()
    }
}

/// The `BENCH_service_recovery.json` document: one crash-recovery bench —
/// the same day driven three ways (WAL off, WAL on, kill + standby
/// takeover) so the WAL's commit-latency overhead and the recovery path's
/// bit-identity are measured side by side.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryBenchReport {
    /// Schema version (shares [`BENCH_VERSION`]).
    pub version: u32,
    /// Scenario label the three legs share.
    pub scenario: String,
    /// Sim time of the first burst the standby drove.
    pub killed_at: Time,
    /// Changeset records the standby replayed on takeover.
    pub records_replayed: usize,
    /// Bytes truncated off the injected torn tail (0 = clean log).
    pub torn_tail_dropped: u64,
    /// Standby-side journal stats at end of day.
    pub wal_stats: crate::wal::WalStats,
    /// All three legs committed the identical route set (the CI gate).
    pub digests_match: bool,
    /// Baseline leg: no journal attached.
    pub wal_off: LoadReport,
    /// WAL-on leg: journaled but uninterrupted.
    pub wal_on: LoadReport,
    /// Recovery leg: killed at `killed_at`, finished by the standby.
    /// Its service/wire metrics cover only the standby's half of the day.
    pub recovered: LoadReport,
    /// The primary's metrics scraped just before the kill (the other half
    /// of the recovery leg's serving record).
    pub primary: ServiceMetrics,
}

impl RecoveryBenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report document.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Audited conflicts summed over all three legs (the CI gate).
    pub fn total_audit_conflicts(&self) -> usize {
        self.wal_off.audit_conflicts + self.wal_on.audit_conflicts + self.recovered.audit_conflicts
    }
}

/// The `BENCH_service_replication.json` document: a kill-primary failover
/// **over the wire** — the same day driven twice, once uninterrupted
/// in-process (the digest reference) and once over real TCP against the
/// event-loop front-end with a network standby tailing the changeset log
/// live (`TailLog`/`LogChunk`); the primary is killed mid-day and the
/// standby, rebuilt purely from its shipped copy, serves the rest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicationBenchReport {
    /// Schema version (shares [`BENCH_VERSION`]).
    pub version: u32,
    /// Scenario label both legs share.
    pub scenario: String,
    /// Sim time of the first burst the standby drove.
    pub killed_at: Time,
    /// Changeset records the standby had received over the wire at
    /// takeover (its entire replay input).
    pub records_shipped: usize,
    /// Shipping lag at the kill signal: primary log sequence minus the
    /// highest sequence the standby had applied. With the driver paused at
    /// a burst boundary this is in-flight TCP only — near zero.
    pub staleness_records: u64,
    /// Wall-clock milliseconds from the kill signal until the standby was
    /// serving (audit + epoch bump + planner replay + re-listen).
    pub takeover_ms: f64,
    /// Leadership epoch the standby fenced the log to on takeover.
    pub takeover_epoch: u64,
    /// Stale-epoch appends the standby's journal refused after takeover
    /// (the resurrected-primary fence; the bench provokes at least one).
    pub fenced_appends: u64,
    /// The failover leg's committed route set is bit-identical to the
    /// uninterrupted baseline's (the CI gate).
    pub digests_match: bool,
    /// Uninterrupted in-process leg — the digest reference.
    pub baseline: LoadReport,
    /// Failover leg over TCP; its report spans the whole day, its
    /// service/wire metrics only the standby's half.
    pub replicated: LoadReport,
    /// The primary's metrics scraped just before the kill (the other half
    /// of the failover leg's serving record).
    pub primary: ServiceMetrics,
    /// Standby-side journal stats at end of day (shipped + appended).
    pub wal_stats: crate::wal::WalStats,
}

impl ReplicationBenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report document.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Audited conflicts summed over both legs (the CI gate).
    pub fn total_audit_conflicts(&self) -> usize {
        self.baseline.audit_conflicts + self.replicated.audit_conflicts
    }
}

/// Serializable snapshot of the mux reactor counters
/// ([`MuxMetrics`](crate::mux::MuxMetrics) on unix); lands in
/// `BENCH_service_mux.json`. Defined here rather than in the (unix-only)
/// `mux` module so reports stay parseable on every platform.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MuxCounters {
    /// Client sockets currently registered with a reactor.
    pub registered: u64,
    /// High-water mark of concurrently registered sockets.
    pub peak_registered: u64,
    /// Connections ever accepted.
    pub accepted: u64,
    /// `poll(2)` calls issued.
    pub polls: u64,
    /// `poll(2)` returns with at least one ready descriptor.
    pub wakeups: u64,
    /// Wakeups delivered through the self-pipe (ticket completions and
    /// acceptor nudges, as opposed to socket readiness).
    pub pipe_wakeups: u64,
    /// Socket drains that left a partial frame buffered in the decoder —
    /// frames reassembled across reads.
    pub partial_reads: u64,
    /// Flushes that could not push the whole write buffer out (short write
    /// or `EWOULDBLOCK`) — replies reassembled across writes by the peer.
    pub partial_writes: u64,
    /// Largest ready set a single `poll(2)` return delivered.
    pub max_ready_set: u64,
    /// Frames decoded from clients.
    pub frames_in: u64,
    /// Frames queued toward clients.
    pub frames_out: u64,
}

/// One rung of the connection ladder: the measured tenant's day driven over
/// one mux connection while `churn_connections` extra sockets hammer a
/// churn tenant on the same reactor pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConnLadderRung {
    /// Total concurrent connections held open during the driver's day
    /// (1 driver + churn).
    pub connections: usize,
    /// Churn connections (0 on the baseline rung).
    pub churn_connections: usize,
    /// Submit → ack latency observed by the driver connection, client-side
    /// (the acceptance metric: admission must not degrade with fan-in).
    pub driver_ack: crate::histogram::LatencySummary,
    /// Submit → ack latency observed across the churn connections.
    pub churn_ack: crate::histogram::LatencySummary,
    /// Requests the churn connections submitted (and cancelled).
    pub churn_requests: u64,
    /// Digest of the measured tenant's committed route set — must equal
    /// the legacy single-connection baseline digest at every rung.
    pub routes_digest: u64,
    /// Audited conflicts in the measured tenant's committed set (must be 0).
    pub audit_conflicts: usize,
    /// Wall-clock seconds for the rung.
    pub wall_secs: f64,
    /// Reactor counters accumulated during the rung.
    pub mux: MuxCounters,
}

/// The `BENCH_service_mux.json` document: a connection-count ladder over
/// the event-loop front-end, digest-gated against the same day driven
/// in-process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MuxBenchReport {
    /// Schema version (shares [`BENCH_VERSION`]).
    pub version: u32,
    /// Scenario label of the measured tenant's day.
    pub scenario: String,
    /// Reactor threads serving every rung.
    pub mux_threads: usize,
    /// Digest of the same day driven in-process through
    /// [`crate::ingest::serve_connection`] — the conformance reference.
    pub baseline_digest: u64,
    /// Every rung's digest equals `baseline_digest` (the CI gate).
    pub digests_match: bool,
    /// One entry per tested connection count, ascending.
    pub rungs: Vec<ConnLadderRung>,
}

impl MuxBenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report document.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Audited conflicts summed over all rungs (the CI gate).
    pub fn total_audit_conflicts(&self) -> usize {
        self.rungs.iter().map(|r| r.audit_conflicts).sum()
    }

    /// Worst driver ack p99 across rungs as a multiple of the first
    /// (1-connection) rung's p99 — the "within 2× of baseline" acceptance
    /// check. `None` with fewer than two rungs or a zero baseline.
    pub fn worst_driver_p99_ratio(&self) -> Option<f64> {
        let base = self.rungs.first()?.driver_ack.p99_us;
        if base == 0 || self.rungs.len() < 2 {
            return None;
        }
        self.rungs[1..]
            .iter()
            .map(|r| r.driver_ack.p99_us as f64 / base as f64)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

/// Order-independent digest of a committed route set: FNV-1a over
/// `(id, start, cells…)` of every route, visited in ascending id order.
pub fn routes_digest(routes: &HashMap<RequestId, Route>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut ids: Vec<&RequestId> = routes.keys().collect();
    ids.sort_unstable();
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for id in ids {
        let r = &routes[id];
        eat(*id);
        eat(u64::from(r.start));
        for c in &r.grids {
            eat((u64::from(c.row) << 32) | u64::from(c.col));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_warehouse::types::Cell;

    fn route(start: Time, cols: core::ops::Range<u16>) -> Route {
        Route::new(start, cols.map(|c| Cell::new(0, c)).collect())
    }

    #[test]
    fn digest_is_order_independent_but_content_sensitive() {
        let mut a = HashMap::new();
        a.insert(1u64, route(0, 0..5));
        a.insert(2u64, route(3, 5..9));
        let mut b = HashMap::new();
        b.insert(2u64, route(3, 5..9));
        b.insert(1u64, route(0, 0..5));
        assert_eq!(routes_digest(&a), routes_digest(&b));
        b.insert(3u64, route(7, 2..4));
        assert_ne!(routes_digest(&a), routes_digest(&b));
        let mut c = HashMap::new();
        c.insert(1u64, route(1, 0..5)); // shifted start
        c.insert(2u64, route(3, 5..9));
        assert_ne!(routes_digest(&a), routes_digest(&c));
    }

    #[test]
    fn empty_digest_is_stable() {
        assert_eq!(
            routes_digest(&HashMap::new()),
            routes_digest(&HashMap::new())
        );
    }
}
