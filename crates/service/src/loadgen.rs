//! Deterministic load generation: replay warehouse days through the
//! daemon's wire protocol and audit every committed route.
//!
//! The harness regenerates the simulator's three-leg task workflow
//! (pickup → transmission → return, nearest-free-robot assignment, retry
//! on infeasible) but speaks the daemon's **wire protocol** instead of
//! calling the planner — or even the in-process service API — directly:
//! every run registers its tenant(s) in a [`TenantRegistry`], connects a
//! [`WireClient`] over the in-process [`duplex`] transport, and drives the
//! whole day through framed submit/ack/plan-reply/advance traffic. The
//! measured path is the deployed path — admission, the tenant's commit
//! lock, deadlines, *and* wire encode/decode.
//!
//! Determinism: the request stream is a pure function of (layout, profile,
//! seed, multiplier), and submissions happen in lockstep bursts — all
//! requests sharing a sim-timestamp are submitted in sequence order (each
//! planned and acked by the ingest thread in frame order, which pins
//! admission order), then their replies are collected before the clock
//! moves. With deadlines
//! disabled the committed route set is bit-identical across runs and
//! transports ([`LoadReport::routes_digest`] pins it). With a deadline
//! set, refusals depend on wall-clock speed — that is the point of a
//! deadline — so overload runs trade the bit-determinism guarantee for
//! budget enforcement.
//!
//! Multi-tenancy: [`run_load_multi`] registers several tenants in **one**
//! registry and drives each day on its own connection thread,
//! concurrently. Tenants share nothing but CPU (each has its own planner
//! and commit lock), so each tenant's digest must equal its single-tenant
//! run's — the conformance property the two-tenant CI
//! smoke gates on.
//!
//! Every committed route is mirrored into an [`IncrementalAuditor`] the
//! moment its reply arrives, and the final route set is re-validated
//! batch-style, exactly like the batch simulator's audit. Route revisions
//! delivered by `advance` are re-audited (cancel, then recommit as one
//! batch); leg chaining keeps the originally planned end times, so the
//! harness is exact for non-revising planners (SRP, SAP, SIPP, ACP) and a
//! close approximation for TWP/RP.

use crate::histogram::LatencySummary;
use crate::ingest::{duplex, serve_connection, PipeReader, PipeWriter};
#[cfg(unix)]
use crate::mux::{serve_tcp_mux, MuxConfig, MuxMetrics};
use crate::report::LoadReport;
#[cfg(unix)]
use crate::report::{
    routes_digest, ConnLadderRung, MuxBenchReport, MuxCounters, ReplicationBenchReport,
    BENCH_VERSION,
};
use crate::service::{PlanResponse, ServiceConfig, ServiceMetrics};
use crate::tenant::{TenantRegistry, WireCounters};
#[cfg(unix)]
use crate::wal::TenantJournal;
use crate::wal::{self, ChangeRecord, LogTail, WalJournal, WalStats};
use crate::wire::{WireClient, WireError, WireSubmitError};
use carp_simenv::SimConfig;
use carp_warehouse::collision::{validate_routes, IncrementalAuditor};
use carp_warehouse::layout::Layout;
use carp_warehouse::planner::{Planner, ReplayPlanner};
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::tasks::{generate_tasks, DayProfile, Task};
use carp_warehouse::types::{Cell, Time};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
#[cfg(unix)]
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
#[cfg(unix)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A complete load scenario: the warehouse, the (already rate-compressed)
/// task stream, and the identity of the run. The scenario `name` doubles
/// as the tenant's [`WarehouseId`](crate::tenant::WarehouseId) on the
/// daemon.
#[derive(Clone)]
pub struct LoadScenario {
    /// Scenario label carried into the report ("W-2@4x" …) and used as the
    /// tenant id.
    pub name: String,
    /// The warehouse.
    pub layout: Layout,
    /// Task stream with compressed arrival times, sorted by arrival.
    pub tasks: Vec<Task>,
    /// The arrival-rate multiplier the stream was compressed by.
    pub rate_multiplier: f64,
    /// RNG seed the stream was generated from.
    pub seed: u64,
}

impl LoadScenario {
    /// Build a scenario over `layout`: `num_tasks` tasks drawn from the
    /// standard bimodal day profile over `horizon` seconds with `seed`,
    /// arrivals divided by `rate_multiplier`.
    pub fn new(
        name: impl Into<String>,
        layout: Layout,
        num_tasks: u32,
        horizon: Time,
        rate_multiplier: f64,
        seed: u64,
    ) -> Self {
        assert!(rate_multiplier > 0.0, "rate multiplier must be positive");
        let profile = DayProfile::new(horizon, num_tasks);
        let mut tasks = generate_tasks(&layout, &profile, seed);
        for t in &mut tasks {
            t.arrival = (t.arrival as f64 / rate_multiplier) as Time;
        }
        // Integer truncation preserves order, but re-assert the invariant.
        tasks.sort_by_key(|t| (t.arrival, t.id));
        LoadScenario {
            name: name.into(),
            layout,
            tasks,
            rate_multiplier,
            seed,
        }
    }
}

/// One tenant's slice of a multi-tenant run: its day plus the planner and
/// service configuration serving it.
pub struct TenantLoad<P> {
    /// The tenant's day; `scenario.name` is its warehouse id.
    pub scenario: LoadScenario,
    /// The planner serving this tenant.
    pub planner: P,
    /// Per-tenant service tuning (the deadline).
    pub service_cfg: ServiceConfig,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A task emerges: grab the nearest free robot or queue.
    Arrive { task: usize },
    /// Submit one leg's planning request (possibly a retry).
    Leg {
        task: usize,
        robot: usize,
        kind: QueryKind,
        attempt: u32,
    },
    /// The return leg finished: free the robot, serve the waiting queue.
    Complete { robot: usize },
}

struct RobotState {
    pos: Cell,
    busy: bool,
}

/// Raw outcome of one driven day, before it meets the metrics snapshot.
pub(crate) struct RawRun {
    pub(crate) final_routes: HashMap<RequestId, Route>,
    pub(crate) completed: usize,
    pub(crate) failed_requests: usize,
    pub(crate) refused_requests: usize,
    pub(crate) backpressure_retries: u64,
    pub(crate) audit_conflicts: usize,
    pub(crate) makespan: Time,
    pub(crate) wall_secs: f64,
    /// Client-side submit → ack latency of every accepted submission
    /// (per successful attempt; backoff sleeps are not counted).
    pub(crate) ack: LatencySummary,
}

/// Drive `planner` through a full load run of `scenario` on the planning
/// service, over the wire. Returns the report and the planner (recovered
/// from the registry after shutdown) for post-run inspection.
pub fn run_load<P: Planner + Send + 'static>(
    scenario: &LoadScenario,
    planner: P,
    sim: SimConfig,
    service_cfg: ServiceConfig,
) -> (LoadReport, P) {
    let registry = registry_for(scenario, planner, service_cfg, None);
    drive_in_process(&registry, scenario, &sim)
}

/// Like [`run_load`], with the registry journaling every
/// commit / cancel / advance into `wal` — the WAL-on leg of the recovery
/// bench. The tenant is drained through
/// [`TenantRegistry::remove`](crate::tenant::TenantRegistry::remove) at
/// the end, so the returned journal is sealed with a `TenantClose` record.
pub fn run_load_journaled<P: Planner + Send + 'static>(
    scenario: &LoadScenario,
    planner: P,
    sim: SimConfig,
    service_cfg: ServiceConfig,
    wal: Arc<WalJournal>,
) -> (LoadReport, P) {
    let registry = registry_for(scenario, planner, service_cfg, Some(wal));
    drive_in_process(&registry, scenario, &sim)
}

/// Outcome of a kill-primary / standby-takeover day.
#[derive(Debug)]
pub struct RecoveryRun {
    /// Report over the **whole** day — the client-side route mirror spans
    /// both halves, so `report.routes_digest` is directly comparable with
    /// an uninterrupted run's. Service/wire metrics in the report cover
    /// only the standby's half (the primary's died with it; see
    /// [`RecoveryRun::primary_metrics`]).
    pub report: LoadReport,
    /// Sim time of the first burst the standby drove.
    pub killed_at: Time,
    /// Changeset records the standby replayed to rebuild the planner.
    pub records_replayed: usize,
    /// Bytes the standby truncated off the torn tail (0 = clean log).
    pub torn_tail_dropped: u64,
    /// The primary's service metrics, scraped just before the kill.
    pub primary_metrics: ServiceMetrics,
    /// Journal stats at end of day (standby's journal: replayed + appended).
    pub wal_stats: WalStats,
}

/// Drive a day with the WAL on, **kill the primary daemon** at the first
/// burst boundary at or after sim time `kill_at`, and finish the day on a
/// **warm standby** rebuilt purely from the changeset log.
///
/// The kill is deliberately graceless: the client connection is dropped
/// and the primary's registry is abandoned without drain or seal, so the
/// log ends wherever the tenant last appended — exactly the disk image a
/// crash leaves (minus OS buffers, which `fsync_every` bounds).
/// With `torn_tail` set, a half-written record is appended on top to
/// simulate dying mid-`write`; the standby must truncate it and recover.
///
/// The standby takes over through [`wal::take_over`] — strict audit, then
/// planner replay into fresh planners from `make_planner` — re-registers
/// the tenant (appending a reopen `TenantOpen` to the same log), and
/// drives the rest of the day. Because a paused `DayDriver` has no
/// request in flight and every acked commit was journaled before its
/// reply, the standby's planner state is exactly the primary's at the
/// pause point — so with deadlines disabled the whole day's committed
/// route set is bit-identical to an uninterrupted run's.
pub fn run_load_recovery<P, F>(
    scenario: &LoadScenario,
    mut make_planner: F,
    sim: SimConfig,
    service_cfg: ServiceConfig,
    wal_path: &Path,
    kill_at: Time,
    torn_tail: bool,
) -> (RecoveryRun, P)
where
    P: ReplayPlanner + Send + 'static,
    F: FnMut() -> P,
{
    // ---- phase 1: the primary, driven to the kill point ----
    let journal = WalJournal::create(wal_path).expect("create changeset log");
    let primary = registry_for(scenario, make_planner(), service_cfg, Some(journal));
    let mut driver = DayDriver::new(scenario);
    let mut conn = PipeConn::open(&primary, &scenario.name);
    let (killed_at, primary_metrics) =
        driver.drive_to_kill(scenario, &mut conn.client, &sim, kill_at);
    // The kill: hang up and abandon the registry — no drain, no close
    // records, no seal.
    conn.close();
    drop(primary);

    if torn_tail {
        // A record header promising 64 payload bytes followed by 3: the
        // torn in-flight append of a crash mid-write. Its commit was never
        // acked, so truncating it loses nothing the client observed.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(wal_path)
            .expect("open log for tail corruption");
        f.write_all(&[64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3])
            .expect("append torn tail");
    }

    // ---- phase 2: the standby, rebuilt from the log alone ----
    let (journal, records, tail) = WalJournal::open_append(wal_path).expect("standby opens log");
    let torn_tail_dropped = match tail {
        LogTail::Torn { dropped_bytes, .. } => dropped_bytes,
        LogTail::Clean => 0,
    };
    let planner = standby_planner(scenario, &records, &mut make_planner);
    let standby = registry_for(scenario, planner, service_cfg, Some(Arc::clone(&journal)));
    let mut conn = PipeConn::open(&standby, &scenario.name);
    let metrics = driver.finish_day(scenario, &mut conn.client, &sim);
    conn.close();
    let (report, planner) = report_run(&standby, scenario, driver.finish(), metrics);
    (
        RecoveryRun {
            report,
            killed_at,
            records_replayed: records.len(),
            torn_tail_dropped,
            primary_metrics,
            wal_stats: journal.stats(),
        },
        planner,
    )
}

/// Drive a day over real TCP against the event-loop front-end with a
/// **network standby** tailing the changeset log live, kill the primary at
/// the first burst boundary at or after `kill_at`, and finish the day on
/// the standby — the `BENCH_service_replication.json` producer behind
/// `carp-service --replication`.
///
/// Two legs share the scenario:
///
/// * **baseline** — the same day uninterrupted, in-process; its digest is
///   the conformance reference.
/// * **replicated** — the primary serves over [`serve_tcp_mux`] journaling
///   to `wal_path`; a standby mirrors the log over TCP through
///   [`wal::follow`] into its own journal (`<wal_path>.standby`) as it
///   arrives. At the kill the standby holds a shipped copy of the log,
///   *received entirely over the wire* — the on-disk file is never shared.
///   Takeover: epoch bump (fencing any resurrected-primary handle),
///   [`wal::take_over`] on the shipped records, re-listen, and the paused
///   `DayDriver` resumes against it.
///
/// The kill is graceful-enough rather than graceless: the reactor's drain
/// flushes the shipping connection, so the standby's copy is the complete
/// appended prefix (the paused driver has nothing in flight; commits
/// resolved during the drain itself would not ship — that residue is what
/// `staleness_records` measures, at the kill signal). Because every acked
/// commit was journaled — and therefore shipped — before its reply, the
/// standby's planner state equals the primary's at the pause point, and
/// with deadlines disabled the whole day's committed route set is
/// bit-identical to the baseline's (`digests_match`, the CI gate).
///
/// The fence is provoked explicitly: a [`TenantJournal`]
/// handle captured under the primary epoch attempts an append after the
/// bump; the journal refuses and counts it (`fenced_appends`).
#[cfg(unix)]
pub fn run_load_replication<P, F>(
    scenario: &LoadScenario,
    mut make_planner: F,
    sim: SimConfig,
    service_cfg: ServiceConfig,
    mux_threads: usize,
    wal_path: &Path,
    kill_at: Time,
) -> ReplicationBenchReport
where
    P: ReplayPlanner + Send + 'static,
    F: FnMut() -> P,
{
    // ---- leg 1: the uninterrupted baseline, in-process ----
    let (baseline, _planner) = run_load(scenario, make_planner(), sim.clone(), service_cfg);

    // ---- leg 2, phase 1: the primary over TCP, with a live standby ----
    let journal = WalJournal::create(wal_path).expect("create changeset log");
    let journaling = Some(Arc::clone(&journal));
    let registry = registry_for(scenario, make_planner(), service_cfg, journaling);
    let primary = MuxServer::start(&registry, mux_threads);

    // The standby: its own TCP connection, its own journal file. Its
    // journal's last sequence is the highest one shipped, so the kill
    // point can measure shipping lag.
    let standby_path = {
        let mut os = wal_path.as_os_str().to_os_string();
        os.push(".standby");
        std::path::PathBuf::from(os)
    };
    let standby_journal = WalJournal::create(&standby_path).expect("create standby log");
    let tailer = {
        let journal = Arc::clone(&standby_journal);
        let addr = primary.addr;
        std::thread::Builder::new()
            .name("carp-repl-standby".into())
            .spawn(move || {
                let mut shipped = Vec::new();
                wal::follow(addr, &journal, &mut shipped).expect("standby log tail");
                shipped
            })
            .expect("spawn standby tail thread")
    };

    // Drive the day over TCP until the kill point.
    let mut client = primary.connect();
    let mut driver = DayDriver::new(scenario);
    let (killed_at, primary_metrics) = driver.drive_to_kill(scenario, &mut client, &sim, kill_at);

    // ---- the kill ----
    // Shipping lag is judged at the kill signal, before the drain flushes
    // anything further.
    let staleness_records = journal
        .last_seq()
        .saturating_sub(standby_journal.last_seq());
    let kill_instant = Instant::now();
    drop(client);
    primary.stop();
    let shipped = tailer.join().expect("standby tail thread panicked");
    // Abandon the primary registry without drain or seal — no close
    // records.
    drop(registry);

    // ---- leg 2, phase 2: takeover on the shipped copy alone ----
    // A handle under the primary's epoch, as a resurrected primary would
    // still hold...
    let stale_handle = TenantJournal::new(Arc::clone(&standby_journal), &scenario.name);
    let takeover_epoch = standby_journal.bump_epoch();
    // ...is fenced the moment the standby bumps: refused and counted,
    // never written.
    stale_handle.advance(killed_at, &[]);
    let planner = standby_planner(scenario, &shipped, &mut make_planner);
    let journaling = Some(Arc::clone(&standby_journal));
    let standby = registry_for(scenario, planner, service_cfg, journaling);
    let server = MuxServer::start(&standby, mux_threads);
    let takeover_ms = kill_instant.elapsed().as_secs_f64() * 1e3;

    // The paused driver resumes against the standby daemon.
    let mut client = server.connect();
    let metrics = driver.finish_day(scenario, &mut client, &sim);
    drop(client);
    server.stop();
    let (replicated, _planner) = report_run::<P>(&standby, scenario, driver.finish(), metrics);
    let wal_stats = standby_journal.stats();
    let digests_match = replicated.routes_digest == baseline.routes_digest;
    ReplicationBenchReport {
        version: BENCH_VERSION,
        scenario: scenario.name.clone(),
        killed_at,
        records_shipped: shipped.len(),
        staleness_records,
        takeover_ms,
        takeover_epoch,
        fenced_appends: wal_stats.fenced_appends,
        digests_match,
        baseline,
        replicated,
        primary: primary_metrics,
        wal_stats,
    }
}

/// Serve several tenants from **one** registry concurrently: each tenant's
/// day runs on its own connection + driver thread against the shared
/// daemon. Returns `(report, planner)` per tenant, in input order.
pub fn run_load_multi<P: Planner + Send + 'static>(
    tenants: Vec<TenantLoad<P>>,
    sim: SimConfig,
) -> Vec<(LoadReport, P)> {
    let registry = Arc::new(TenantRegistry::new());
    let scenarios: Vec<LoadScenario> = tenants
        .into_iter()
        .map(|t| {
            registry.register(t.scenario.name.clone(), t.planner, t.service_cfg);
            t.scenario
        })
        .collect();
    let handles: Vec<_> = scenarios
        .into_iter()
        .map(|scenario| {
            let registry = Arc::clone(&registry);
            let sim = sim.clone();
            std::thread::Builder::new()
                .name(format!("carp-load-{}", scenario.name))
                .spawn(move || drive_in_process::<P>(&registry, &scenario, &sim))
                .expect("spawn tenant driver")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("tenant driver panicked"))
        .collect()
}

/// One in-process wire connection to a registry, served by
/// [`serve_connection`] on its own thread.
struct PipeConn {
    client: WireClient<PipeReader, PipeWriter>,
    server: JoinHandle<Result<(), WireError>>,
}

impl PipeConn {
    fn open(registry: &Arc<TenantRegistry>, tenant: &str) -> Self {
        let ((client_read, client_write), (server_read, server_write)) = duplex();
        let registry = Arc::clone(registry);
        let server = std::thread::Builder::new()
            .name(format!("carp-ingest-{tenant}"))
            .spawn(move || serve_connection(&registry, server_read, server_write))
            .expect("spawn ingest thread");
        PipeConn {
            client: WireClient::new(client_read, client_write),
            server,
        }
    }

    /// Hang up: the ingest thread reads a clean EOF and ends.
    fn close(self) {
        drop(self.client);
        self.server
            .join()
            .expect("ingest thread panicked")
            .expect("connection ended with a protocol error");
    }
}

/// The event-loop front-end serving a registry on an ephemeral loopback
/// port, on its own acceptor thread.
#[cfg(unix)]
struct MuxServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<MuxMetrics>,
    thread: JoinHandle<std::io::Result<()>>,
}

#[cfg(unix)]
impl MuxServer {
    fn start(registry: &Arc<TenantRegistry>, threads: usize) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(MuxMetrics::default());
        let config = MuxConfig {
            threads,
            ..MuxConfig::default()
        };
        let (registry, flag, counters) = (
            Arc::clone(registry),
            Arc::clone(&shutdown),
            Arc::clone(&metrics),
        );
        let thread = std::thread::Builder::new()
            .name("carp-mux-accept".into())
            .spawn(move || serve_tcp_mux(listener, registry, flag, config, counters))
            .expect("spawn mux server");
        MuxServer {
            addr,
            shutdown,
            metrics,
            thread,
        }
    }

    fn connect(&self) -> WireClient<TcpStream, TcpStream> {
        WireClient::connect(self.addr).expect("connect to the mux server")
    }

    /// Stop accepting, let the reactors drain, join the server, and return
    /// its reactor counters.
    fn stop(self) -> MuxCounters {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .expect("mux server panicked")
            .expect("mux server exits clean");
        self.metrics.snapshot()
    }
}

/// Drive one tenant's whole day over an in-process connection to
/// `registry`, then take the tenant down and report.
fn drive_in_process<P: Planner + Send + 'static>(
    registry: &Arc<TenantRegistry>,
    scenario: &LoadScenario,
    sim: &SimConfig,
) -> (LoadReport, P) {
    let mut driver = DayDriver::new(scenario);
    let mut conn = PipeConn::open(registry, &scenario.name);
    let metrics = driver.finish_day(scenario, &mut conn.client, sim);
    conn.close();
    report_run(registry, scenario, driver.finish(), metrics)
}

/// A registry, journaling into `journal` when given, whose one tenant is
/// the scenario's, served by `planner`.
fn registry_for<P: Planner + Send + 'static>(
    scenario: &LoadScenario,
    planner: P,
    service_cfg: ServiceConfig,
    journal: Option<Arc<WalJournal>>,
) -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new());
    if let Some(journal) = journal {
        registry.attach_journal(journal);
    }
    registry.register(scenario.name.clone(), planner, service_cfg);
    registry
}

/// The standby's planner for the scenario's tenant: `records` audited and
/// replayed by [`wal::take_over`], or an empty one from `make_planner`
/// when the log never opened the tenant. Panics when the log fails its
/// audit.
fn standby_planner<P: ReplayPlanner>(
    scenario: &LoadScenario,
    records: &[ChangeRecord],
    make_planner: &mut impl FnMut() -> P,
) -> P {
    let mut planners =
        wal::take_over(records, |_| make_planner()).unwrap_or_else(|(tenant, conflict)| {
            panic!("changeset log fails audit for tenant {tenant}: {conflict:?}")
        });
    planners
        .remove(scenario.name.as_str())
        .unwrap_or_else(make_planner)
}

/// Shut the scenario's tenant down, recover its concrete planner from the
/// registry, and assemble the day's report from `raw` and the tenant's
/// final metrics.
fn report_run<P: Planner + 'static>(
    registry: &TenantRegistry,
    scenario: &LoadScenario,
    raw: RawRun,
    (metrics, wire): (ServiceMetrics, WireCounters),
) -> (LoadReport, P) {
    let planner = match registry
        .remove(&scenario.name)
        .expect("tenant registered by this run")
        .downcast::<P>()
    {
        Ok(planner) => *planner,
        Err(_) => panic!("tenant planner has the registered type"),
    };
    let report = LoadReport::build(scenario, &raw, metrics, wire, planner.engine_metrics());
    (report, planner)
}

/// Where a [`DayDriver::drive`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriveOutcome {
    /// The event heap drained: the day is over.
    Completed,
    /// A `stop` bound was hit *at a burst boundary* (every submitted
    /// request already has its reply); the day resumes from sim time `at`
    /// on the next [`DayDriver::drive`] call — possibly against a
    /// different daemon.
    Paused {
        /// Sim time of the first undriven burst.
        at: Time,
    },
}

/// The day-replay event loop as a **resumable** value: all client-side
/// state of a driven day (robot fleet, event heap, client auditor mirror,
/// counters) lives here rather than on one function's stack, so a day can
/// be driven partway against one daemon, paused at a burst boundary, and
/// finished against another — the primitive under the kill-primary /
/// standby-takeover recovery runs.
struct DayDriver {
    robots: Vec<RobotState>,
    /// (time, seq) heap with payload map, exactly the simulator's ordering.
    heap: BinaryHeap<core::cmp::Reverse<(Time, u64)>>,
    payloads: HashMap<u64, Event>,
    seq: u64,
    waiting: VecDeque<usize>,
    next_request_id: RequestId,
    final_routes: HashMap<RequestId, Route>,
    auditor: IncrementalAuditor,
    online_conflicts: usize,
    completed: usize,
    failed_requests: usize,
    refused_requests: usize,
    makespan: Time,
    backpressure_retries: u64,
    /// Wall time accumulated across `drive` calls.
    wall_secs: f64,
    /// Submit → ack round-trip of every accepted submission, measured
    /// client-side around the successful attempt (raw µs: the ladder's 2×
    /// latency gate needs exact order statistics, not histogram buckets).
    ack_us: Vec<u64>,
}

impl DayDriver {
    fn new(scenario: &LoadScenario) -> Self {
        let robots: Vec<RobotState> = scenario
            .layout
            .robot_spawns
            .iter()
            .map(|&pos| RobotState { pos, busy: false })
            .collect();
        assert!(!robots.is_empty(), "layout has no robots");
        let mut driver = DayDriver {
            robots,
            heap: BinaryHeap::new(),
            payloads: HashMap::new(),
            seq: 0,
            waiting: VecDeque::new(),
            next_request_id: 0,
            final_routes: HashMap::new(),
            auditor: IncrementalAuditor::new(),
            online_conflicts: 0,
            completed: 0,
            failed_requests: 0,
            refused_requests: 0,
            makespan: 0,
            backpressure_retries: 0,
            wall_secs: 0.0,
            ack_us: Vec::new(),
        };
        for (i, task) in scenario.tasks.iter().enumerate() {
            driver.push(task.arrival, Event::Arrive { task: i });
        }
        driver
    }

    fn push(&mut self, t: Time, e: Event) {
        self.heap.push(core::cmp::Reverse((t, self.seq)));
        self.payloads.insert(self.seq, e);
        self.seq += 1;
    }

    /// Give `task` the nearest free robot and schedule its pickup leg at
    /// `now`; `false` when every robot is busy.
    fn assign(&mut self, scenario: &LoadScenario, task: usize, now: Time) -> bool {
        let Some(robot) = nearest_free_robot(&self.robots, scenario.tasks[task].rack) else {
            return false;
        };
        self.robots[robot].busy = true;
        let leg = Event::Leg {
            task,
            robot,
            kind: QueryKind::Pickup,
            attempt: 0,
        };
        self.push(now, leg);
        true
    }

    /// Drive the rest of the day through `client`, then read the tenant's
    /// final metrics over the wire.
    fn finish_day<R: Read, W: Write>(
        &mut self,
        scenario: &LoadScenario,
        client: &mut WireClient<R, W>,
        sim: &SimConfig,
    ) -> (ServiceMetrics, WireCounters) {
        let outcome = self.drive(scenario, client, sim, None);
        debug_assert_eq!(outcome, DriveOutcome::Completed);
        client
            .metrics(&scenario.name)
            .expect("metrics over the wire")
    }

    /// Drive up to the first burst at or after `kill_at`, then scrape the
    /// primary's metrics just before the kill. Returns the sim time the
    /// standby resumes from, and those metrics.
    fn drive_to_kill<R: Read, W: Write>(
        &mut self,
        scenario: &LoadScenario,
        client: &mut WireClient<R, W>,
        sim: &SimConfig,
        kill_at: Time,
    ) -> (Time, ServiceMetrics) {
        let killed_at = match self.drive(scenario, client, sim, Some(kill_at)) {
            DriveOutcome::Paused { at } => at,
            // Day shorter than the kill point: nothing left for the
            // standby, but the takeover still runs (and must be a no-op).
            DriveOutcome::Completed => kill_at,
        };
        let (metrics, _) = client
            .metrics(&scenario.name)
            .expect("primary metrics before kill");
        (killed_at, metrics)
    }

    /// Drive bursts through `client` until the heap drains or the next
    /// burst's sim time reaches `stop`. Stopping happens *between* bursts,
    /// so a paused driver has no request in flight: every submission has
    /// been acked and its plan reply collected, which is exactly the
    /// prefix a standby can reconstruct from the changeset log.
    fn drive<R: Read, W: Write>(
        &mut self,
        scenario: &LoadScenario,
        client: &mut WireClient<R, W>,
        sim: &SimConfig,
        stop: Option<Time>,
    ) -> DriveOutcome {
        let tenant = scenario.name.as_str();
        let wall_start = Instant::now();
        while let Some(&core::cmp::Reverse((now, _))) = self.heap.peek() {
            if let Some(bound) = stop {
                if now >= bound {
                    self.wall_secs += wall_start.elapsed().as_secs_f64();
                    return DriveOutcome::Paused { at: now };
                }
            }
            // Clock moved: let the planner retire state (the engine's
            // batched remove_routes path) and deliver revisions before this
            // burst plans.
            let revisions = client.advance(tenant, now).expect("advance over the wire");
            if !revisions.is_empty() {
                // Revisions land as one atomic batch (see sim.rs): cancel
                // every revised route before recommitting any.
                for (rid, _) in &revisions {
                    self.auditor.cancel(*rid);
                }
                for (rid, route) in revisions {
                    self.makespan = self.makespan.max(route.finish_exclusive());
                    if self.auditor.commit(rid, &route).is_err() {
                        self.online_conflicts += 1;
                    }
                    self.final_routes.insert(rid, route);
                }
            }

            // Drain every event scheduled for `now`, in sequence order,
            // into one submission burst.
            let mut burst: Vec<(RequestId, usize, usize, QueryKind, u32)> = Vec::new();
            while let Some(&core::cmp::Reverse((t, _))) = self.heap.peek() {
                if t != now {
                    break;
                }
                let core::cmp::Reverse((_, id)) = self.heap.pop().expect("peeked");
                let event = self.payloads.remove(&id).expect("payload");
                match event {
                    Event::Arrive { task } => {
                        if !self.assign(scenario, task, now) {
                            self.waiting.push_back(task);
                        }
                    }
                    Event::Complete { robot } => {
                        self.robots[robot].busy = false;
                        self.completed += 1;
                        if let Some(next_task) = self.waiting.pop_front() {
                            if !self.assign(scenario, next_task, now) {
                                self.waiting.push_front(next_task);
                            }
                        }
                    }
                    Event::Leg {
                        task,
                        robot,
                        kind,
                        attempt,
                    } => {
                        let t = scenario.tasks[task];
                        let (origin, destination) = match kind {
                            QueryKind::Pickup => (self.robots[robot].pos, t.rack),
                            QueryKind::Transmission => (t.rack, t.picker),
                            QueryKind::Return => (t.picker, t.rack),
                        };
                        let rid = self.next_request_id;
                        self.next_request_id += 1;
                        let request = Request::new(rid, now, origin, destination, kind);
                        // Throttling: back off for the hinted delay and
                        // resubmit. The retry loop keeps submission order —
                        // there is exactly one submitter per connection and
                        // the daemon answers in frame order — so
                        // determinism survives rejection storms.
                        loop {
                            let attempt_start = Instant::now();
                            match client.submit(tenant, &request) {
                                Ok(()) => {
                                    self.ack_us.push(attempt_start.elapsed().as_micros() as u64);
                                    break;
                                }
                                Err(WireSubmitError::Throttled { retry_after }) => {
                                    self.backpressure_retries += 1;
                                    std::thread::sleep(retry_after);
                                }
                                Err(e) => unreachable!("submission refused mid-run: {e}"),
                            }
                        }
                        burst.push((rid, task, robot, kind, attempt));
                    }
                }
            }

            // Collect the burst's replies in submission order and schedule
            // the follow-up events.
            for (rid, task, robot, kind, attempt) in burst {
                match client.wait_plan(rid).expect("plan reply over the wire") {
                    PlanResponse::Planned(route) => {
                        self.makespan = self.makespan.max(route.finish_exclusive());
                        let end = route.end_time();
                        if self.auditor.commit(rid, &route).is_err() {
                            self.online_conflicts += 1;
                        }
                        self.final_routes.insert(rid, route);
                        let t = scenario.tasks[task];
                        let (pos, next) = match kind {
                            QueryKind::Pickup => (t.rack, Some(QueryKind::Transmission)),
                            QueryKind::Transmission => (t.picker, Some(QueryKind::Return)),
                            QueryKind::Return => (t.rack, None),
                        };
                        self.robots[robot].pos = pos;
                        match next {
                            Some(kind) => {
                                let leg = Event::Leg {
                                    task,
                                    robot,
                                    kind,
                                    attempt: 0,
                                };
                                self.push(end + sim.service_time, leg);
                            }
                            None => self.push(end, Event::Complete { robot }),
                        }
                    }
                    PlanResponse::ServiceDied => {
                        panic!("service died mid-run (planner panic)")
                    }
                    resp => {
                        // Refusals and infeasibilities share the retry
                        // path: the client backs off retry_delay
                        // sim-seconds and tries again, up to the shared
                        // SimConfig budget.
                        if resp.is_refusal() {
                            self.refused_requests += 1;
                        }
                        if attempt < sim.max_retries {
                            self.push(
                                now + sim.retry_delay,
                                Event::Leg {
                                    task,
                                    robot,
                                    kind,
                                    attempt: attempt + 1,
                                },
                            );
                        } else {
                            self.failed_requests += 1;
                            self.robots[robot].busy = false;
                        }
                    }
                }
            }
        }
        self.wall_secs += wall_start.elapsed().as_secs_f64();
        DriveOutcome::Completed
    }

    /// Close the books on a (fully driven) day: batch re-validation of the
    /// final (post-revision) set, like sim.rs — report whichever of the
    /// online and batch counts is worse.
    fn finish(mut self) -> RawRun {
        let ack = LatencySummary::from_samples_us(&mut self.ack_us);
        let routes: Vec<Route> = self.final_routes.values().cloned().collect();
        let audit_conflicts = match validate_routes(&routes) {
            None => self.online_conflicts,
            Some(_) => self.online_conflicts.max(1),
        };
        RawRun {
            final_routes: self.final_routes,
            completed: self.completed,
            failed_requests: self.failed_requests,
            refused_requests: self.refused_requests,
            backpressure_retries: self.backpressure_retries,
            audit_conflicts,
            makespan: self.makespan,
            wall_secs: self.wall_secs,
            ack,
        }
    }
}

fn nearest_free_robot(robots: &[RobotState], target: Cell) -> Option<usize> {
    robots
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.busy)
        .min_by_key(|(_, r)| r.pos.manhattan(target))
        .map(|(i, _)| i)
}

// ---------------------------------------------------------------------------
// Connection ladder over the event-loop front-end (unix only, like the mux).
// ---------------------------------------------------------------------------

/// Replay the scenario's day through the **event-loop front-end**
/// ([`serve_tcp_mux`]) while a rising ladder of churn connections holds the
/// reactors busy — the `BENCH_service_mux.json` producer behind
/// `carp-service --connections`.
///
/// Every entry in `connections` is one rung: the *total* number of sockets
/// held open while the measured tenant's day runs (1 driver + n−1 churn).
/// A 1-connection rung is always prepended as the latency baseline
/// ([`MuxBenchReport::worst_driver_p99_ratio`] is relative to it). Per
/// rung, a fresh registry gets two tenants:
///
/// * the **measured tenant** (`scenario.name`) — its whole day is driven
///   over one TCP connection by the same `DayDriver` the blocking-path
///   benches use, recording client-side submit → ack latency;
/// * a **churn tenant** (`{name}#churn`, its own planner and lock) —
///   hammered with submit → plan → cancel cycles by a handful of client
///   threads that each own a slice of the churn sockets, all opened before
///   the day starts and held open until it ends.
///
/// The conformance gate: the measured tenant's committed route set must be
/// bit-identical to the same day driven in-process ([`run_load`]), at
/// every rung —
/// per-tenant isolation plus per-connection admission order make fan-in
/// invisible to the digest. `digests_match` reports the conjunction.
#[cfg(unix)]
pub fn run_connection_ladder<P, F>(
    scenario: &LoadScenario,
    mut make_planner: F,
    sim: SimConfig,
    service_cfg: ServiceConfig,
    mux_threads: usize,
    connections: &[usize],
) -> MuxBenchReport
where
    P: Planner + Send + 'static,
    F: FnMut() -> P,
{
    // The conformance reference: the identical day, in-process.
    let (baseline, _planner) = run_load(scenario, make_planner(), sim.clone(), service_cfg);
    let baseline_digest = baseline.routes_digest;

    let mut ladder: Vec<usize> = vec![1];
    ladder.extend(connections.iter().copied().filter(|&n| n > 1));
    ladder.dedup();

    let mut rungs = Vec::with_capacity(ladder.len());
    let mut digests_match = true;
    for &total in &ladder {
        // A single run's p99 is one scheduler hiccup away from either
        // tail — on both sides of the ratio: run every rung three times
        // and keep the median-p99 run, so the reported ratio reflects
        // fan-in cost rather than which rung got lucky. Every repetition
        // still gates the digest.
        let mut candidates: Vec<ConnLadderRung> = (0..3)
            .map(|_| {
                let rung = ladder_rung(
                    scenario,
                    &mut make_planner,
                    &sim,
                    &service_cfg,
                    mux_threads,
                    total,
                );
                digests_match &= rung.routes_digest == baseline_digest;
                rung
            })
            .collect();
        candidates.sort_by_key(|r| r.driver_ack.p99_us);
        rungs.push(candidates.swap_remove(candidates.len() / 2));
    }
    MuxBenchReport {
        version: BENCH_VERSION,
        scenario: scenario.name.clone(),
        mux_threads,
        baseline_digest,
        digests_match,
        rungs,
    }
}

/// One rung: fresh registry + mux server, `total_conns - 1` churn sockets
/// opened and cycling before the measured day starts on its own socket.
#[cfg(unix)]
fn ladder_rung<P, F>(
    scenario: &LoadScenario,
    make_planner: &mut F,
    sim: &SimConfig,
    service_cfg: &ServiceConfig,
    mux_threads: usize,
    total_conns: usize,
) -> ConnLadderRung
where
    P: Planner + Send + 'static,
    F: FnMut() -> P,
{
    use std::sync::Barrier;

    let churn_conns = total_conns.saturating_sub(1);
    let churn_id = format!("{}#churn", scenario.name);

    let registry = Arc::new(TenantRegistry::new());
    registry.register(scenario.name.clone(), make_planner(), *service_cfg);
    if churn_conns > 0 {
        registry.register(churn_id.clone(), make_planner(), *service_cfg);
    }
    let server = MuxServer::start(&registry, mux_threads);
    let addr = server.addr;

    // Churn fan-in: a handful of client threads, each owning a slice of the
    // open sockets. The barrier guarantees every churn socket is connected
    // (registered with a reactor) before the measured day starts.
    let stop = Arc::new(AtomicBool::new(false));
    let threads = churn_conns.min(4);
    let ready = Arc::new(Barrier::new(threads + 1));
    let targets = Arc::new(churn_targets(scenario));
    let mut workers = Vec::with_capacity(threads);
    let mut next = 0usize;
    for t in 0..threads {
        let share = churn_conns / threads + usize::from(t < churn_conns % threads);
        let conns = next..next + share;
        next += share;
        let tenant = churn_id.clone();
        let targets = Arc::clone(&targets);
        let stop = Arc::clone(&stop);
        let ready = Arc::clone(&ready);
        workers.push(
            std::thread::Builder::new()
                .name(format!("carp-churn-{t}"))
                .spawn(move || churn_worker(addr, &tenant, &targets, conns, &stop, &ready))
                .expect("spawn churn worker"),
        );
    }
    ready.wait();

    // The measured tenant's whole day, over one connection.
    let mut client = server.connect();
    let mut driver = DayDriver::new(scenario);
    let outcome = driver.drive(scenario, &mut client, sim, None);
    debug_assert_eq!(outcome, DriveOutcome::Completed);
    drop(client);
    let raw = driver.finish();

    stop.store(true, Ordering::SeqCst);
    let mut churn_us: Vec<u64> = Vec::new();
    for w in workers {
        churn_us.extend(w.join().expect("churn worker panicked"));
    }
    let churn_requests = churn_us.len() as u64;
    let churn_ack = LatencySummary::from_samples_us(&mut churn_us);

    let mux = server.stop();
    registry.drain_all();

    ConnLadderRung {
        connections: total_conns,
        churn_connections: churn_conns,
        driver_ack: raw.ack,
        churn_ack,
        churn_requests,
        routes_digest: routes_digest(&raw.final_routes),
        audit_conflicts: raw.audit_conflicts,
        wall_secs: raw.wall_secs,
        mux,
    }
}

/// Origin/destination pairs for churn traffic, sampled from the scenario's
/// own layout so every churn request is plannable.
#[cfg(unix)]
fn churn_targets(scenario: &LoadScenario) -> Vec<(Cell, Cell)> {
    let spawns = &scenario.layout.robot_spawns;
    let mut targets: Vec<(Cell, Cell)> = scenario
        .tasks
        .iter()
        .take(32)
        .enumerate()
        .map(|(i, task)| (spawns[i % spawns.len()], task.rack))
        .collect();
    if targets.is_empty() {
        targets.push((spawns[0], spawns[spawns.len() - 1]));
    }
    targets
}

/// One churn thread: open every socket in `conns`, wait at the barrier,
/// then cycle submit → plan → cancel on each until `stop`. Request ids are
/// disjoint per connection (and live on the churn tenant, so they never
/// collide with the measured day). Returns the raw client-side submit →
/// ack samples, in microseconds, one per accepted submission.
#[cfg(unix)]
fn churn_worker(
    addr: SocketAddr,
    tenant: &str,
    targets: &[(Cell, Cell)],
    conns: std::ops::Range<usize>,
    stop: &AtomicBool,
    ready: &std::sync::Barrier,
) -> Vec<u64> {
    let mut clients: Vec<(usize, WireClient<TcpStream, TcpStream>, u64)> = conns
        .map(|idx| (idx, WireClient::connect(addr).expect("churn connect"), 0u64))
        .collect();
    ready.wait();

    // Cycle a small rotating batch per sweep rather than every socket:
    // the ladder's claim is *open sockets multiplexed on few threads*, so
    // every connection stays registered and sees traffic over the day,
    // while the instantaneous request rate stays low enough that churn
    // does not saturate the host (CI runners may have one core — churn at
    // full tilt would measure scheduler queueing, not the reactor).
    let mut samples = Vec::new();
    let mut cursor = 0usize;
    'churn: loop {
        let batch = clients.len().min(2);
        for _ in 0..batch {
            let slot = cursor % clients.len();
            cursor += 1;
            let (idx, client, k) = &mut clients[slot];
            if stop.load(Ordering::SeqCst) {
                break 'churn;
            }
            // Disjoint id space per connection; a churn socket cannot run
            // a million cycles in one day.
            let rid = (*idx as u64) * 1_000_000 + *k;
            let (origin, destination) = targets[(*idx + *k as usize) % targets.len()];
            let request = Request::new(rid, *k as Time, origin, destination, QueryKind::Pickup);
            loop {
                let attempt_start = Instant::now();
                match client.submit(tenant, &request) {
                    Ok(()) => {
                        samples.push(attempt_start.elapsed().as_micros() as u64);
                        break;
                    }
                    Err(WireSubmitError::Throttled { retry_after }) => {
                        std::thread::sleep(retry_after)
                    }
                    Err(e) => panic!("churn submission refused: {e}"),
                }
            }
            *k += 1;
            if let PlanResponse::Planned(_) = client.wait_plan(rid).expect("churn plan reply") {
                client.cancel(tenant, rid).expect("churn cancel");
            }
        }
        // Pace the sweep: the ladder measures open-socket fan-in, not
        // planner saturation — churn keeps every socket hot without
        // monopolizing the reactors the measured tenant shares.
        std::thread::sleep(std::time::Duration::from_millis(12));
    }
    samples
}
