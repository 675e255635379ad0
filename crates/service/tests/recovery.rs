//! Crash-recovery conformance: kill-primary takeover, revision replay,
//! graceful drain, rate limiting, and `ReproBundle` subsumption.
//!
//! The headline property: a day whose primary daemon dies mid-load and is finished by a warm standby rebuilt
//! purely from the changeset log must commit the **bit-identical** route
//! set an uninterrupted run commits — with zero audited collisions — even
//! when the log ends in a torn half-written record.

use carp_service::ingest::RateLimit;
use carp_service::loadgen::{run_load, run_load_recovery, LoadScenario};
use carp_service::service::ServiceConfig;
use carp_service::tenant::TenantRegistry;
use carp_service::wal::{self, read_log, ChangeOp, ChangeRecord, LogTail, ReplayState, WalJournal};
use carp_service::wire::{WireClient, WireError, WireSubmitError};
use carp_simenv::audit::ReproBundle;
use carp_simenv::SimConfig;
use carp_warehouse::collision::{ConflictKind, IncrementalAuditor};
use carp_warehouse::layout::LayoutConfig;
use carp_warehouse::planner::{PlanOutcome, Planner, ReplayPlanner};
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct ScratchLog(PathBuf);

impl ScratchLog {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        ScratchLog(
            std::env::temp_dir().join(format!("carp-recovery-test-{}-{n}.wal", std::process::id())),
        )
    }
}

impl Drop for ScratchLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Kill the primary halfway through a W-2 day (with a torn tail injected
/// on top) and finish on the standby: digest and audit must match the
/// uninterrupted WAL-off baseline bit-for-bit.
#[test]
fn standby_takeover_finishes_the_day_bit_identically() {
    let layout = carp_warehouse::layout::WarehousePreset::W2.generate();
    let scenario = LoadScenario::new("W-2@4x", layout.clone(), 60, 600, 4.0, 104);
    let sim = SimConfig::default();
    let cfg = ServiceConfig::default();
    let srp = || carp_srp::SrpPlanner::new(layout.matrix.clone(), carp_srp::SrpConfig::default());

    let (baseline, _) = run_load(&scenario, srp(), sim.clone(), cfg);
    assert_eq!(baseline.audit_conflicts, 0);

    let last_arrival = scenario.tasks.last().map_or(0, |t| t.arrival);
    let scratch = ScratchLog::new();
    let (rec, _) = run_load_recovery(
        &scenario,
        srp,
        sim,
        cfg,
        &scratch.0,
        last_arrival / 2,
        true, // torn tail: the standby must truncate a half-written record
    );

    assert!(rec.records_replayed > 0, "standby replayed nothing");
    assert!(
        rec.torn_tail_dropped > 0,
        "torn tail was not injected/dropped"
    );
    assert!(rec.killed_at >= last_arrival / 2);
    assert_eq!(rec.report.audit_conflicts, 0);
    assert_eq!(
        rec.report.routes_digest, baseline.routes_digest,
        "recovered day diverged from the uninterrupted baseline"
    );
    // Both halves served real traffic.
    assert!(rec.primary_metrics.planned > 0);
    assert!(rec.report.service.planned > 0);
    assert!(rec.wal_stats.appends > 0);
}

/// A deterministic planner that *revises* every active route on `advance`
/// — the windowed-TWP/RP behaviour. Each request parks on its own private
/// cell, so commits and revisions are always collision-free and the
/// journal's audit stays green.
#[derive(Default)]
struct RevisingPlanner {
    active: BTreeMap<RequestId, Route>,
}

fn park_route(id: RequestId, start: Time) -> Route {
    // Five ticks of waiting on a cell unique to this request id.
    Route::new(start, vec![Cell::new(id as u16, 0); 5])
}

impl Planner for RevisingPlanner {
    fn name(&self) -> &'static str {
        "revising-stub"
    }

    fn memory_bytes(&self) -> usize {
        self.active.len() * std::mem::size_of::<(RequestId, Route)>()
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let route = park_route(req.id, req.t);
        self.active.insert(req.id, route.clone());
        PlanOutcome::Planned(route)
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        self.active.retain(|_, r| r.end_time() >= now);
        self.active
            .iter_mut()
            .map(|(&id, r)| {
                *r = park_route(id, now);
                (id, r.clone())
            })
            .collect()
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        self.active.remove(&id).is_some()
    }
}

impl ReplayPlanner for RevisingPlanner {
    fn adopt(&mut self, id: RequestId, route: &Route) {
        self.active.insert(id, route.clone());
    }
}

/// Route revisions delivered by the tenant's `advance` land in the
/// changeset log as Revise records and replay into a standby planner with
/// the authoritative routes — covering the windowed-TWP/RP shape end to
/// end.
#[test]
fn revisions_are_journaled_and_replayed() {
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create journal");
    let registry = TenantRegistry::new();
    registry.attach_journal(Arc::clone(&journal));
    registry.register(
        "rev".to_string(),
        RevisingPlanner::default(),
        ServiceConfig::default(),
    );
    let tenant = registry.get("rev").expect("tenant registered");

    let submit = |id: u64, t: Time| {
        let req = Request::new(id, t, Cell::new(0, 0), Cell::new(1, 1), QueryKind::Pickup);
        tenant
            .submit(&req, Instant::now())
            .expect("submit accepted")
    };
    for id in 0..4u64 {
        assert!(matches!(
            submit(id, 0),
            carp_service::service::PlanResponse::Planned(_)
        ));
    }
    // All four routes end at t=4, so at now=2 each is still active and
    // the planner revises all of them.
    let revisions = tenant.advance(2);
    assert_eq!(revisions.len(), 4, "planner revises every active route");
    // The service must stay consistent after the revision batch: more
    // commits land on the revised state.
    for id in 10..12u64 {
        assert!(matches!(
            submit(id, 2),
            carp_service::service::PlanResponse::Planned(_)
        ));
    }
    assert_eq!(registry.drain_all(), 1);

    let (records, tail) = read_log(&scratch.0).expect("read log");
    assert_eq!(tail, LogTail::Clean);
    let revise_records = records
        .iter()
        .filter(|r| matches!(r.op, ChangeOp::Revise { .. }))
        .count();
    assert_eq!(revise_records, 4);
    wal::audit_log(&records).expect("journaled history is collision-free");

    // Replay everything before the close: counters and planner state must
    // reflect the revisions, with revised routes starting at now=2.
    let open_slice: Vec<_> = records
        .iter()
        .filter(|r| !matches!(r.op, ChangeOp::TenantClose))
        .cloned()
        .collect();
    let state = ReplayState::from_records(&open_slice);
    let t = &state.tenants["rev"];
    assert_eq!(t.committed, 6);
    assert_eq!(t.revised, 4);
    assert_eq!(t.now, 2);
    for id in 0..4u64 {
        assert_eq!(t.active[&id].1.start, 2, "request {id} not revised");
    }

    let planners = wal::take_over(&open_slice, |_| RevisingPlanner::default())
        .expect("journaled history passes the takeover audit");
    let recovered = &planners["rev"];
    assert_eq!(recovered.active.len(), 6);
    for id in 0..4u64 {
        assert_eq!(recovered.active[&id].start, 2);
    }
}

/// The standby's takeover refuses a log that certifies a collision: two
/// commits that hold the same cell at the same tick fail the audit, and
/// no planner is rebuilt from the log.
#[test]
fn takeover_refuses_a_log_whose_audit_fails_and_rebuilds_nothing() {
    let record = |seq: u64, op: ChangeOp| ChangeRecord {
        seq,
        tenant: "w".to_string(),
        op,
    };
    let commit = |id: RequestId| ChangeOp::Commit {
        request: Request::new(id, 0, Cell::new(3, 3), Cell::new(3, 3), QueryKind::Pickup),
        route: Route::new(0, vec![Cell::new(3, 3); 4]),
    };
    let records = vec![
        record(1, ChangeOp::TenantOpen),
        record(2, commit(1)),
        record(3, commit(2)),
    ];
    let mut built = 0;
    let refused = wal::take_over(&records, |_| {
        built += 1;
        RevisingPlanner::default()
    });
    let Err((tenant, conflict)) = refused else {
        panic!("a colliding log must fail the takeover audit");
    };
    assert_eq!(tenant, "w");
    assert_eq!(conflict.kind, ConflictKind::Vertex);
    assert_eq!(conflict.cell, Cell::new(3, 3));
    assert_eq!((conflict.existing, conflict.incoming), (1, 2));
    assert_eq!(built, 0, "no planner may be rebuilt from a refused log");
}

/// Graceful drain: every tenant shut down in order, open/close bracketed
/// in the log, log sealed clean.
#[test]
fn drain_all_closes_tenants_and_seals_the_log() {
    let scratch = ScratchLog::new();
    let journal = WalJournal::create(&scratch.0).expect("create journal");
    let registry = TenantRegistry::new();
    registry.attach_journal(Arc::clone(&journal));
    registry.register(
        "a".to_string(),
        RevisingPlanner::default(),
        ServiceConfig::default(),
    );
    registry.register(
        "b".to_string(),
        RevisingPlanner::default(),
        ServiceConfig::default(),
    );
    let req = Request::new(7, 0, Cell::new(0, 0), Cell::new(1, 1), QueryKind::Pickup);
    registry
        .get("a")
        .expect("tenant a")
        .submit(&req, Instant::now())
        .expect("submit");

    assert_eq!(registry.drain_all(), 2);
    assert!(registry.get("a").is_none());
    assert!(registry.get("b").is_none());

    let (records, tail) = read_log(&scratch.0).expect("read sealed log");
    assert_eq!(tail, LogTail::Clean);
    let opens = records
        .iter()
        .filter(|r| matches!(r.op, ChangeOp::TenantOpen))
        .count();
    let closes = records
        .iter()
        .filter(|r| matches!(r.op, ChangeOp::TenantClose))
        .count();
    assert_eq!((opens, closes), (2, 2));
    // Drained history replays to the empty state: nothing left open.
    assert!(ReplayState::from_records(&records).tenants.is_empty());
}

/// Rate limiting on the event-loop front-end: the bucket refuses the
/// frame *with a typed verdict* — a Throttled *ack* with a retry hint for
/// submits, a Throttled error reply for control frames — and the session
/// survives to work again once the bucket refills.
#[cfg(unix)]
#[test]
fn mux_rate_limited_connection_gets_typed_refusals_then_recovers() {
    use carp_service::{serve_tcp_mux, MuxConfig, MuxMetrics};
    use std::sync::atomic::AtomicBool;

    let registry = Arc::new(TenantRegistry::new());
    registry.register(
        "rl".to_string(),
        RevisingPlanner::default(),
        ServiceConfig::default(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        let config = MuxConfig {
            threads: 1,
            rate_limit: Some(RateLimit {
                burst: 1,
                per_sec: 40.0,
            }),
            ..MuxConfig::default()
        };
        std::thread::spawn(move || {
            serve_tcp_mux(
                listener,
                registry,
                shutdown,
                config,
                Arc::new(MuxMetrics::default()),
            )
        })
    };
    let mut client = WireClient::connect(addr).expect("connect");

    let req = |id: u64| Request::new(id, 0, Cell::new(0, 0), Cell::new(1, 1), QueryKind::Pickup);
    client
        .submit("rl", &req(1))
        .expect("first submit fits the burst");
    let retry_after = match client.submit("rl", &req(2)) {
        Err(WireSubmitError::Throttled { retry_after }) => retry_after,
        other => panic!("expected Throttled over the mux, got {other:?}"),
    };
    assert!(retry_after >= RateLimit::MIN_RETRY_AFTER);
    match client.advance("rl", 1) {
        Err(WireError::Throttled) => {}
        other => panic!("expected WireError::Throttled over the mux, got {other:?}"),
    }
    std::thread::sleep(retry_after + std::time::Duration::from_millis(100));
    client.submit("rl", &req(2)).expect("submit after refill");
    client.wait_plan(1).expect("reply for request 1");
    client.wait_plan(2).expect("reply for request 2");
    drop(client);
    shutdown.store(true, Ordering::SeqCst);
    server
        .join()
        .expect("server thread")
        .expect("mux exits clean");
    registry.drain_all();
}

/// SIGTERM lands while clients are mid-churn against the event-loop
/// daemon: the process must stop accepting, drain every tenant, seal the
/// changeset log with a clean tail, and exit 0. Spawned directly (no
/// shell) so the signal hits the daemon pid itself.
#[cfg(unix)]
#[test]
fn sigterm_mid_churn_drains_every_tenant_and_seals_the_wal() {
    use carp_service::service::PlanResponse;
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    use std::sync::atomic::AtomicUsize;

    let scratch = ScratchLog::new();
    let mut child = Command::new(env!("CARGO_BIN_EXE_carp-service"))
        .args(["--listen", "127.0.0.1:0", "--tenants", "W-1"])
        .args(["--mux-threads", "2", "--wal"])
        .arg(&scratch.0)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn carp-service daemon");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).expect("daemon stderr"),
            0,
            "daemon exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("carp-service: listening on ") {
            break rest.parse::<std::net::SocketAddr>().expect("bound address");
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe; the
    // collected tail carries the drain/seal message we assert on.
    let stderr_tail = std::thread::spawn(move || {
        let mut tail = String::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            tail.push_str(&line);
            line.clear();
        }
        tail
    });

    // Valid endpoints for the W-1 tenant: spawn cells to rack cells.
    let layout = carp_warehouse::layout::WarehousePreset::W1.generate();
    let scenario = LoadScenario::new("W-1@1x", layout, 8, 40, 1.0, 7);
    let targets: Vec<(Cell, Cell)> = scenario
        .tasks
        .iter()
        .take(16)
        .enumerate()
        .map(|(i, task)| {
            let spawns = &scenario.layout.robot_spawns;
            (spawns[i % spawns.len()], task.rack)
        })
        .collect();

    let connect_client = || WireClient::connect(addr).expect("connect to daemon");
    // Guarantee journaled commits before the signal fires.
    let mut warm = connect_client();
    for id in 0..3u64 {
        let (origin, destination) = targets[id as usize % targets.len()];
        let request = Request::new(id, 0, origin, destination, QueryKind::Pickup);
        warm.submit("W-1", &request).expect("warm-up submit");
        match warm.wait_plan(id).expect("warm-up plan") {
            PlanResponse::Planned(_) => {}
            other => panic!("warm-up request {id} refused: {other:?}"),
        }
    }

    // Churn: two clients submitting as fast as they can until the drain
    // closes their sockets out from under them.
    let committed_mid_churn = Arc::new(AtomicUsize::new(0));
    let churners: Vec<_> = (0..2u64)
        .map(|c| {
            let mut client = connect_client();
            let targets = targets.clone();
            let committed = Arc::clone(&committed_mid_churn);
            std::thread::spawn(move || {
                for k in 0.. {
                    let id = 1_000 * (c + 1) + k;
                    let (origin, destination) = targets[(id as usize) % targets.len()];
                    let request = Request::new(id, 0, origin, destination, QueryKind::Pickup);
                    match client.submit("W-1", &request) {
                        Ok(()) => {}
                        Err(WireSubmitError::Backpressure { retry_after, .. })
                        | Err(WireSubmitError::Throttled { retry_after }) => {
                            std::thread::sleep(retry_after);
                            continue;
                        }
                        Err(_) => return, // daemon is draining; done
                    }
                    match client.wait_plan(id) {
                        Ok(PlanResponse::Planned(_)) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {}
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();
    // Let the churn run long enough to have work genuinely in flight.
    while committed_mid_churn.load(Ordering::Relaxed) < 4 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let status = child.wait().expect("daemon exit status");
    assert_eq!(status.code(), Some(0), "daemon must exit 0 after SIGTERM");
    for churner in churners {
        churner.join().expect("churn client thread");
    }
    let tail = stderr_tail.join().expect("stderr drain thread");
    assert!(
        tail.contains("drained 1 tenant(s), log sealed"),
        "daemon stderr missing drain/seal message:\n{tail}"
    );

    // The changeset log must be sealed: clean tail, open/close bracketed,
    // and the mid-churn commits journaled inside the bracket.
    let (records, log_tail) = read_log(&scratch.0).expect("read sealed log");
    assert_eq!(log_tail, LogTail::Clean, "WAL tail not sealed clean");
    let opens = records
        .iter()
        .filter(|r| matches!(r.op, ChangeOp::TenantOpen))
        .count();
    let closes = records
        .iter()
        .filter(|r| matches!(r.op, ChangeOp::TenantClose))
        .count();
    assert_eq!((opens, closes), (1, 1), "tenant open/close not bracketed");
    let commits = records
        .iter()
        .filter(|r| matches!(r.op, ChangeOp::Commit { .. }))
        .count();
    assert!(
        commits >= 3 + committed_mid_churn.load(Ordering::Relaxed),
        "journal is missing commits: {commits} recorded"
    );
    wal::audit_log(&records).expect("sealed history is collision-free");
    assert!(ReplayState::from_records(&records).tenants.is_empty());
}

/// The changeset log subsumes `ReproBundle`: the pinned seed-104 fixture
/// still replays directly, and a bundle derived from a journaled log
/// slice replays the same way (same request stream, same audit verdict).
#[test]
fn seed_104_bundle_replays_directly_and_from_a_log_slice() {
    let bundle = ReproBundle::from_json(include_str!("../../srp/tests/fixtures/seed_104.json"))
        .expect("fixture parses");

    // Direct replay: plan every request in order, audit every commit —
    // the historical conflict stays fixed.
    let replay = |layout_cfg: LayoutConfig, requests: &[Request]| -> usize {
        let layout = layout_cfg.generate();
        let mut planner = carp_srp::SrpPlanner::new(layout.matrix, carp_srp::SrpConfig::default());
        let mut auditor = IncrementalAuditor::new();
        let mut planned = 0usize;
        for req in requests {
            if let PlanOutcome::Planned(route) = planner.plan(req) {
                auditor
                    .commit(req.id, &route)
                    .expect("replayed commit is collision-free");
                planned += 1;
            }
        }
        planned
    };
    let direct = replay(bundle.layout.clone(), &bundle.requests);
    assert!(direct > 0, "fixture replay planned nothing");

    // Log-slice conversion: journal the same day, derive a bundle from
    // the log, and replay that — identical request stream, same verdict.
    let scratch = ScratchLog::new();
    {
        let journal = WalJournal::create(&scratch.0).expect("create journal");
        let layout = bundle.layout.generate();
        let mut planner = carp_srp::SrpPlanner::new(layout.matrix, carp_srp::SrpConfig::default());
        let tj = carp_service::wal::TenantJournal::new(journal, "seed-104");
        tj.open();
        for req in &bundle.requests {
            if let PlanOutcome::Planned(route) = planner.plan(req) {
                tj.commit(req, &route);
            }
        }
        tj.close();
    }
    let (records, tail) = read_log(&scratch.0).expect("read journaled day");
    assert_eq!(tail, LogTail::Clean);
    let derived = wal::bundle_from_log(bundle.layout, &records, "seed-104");
    assert_eq!(derived.requests.len(), direct);
    // The derived bundle survives its own serialization format…
    let rejson = ReproBundle::from_json(&derived.to_json()).expect("derived bundle round-trips");
    // …and replays exactly like the original fixture's surviving stream.
    assert_eq!(replay(rejson.layout, &rejson.requests), direct);
}
