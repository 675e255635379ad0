//! The deadline path. Against the *real* SRP planner: an over-budget plan
//! must be cancelled post-commit, and that cancel must actually retire the
//! route's segments from the segment-store engine — otherwise every
//! refused request would leak phantom traffic that blocks later robots.
//! Over the wire: a request that spends its budget waiting for its
//! tenant's lock is shed without being planned.

use carp_service::ingest::{duplex, serve_connection};
use carp_service::service::{PlanResponse, ServiceConfig};
use carp_service::tenant::TenantRegistry;
use carp_service::wire::WireClient;
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::{Layout, LayoutConfig};
use carp_warehouse::request::RequestId;
use carp_warehouse::types::{Cell, Time};
use carp_warehouse::{PlanOutcome, Planner, QueryKind, Request, Route};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A real SRP planner whose `plan` is artificially slow — every other
/// operation (cancel, retirement, metrics) is the production code path,
/// which is the point: the test checks that the service's post-commit
/// cancel drives real segment retirement, not a stub's bookkeeping.
struct SlowSrp {
    inner: SrpPlanner,
    delay: Duration,
}

impl Planner for SlowSrp {
    fn name(&self) -> &'static str {
        "slow-srp"
    }
    fn plan(&mut self, req: &Request) -> PlanOutcome {
        std::thread::sleep(self.delay);
        self.inner.plan(req)
    }
    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        self.inner.advance(now)
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn provenance(&self, id: RequestId) -> Option<String> {
        self.inner.provenance(id)
    }
    fn cancel(&mut self, id: RequestId) -> bool {
        self.inner.cancel(id)
    }
    fn engine_metrics(&self) -> Option<carp_warehouse::EngineMetrics> {
        self.inner.engine_metrics()
    }
}

fn small_layout() -> Layout {
    LayoutConfig::small().generate()
}

fn a_request(id: RequestId, layout: &Layout) -> Request {
    let free: Vec<Cell> = layout
        .matrix
        .cells()
        .filter(|&c| layout.matrix.is_free(c))
        .collect();
    Request::new(id, 0, free[0], free[free.len() - 1], QueryKind::Pickup)
}

fn take_slow(registry: &TenantRegistry) -> SlowSrp {
    *registry
        .remove("slow")
        .expect("registered")
        .downcast::<SlowSrp>()
        .expect("slow SRP planner")
}

/// Over-budget plan → `DeadlineOverrun`, and the cancelled route's
/// segments are gone from the engine: the planner is bit-equivalent to a
/// twin that never saw the request.
#[test]
fn deadline_overrun_retires_segments_from_engine() {
    let layout = small_layout();
    let slow = SlowSrp {
        inner: SrpPlanner::new(layout.matrix.clone(), SrpConfig::default()),
        delay: Duration::from_millis(200),
    };
    let config = ServiceConfig {
        deadline: Some(Duration::from_millis(50)),
        ..ServiceConfig::default()
    };
    let registry = TenantRegistry::new();
    let tenant = registry.register("slow", slow, config);

    // The request is planned the moment it is received, so the budget is
    // blown *inside* `plan` — the post-commit cancel path. If a slow CI
    // host sheds it before planning instead, resubmit: either way the
    // route must never survive.
    let mut response = PlanResponse::DeadlineShed;
    let mut id = 0;
    for attempt in 0..5u64 {
        id = attempt;
        response = tenant
            .submit(&a_request(id, &layout), Instant::now())
            .expect("tenant is live");
        if response != PlanResponse::DeadlineShed {
            break;
        }
    }
    assert_eq!(
        response,
        PlanResponse::DeadlineOverrun,
        "a 200ms plan under a 50ms budget must overrun"
    );

    // The tenant publishes its engine-metrics snapshot after every
    // request; the tenant handle stays readable after removal.
    let slow = take_slow(&registry);
    let metrics = tenant.metrics();
    assert_eq!(metrics.cancelled_deadline, 1);
    assert_eq!(metrics.planned, 0);
    let engine = metrics.engine.expect("SRP publishes engine metrics");
    assert_eq!(
        engine.soft_bookings, 0,
        "the cancel path must release cleanly, never book optimistically"
    );
    assert_eq!(
        engine.window_debt, 0,
        "nothing to promote, nothing past due"
    );

    assert_eq!(
        slow.inner.total_segments(),
        0,
        "cancelled route left segments in the store engine"
    );
    // The cancel is gone without trace: replanning the same request on the
    // supposedly-clean planner and on a genuinely fresh twin must produce
    // the identical route.
    let mut reused = slow.inner;
    let mut twin = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let req = a_request(id + 1, &layout);
    assert_eq!(
        reused.plan(&req),
        twin.plan(&req),
        "residual state diverged from a fresh planner"
    );
}

/// Control: with deadlines disabled the identical slow plan commits, and
/// its segments persist in the engine — proving the retirement asserted
/// above is driven by the cancel, not by shutdown or retirement timers.
#[test]
fn without_deadline_slow_plan_commits_and_segments_persist() {
    let layout = small_layout();
    let slow = SlowSrp {
        inner: SrpPlanner::new(layout.matrix.clone(), SrpConfig::default()),
        delay: Duration::from_millis(100),
    };
    let config = ServiceConfig {
        deadline: None,
        ..ServiceConfig::default()
    };
    let registry = TenantRegistry::new();
    let tenant = registry.register("slow", slow, config);
    let response = tenant
        .submit(&a_request(0, &layout), Instant::now())
        .expect("tenant is live");
    assert!(
        response.route().is_some(),
        "deadline-free slow plan must commit, got {response:?}"
    );

    let metrics = tenant.metrics();
    assert_eq!(metrics.planned, 1);
    assert_eq!(metrics.cancelled_deadline, 0);

    let slow = take_slow(&registry);
    assert!(
        slow.inner.total_segments() > 0,
        "committed route must keep its segments reserved"
    );
}

/// A stub whose first `plan` announces itself and then blocks until the
/// test opens the gate; it records every request it plans.
struct GatedStub {
    gate: Arc<(Mutex<Gate>, Condvar)>,
    planned: Vec<RequestId>,
}

#[derive(Default)]
struct Gate {
    entered: bool,
    open: bool,
}

impl Planner for GatedStub {
    fn name(&self) -> &'static str {
        "gated-stub"
    }
    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let (lock, cv) = &*self.gate;
        let mut gate = lock.lock().unwrap();
        gate.entered = true;
        cv.notify_all();
        while !gate.open {
            gate = cv.wait(gate).unwrap();
        }
        self.planned.push(req.id);
        PlanOutcome::Planned(Route::stationary(req.t, req.origin))
    }
    fn cancel(&mut self, _id: RequestId) -> bool {
        true
    }
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// Two connections, one tenant: the second request is decoded while the
/// first holds the tenant's lock inside a plan that outlasts the budget.
/// Its deadline counts from its own frame's receipt, so by the time it
/// gets the lock it is shed — answered `DeadlineShed` and never planned.
#[test]
fn waiting_for_the_tenant_lock_past_the_budget_sheds_unplanned() {
    let deadline = Duration::from_millis(50);
    let gate = Arc::new((Mutex::new(Gate::default()), Condvar::new()));
    let registry = TenantRegistry::new();
    let tenant = registry.register(
        "w",
        GatedStub {
            gate: Arc::clone(&gate),
            planned: Vec::new(),
        },
        ServiceConfig {
            deadline: Some(deadline),
            ..ServiceConfig::default()
        },
    );
    let req =
        |id: RequestId| Request::new(id, 0, Cell::new(0, 0), Cell::new(0, 1), QueryKind::Pickup);
    let (first, second) = std::thread::scope(|scope| {
        let connect = || {
            let ((client_read, client_write), (server_read, server_write)) = duplex();
            let registry = &registry;
            scope.spawn(move || serve_connection(registry, server_read, server_write));
            WireClient::new(client_read, client_write)
        };
        let (mut a, mut b) = (connect(), connect());
        let first = scope.spawn(move || {
            a.submit("w", &req(0)).expect("accepted");
            a.wait_plan(0).expect("plan reply")
        });
        {
            let (lock, cv) = &*gate;
            let mut g = lock.lock().unwrap();
            while !g.entered {
                g = cv.wait(g).unwrap();
            }
        }
        // Request 0 is inside `plan`, holding the tenant lock.
        let second = scope.spawn(move || {
            b.submit("w", &req(1)).expect("accepted");
            b.wait_plan(1).expect("plan reply")
        });
        // Request 1's frame is counted after its receive time is stamped
        // and before its connection thread asks for the tenant lock.
        while tenant.wire().snapshot().frames_received < 2 {
            std::thread::yield_now();
        }
        let decoded = Instant::now();
        while decoded.elapsed() <= deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let (lock, cv) = &*gate;
            lock.lock().unwrap().open = true;
            cv.notify_all();
        }
        (first.join().unwrap(), second.join().unwrap())
    });
    // Request 0 passed its shed check and was gated past its own budget.
    assert_eq!(first, PlanResponse::DeadlineOverrun);
    assert_eq!(second, PlanResponse::DeadlineShed);
    let m = tenant.metrics();
    assert_eq!(
        (m.submitted, m.shed_deadline, m.cancelled_deadline),
        (2, 1, 1)
    );
    let stub = registry
        .remove("w")
        .expect("registered")
        .downcast::<GatedStub>()
        .expect("gated stub");
    assert_eq!(
        stub.planned,
        vec![0],
        "the shed request reached the planner"
    );
}
