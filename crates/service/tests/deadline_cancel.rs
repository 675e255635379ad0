//! The deadline path against the *real* SRP planner: an over-budget plan
//! must be cancelled post-commit, and that cancel must actually retire the
//! route's segments from the segment-store engine — otherwise every
//! refused request would leak phantom traffic that blocks later robots.

use carp_service::service::{PlanResponse, PlanningService, ServiceConfig};
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::{Layout, LayoutConfig};
use carp_warehouse::request::RequestId;
use carp_warehouse::types::{Cell, Time};
use carp_warehouse::{PlanOutcome, Planner, QueryKind, Request, Route};
use std::time::Duration;

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
    let service = PlanningService::spawn(slow, config);
    let client = service.client();

    // The queue wait is near zero (single request, idle worker), so the
    // budget is blown *inside* `plan` — the post-commit cancel path. If a
    // slow CI host sheds it in the queue instead, resubmit: either way the
    // route must never survive.
    let mut response = PlanResponse::DeadlineShed;
    let mut id = 0;
    for attempt in 0..5u64 {
        id = attempt;
        response = client
            .submit(a_request(id, &layout))
            .expect("queue accepts")
            .wait();
        if response != PlanResponse::DeadlineShed {
            break;
        }
    }
    assert_eq!(
        response,
        PlanResponse::DeadlineOverrun,
        "a 200ms plan under a 50ms budget must overrun"
    );

    // Shut down first: the worker publishes its engine-metrics snapshot at
    // the end of each cycle, so only after join is the snapshot guaranteed
    // current. The client handle stays readable past shutdown.
    let slow = service.shutdown();
    let metrics = client.metrics();
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
    let service = PlanningService::spawn(slow, config);
    let client = service.client();
    let response = client
        .submit(a_request(0, &layout))
        .expect("queue accepts")
        .wait();
    assert!(
        response.route().is_some(),
        "deadline-free slow plan must commit, got {response:?}"
    );

    let metrics = client.metrics();
    assert_eq!(metrics.planned, 1);
    assert_eq!(metrics.cancelled_deadline, 0);

    let slow = service.shutdown();
    assert!(
        slow.inner.total_segments() > 0,
        "committed route must keep its segments reserved"
    );
}
