//! The traced run's planner: a [`Planner`] wrapper registered as the tenant
//! in place of the bare [`SrpPlanner`]. It times every `plan` and `advance`
//! call on the worker thread against the day's clock and classifies each
//! committed route by [`SrpPlanner::route_provenance`]. Timed runs register
//! the bare planner instead.

use carp_srp::{PlannerPath, SrpPlanner};
use carp_warehouse::planner::{CancelToken, EngineMetrics, PlanOutcome, Planner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use std::time::Instant;

/// Which search path answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Direct strip search at the emergence time.
    Direct,
    /// Strip search with a postponed departure.
    Retry,
    /// Grid A\* fallback.
    Fallback,
    /// No route (infeasible or cancelled), or not yet booked.
    None,
}

impl Path {
    /// Metric-name segment of the path.
    pub fn label(self) -> &'static str {
        match self {
            Path::Direct => "direct",
            Path::Retry => "retry",
            Path::Fallback => "fallback",
            Path::None => "none",
        }
    }
}

/// One timed `plan` call, in nanoseconds since the day's epoch.
#[derive(Debug, Clone, Copy)]
pub struct PlanCall {
    /// The request planned.
    pub rid: RequestId,
    /// Worker-side start of `plan`.
    pub start_ns: u64,
    /// Worker-side return of `plan`.
    pub end_ns: u64,
    /// The path that produced the route: [`Path::None`] until the call is
    /// booked, at the next `advance` or at [`TracedPlanner::finish`].
    pub path: Path,
}

/// The wrapper. A `plan` call only takes two timestamps around the inner
/// call. The bookkeeping (classifying the routes planned since the last
/// `advance`, sampling memory and the segment count) runs at the start of
/// the next `advance` and is timed on its own, so the client can book it to
/// the harness rather than to the service or the planner.
pub struct TracedPlanner {
    inner: SrpPlanner,
    epoch: Instant,
    /// Every `plan` call, in call order.
    pub plans: Vec<PlanCall>,
    /// Plan calls booked so far.
    booked: usize,
    /// Every `advance` call as `(start_ns, end_ns)`.
    pub advances: Vec<(u64, u64)>,
    /// The bookkeeping before each `advance`, as `(start_ns, end_ns)`.
    pub bookkeeping: Vec<(u64, u64)>,
    /// Peak of [`Planner::memory_bytes`], sampled before each `advance`
    /// (retirement frees routes only there) and at the end of the day.
    pub mem_peak_bytes: usize,
    /// Peak of [`SrpPlanner::total_segments`], sampled with the memory.
    pub segments_peak: usize,
}

impl TracedPlanner {
    /// Wrap `inner`; timestamps count from `epoch`.
    pub fn new(inner: SrpPlanner, epoch: Instant) -> Self {
        TracedPlanner {
            inner,
            epoch,
            plans: Vec::new(),
            booked: 0,
            advances: Vec::new(),
            bookkeeping: Vec::new(),
            mem_peak_bytes: 0,
            segments_peak: 0,
        }
    }

    /// The wrapped planner.
    pub fn inner(&self) -> &SrpPlanner {
        &self.inner
    }

    /// Book the plan calls since the last `advance`; call once the day's
    /// last request is answered.
    pub fn finish(&mut self) {
        self.book();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Classify every unbooked plan call by the provenance of its route
    /// (still committed: routes retire only in `advance`) and sample the
    /// planner's memory and segment count.
    fn book(&mut self) {
        for call in &mut self.plans[self.booked..] {
            call.path = match self.inner.route_provenance(call.rid).map(|p| p.path) {
                None => Path::None,
                Some(PlannerPath::Retry { .. }) => Path::Retry,
                Some(PlannerPath::Fallback) => Path::Fallback,
                Some(_) => Path::Direct,
            };
        }
        self.booked = self.plans.len();
        self.mem_peak_bytes = self.mem_peak_bytes.max(self.inner.memory_bytes());
        self.segments_peak = self.segments_peak.max(self.inner.total_segments());
    }
}

impl Planner for TracedPlanner {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let start_ns = self.now_ns();
        let outcome = self.inner.plan(req);
        let end_ns = self.now_ns();
        self.plans.push(PlanCall {
            rid: req.id,
            start_ns,
            end_ns,
            path: Path::None,
        });
        outcome
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        let book_start = self.now_ns();
        self.book();
        let start_ns = self.now_ns();
        self.bookkeeping.push((book_start, start_ns));
        let revisions = self.inner.advance(now);
        self.advances.push((start_ns, self.now_ns()));
        revisions
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn provenance(&self, id: RequestId) -> Option<String> {
        self.inner.provenance(id)
    }

    fn arm_cancel(&mut self, token: Option<CancelToken>) {
        self.inner.arm_cancel(token);
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        self.inner.cancel(id)
    }

    fn engine_metrics(&self) -> Option<EngineMetrics> {
        self.inner.engine_metrics()
    }
}
