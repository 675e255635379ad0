//! The common interface every CARP planner implements (SRP and the four
//! baselines), plus the plan outcome type.
//!
//! The contract mirrors the online setting of Definition 3: requests arrive
//! one at a time with non-decreasing emergence times; the planner must
//! return a route that is collision-free against **all routes it has already
//! committed** and immediately commit it. The simulator audits this with the
//! ground-truth validator in [`crate::collision`].

use crate::request::{Request, RequestId};
use crate::route::Route;
use crate::types::Time;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation handle threaded from a service's deadline path
/// into a planner's search loop.
///
/// A token *fires* either when [`CancelToken::cancel`] is called or when
/// its optional wall-clock deadline passes. Planners that honour the token
/// ([`Planner::arm_cancel`]) poll [`CancelToken::fired`] periodically
/// inside their search and abandon the request early — turning an
/// over-budget plan that would be cancelled *post-commit* into one that
/// never finishes planning at all. Polling is cooperative: a planner that
/// ignores the token is merely slower to refuse, never incorrect, because
/// the service re-checks the deadline on the answer path.
///
/// Cloning shares the fired flag (it is the whole point: the arming side
/// keeps one clone, the search polls the other).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that fires only on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires once `deadline` passes, without
    /// anyone calling [`CancelToken::cancel`] — the shape the service's
    /// per-request planning budget wants.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Fire the token explicitly.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired (explicitly or by deadline). Reads the
    /// clock only when a deadline is armed, so deadline-free tokens cost
    /// one relaxed atomic load per poll.
    pub fn fired(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Result of a single planning call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOutcome {
    /// A collision-free route was found and committed.
    Planned(Route),
    /// No route exists under the planner's search restrictions (rare; the
    /// simulator re-submits the request at a later timestamp).
    Infeasible,
}

impl PlanOutcome {
    /// The planned route, if any.
    pub fn route(&self) -> Option<&Route> {
        match self {
            PlanOutcome::Planned(r) => Some(r),
            PlanOutcome::Infeasible => None,
        }
    }
}

/// Operation metrics of a planner's collision backend: the per-strip
/// segment-store engine (SRP) or the grid-level reservation table (the
/// baselines).
/// Defined here (rather than next to the engine) so the simulator can read
/// them through the object-safe [`Planner`] interface without depending on
/// the geometry crate's concrete engine type.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Collision queries issued against the engine so far (SRP: the
    /// pre-commit validation probes).
    pub probe_queries: u64,
    /// Mean segments retired per removal batch.
    pub retire_batch_size: f64,
    /// Cumulative soft-layer (beyond-window) reservation bookings. Zero for
    /// planners that pre-check every commit against the full table; positive
    /// under TWP's optimistic beyond-window commits, which book their
    /// unverified tails in the reservation table's multi-owner soft layer
    /// until a window slide promotes them.
    pub soft_bookings: u64,
    /// Soft bookings that sit below the last repair round's window end —
    /// optimism the slide should have promoted into the exclusive hard
    /// layer but could not (failed repairs). Hard-layer exclusivity itself
    /// is asserted in the table, so this is the *only* window-consistency
    /// debt a windowed planner can carry.
    pub window_debt: u64,
}

/// A collision-aware route planner operating in the online setting.
pub trait Planner {
    /// Short display name ("SRP", "SAP", …) used in experiment output.
    fn name(&self) -> &'static str;

    /// Plan a route for `req` starting no earlier than `req.t`, avoiding all
    /// previously committed routes, and commit it.
    fn plan(&mut self, req: &Request) -> PlanOutcome;

    /// Notify the planner that simulated time advanced to `now`.
    ///
    /// Planners use this to retire finished routes (bounding memory) and —
    /// for windowed planners such as TWP — to extend/replan committed
    /// routes. Returns route *revisions*: `(request id, new full route)`
    /// pairs the simulator must adopt. A batch holds at most one route per
    /// id — the latest revision made since the previous call — so a caller
    /// can apply it as one cancel and one recommit per id. The default does
    /// nothing.
    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        let _ = now;
        Vec::new()
    }

    /// Next absolute time the planner needs an [`Planner::advance`] call
    /// even if nothing else happens — e.g. a windowed planner's scheduled
    /// repair round. `None` when the planner has no time-driven duties
    /// (the default, and the permanent answer of non-windowed planners).
    ///
    /// Event-driven drivers (the simulator) must schedule a wake-up at
    /// this time: without it, the repair cadence silently stretches to the
    /// next natural event, and deferred beyond-window conflicts can come
    /// due with no repair opportunity.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }

    /// Bytes of live planner state: collision structures, caches, committed
    /// routes. This is the MC metric of §VIII-A, measured by deterministic
    /// data-structure accounting rather than JVM heap sampling.
    fn memory_bytes(&self) -> usize;

    /// Human-readable provenance of a committed route: which internal
    /// search path produced it (direct search, retry, fallback, …) plus any
    /// planner-specific structure (strip chain, boundary crossings). Purely
    /// diagnostic — the audit layer attaches it to conflict reports so a
    /// bad route can be traced to the code path that emitted it. Planners
    /// without provenance tracking return `None` (the default).
    fn provenance(&self, id: RequestId) -> Option<String> {
        let _ = id;
        None
    }

    /// Arm (or clear, with `None`) a cooperative cancellation token for
    /// subsequent [`Planner::plan`] calls: a search that observes the token
    /// fire should abandon the request and report
    /// [`PlanOutcome::Infeasible`] without committing anything. The arming
    /// side distinguishes a genuine infeasibility from an aborted search by
    /// checking [`CancelToken::fired`] after the call. The default ignores
    /// the token (planners without in-search polling are refused by the
    /// service's post-plan deadline check instead).
    fn arm_cancel(&mut self, token: Option<CancelToken>) {
        let _ = token;
    }

    /// Cancel a committed route (the task was aborted): its reservations /
    /// segments are released so later requests may use the freed capacity.
    ///
    /// Returns `false` when the id is unknown or already retired. The
    /// default implementation refuses (`false`); every planner in this
    /// workspace overrides it.
    fn cancel(&mut self, id: RequestId) -> bool {
        let _ = id;
        false
    }

    /// Operation metrics of the planner's segment-store engine. `None` (the
    /// default) for planners without one; SRP reports the probe/retirement
    /// counters of its `carp_geometry::engine::StoreEngine`, which the
    /// simulator folds into the day report.
    fn engine_metrics(&self) -> Option<EngineMetrics> {
        None
    }
}

/// A planner whose committed state can be rebuilt from a log of already
/// validated routes, without re-running any search.
///
/// The service's changeset journal records every route at its commit
/// point; a warm standby (`carp_service::wal::recover_planners`) folds
/// that log into a fresh planner by replaying each commit through
/// [`ReplayPlanner::adopt`], interleaved with the logged
/// [`Planner::cancel`] / [`Planner::advance`] calls. `adopt` followed by
/// that replay must reconstruct the committed state exactly, so the
/// rebuilt planner answers the next request bit-identically to the
/// primary it replaces.
///
/// Windowed/revising planners (TWP, RP) do not implement this trait: their
/// `advance` rewrites committed routes from search state the log does not
/// carry.
pub trait ReplayPlanner: Planner {
    /// Adopt an externally validated route into the committed state without
    /// re-running the search (decompose + reserve only).
    fn adopt(&mut self, id: RequestId, route: &Route);
}

impl<P: Planner + ?Sized> Planner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn plan(&mut self, req: &Request) -> PlanOutcome {
        (**self).plan(req)
    }
    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        (**self).advance(now)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn provenance(&self, id: RequestId) -> Option<String> {
        (**self).provenance(id)
    }
    fn arm_cancel(&mut self, token: Option<CancelToken>) {
        (**self).arm_cancel(token)
    }
    fn cancel(&mut self, id: RequestId) -> bool {
        (**self).cancel(id)
    }
    fn engine_metrics(&self) -> Option<EngineMetrics> {
        (**self).engine_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cell;

    struct Dummy;
    impl Planner for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn plan(&mut self, req: &Request) -> PlanOutcome {
            PlanOutcome::Planned(Route::stationary(req.t, req.origin))
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_advance_is_a_noop() {
        let mut d = Dummy;
        assert!(d.advance(10).is_empty());
    }

    #[test]
    fn cancel_token_fires_explicitly_and_by_deadline() {
        let t = CancelToken::new();
        assert!(!t.fired());
        let shared = t.clone();
        shared.cancel();
        assert!(t.fired(), "clones share the fired flag");

        let past = CancelToken::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        assert!(past.fired(), "elapsed deadline fires without cancel()");
        let future =
            CancelToken::with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        assert!(!future.fired());
        future.cancel();
        assert!(future.fired(), "explicit cancel overrides a live deadline");
    }

    #[test]
    fn default_arm_cancel_is_a_noop() {
        let mut d = Dummy;
        d.arm_cancel(Some(CancelToken::new()));
        d.arm_cancel(None);
        assert!(matches!(
            d.plan(&Request::new(
                0,
                0,
                Cell::new(0, 0),
                Cell::new(1, 1),
                crate::QueryKind::Pickup
            )),
            PlanOutcome::Planned(_)
        ));
    }

    #[test]
    fn outcome_route_accessor() {
        let r = Route::stationary(0, Cell::new(0, 0));
        assert_eq!(PlanOutcome::Planned(r.clone()).route(), Some(&r));
        assert_eq!(PlanOutcome::Infeasible.route(), None);
    }
}
