//! The service's vocabulary: tuning, per-request answers and metrics.
//!
//! There is no service thread. Each request runs to completion on the
//! thread that decoded its frame (a reactor in `mux`, or the in-process
//! adapter's thread in [`crate::ingest`]), under its tenant's lock:
//!
//! ```text
//!  frame decoded ──▶ tenant lock ──▶ deadline check, planner.plan(),
//!  (receive time     (one request     over-budget cancel, journal
//!   stamped)          at a time)      append ──▶ ack + reply, one write
//! ```
//!
//! **Commits stay serial**: the online contract (Definition 3) requires
//! every route to be collision-checked against *all previously committed*
//! routes, so commits are a linearization point. The tenant lock is that
//! point ([`crate::tenant::Tenant::submit`]); metrics readers never take
//! it.
//!
//! Degradation:
//!
//! * **Deadlines** — each request carries the service's end-to-end budget,
//!   counted from the moment the read that completed its frame returned.
//!   A request that already exceeded it while waiting for the tenant lock
//!   is *shed* unplanned; a plan that completes over budget is *cancelled*
//!   (the planner's `cancel` path retires its segments) and converted into
//!   a refusal, so an over-budget plan never stalls the robot fleet on a
//!   stale answer.
//! * **Backpressure** is the transport's: a thread that is planning reads
//!   no further frames, so a client that outruns its tenant finds its
//!   socket buffers full. The per-connection token bucket
//!   ([`crate::ingest::RateLimit`]) still refuses with a typed verdict.

use crate::histogram::{LatencyHistogram, LatencySummary};
use carp_warehouse::planner::EngineMetrics;
use carp_warehouse::route::Route;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// No effect. Requests are planned where they are decoded, so there is
    /// no ingest queue to bound; the field remains only so struct literals
    /// that still name it keep compiling.
    pub queue_capacity: usize,
    /// End-to-end budget per request (wait for the tenant lock + planning),
    /// counted from frame receipt. `None` disables deadline enforcement —
    /// required for bit-deterministic replays, where refusals must not
    /// depend on wall-clock speed.
    pub deadline: Option<Duration>,
    /// No effect. There is no planner worker; the field remains only so
    /// struct literals that still name it keep compiling.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            deadline: Some(Duration::from_millis(250)),
            workers: 1,
        }
    }
}

/// Terminal answer for one submitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanResponse {
    /// A collision-free route was committed.
    Planned(Route),
    /// The planner found no route under its search limits.
    Infeasible,
    /// The request waited past its deadline and was shed without ever
    /// reaching the planner.
    DeadlineShed,
    /// The planner produced a route but blew the budget; the route was
    /// cancelled (uncommitted) and the requester must re-submit.
    DeadlineOverrun,
    /// The tenant's planner panicked, on this request or an earlier one;
    /// the request was never committed. Surfaced as a value so one crashed
    /// plan does not take down the thread serving other tenants.
    ServiceDied,
}

impl PlanResponse {
    /// The committed route, if any.
    pub fn route(&self) -> Option<&Route> {
        match self {
            PlanResponse::Planned(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this response is a refusal (shed or overrun) rather than a
    /// planning verdict.
    pub fn is_refusal(&self) -> bool {
        matches!(
            self,
            PlanResponse::DeadlineShed | PlanResponse::DeadlineOverrun
        )
    }
}

/// Submission rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant was deregistered and accepts no new work.
    ShuttingDown,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Point-in-time, serializable view of the service's operational state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceMetrics {
    /// Submissions the tenant took on (planned or refused).
    pub submitted: u64,
    /// Always 0: nothing queues, so nothing is refused for a full queue.
    /// Kept so reports and readers that name it stay valid.
    pub rejected_backpressure: u64,
    /// Requests answered with a committed route.
    pub planned: u64,
    /// Requests answered `Infeasible` by the planner.
    pub infeasible: u64,
    /// Requests shed past their deadline before planning (never planned).
    pub shed_deadline: u64,
    /// Plans cancelled for finishing over budget.
    pub cancelled_deadline: u64,
    /// Frame receipt → planning start, for requests that reached a planner:
    /// mostly the wait for the tenant lock.
    pub queue_latency: LatencySummary,
    /// Wall-clock planning latency (inside `Planner::plan`).
    pub planning_latency: LatencySummary,
    /// Commit-point latency per committed route (journal append + accept).
    pub commit_latency: LatencySummary,
    /// End-to-end frame receipt → answer latency.
    pub turnaround_latency: LatencySummary,
    /// Engine counters from the planner's collision backend, when it has
    /// one (refreshed after every request, advance and cancel).
    pub engine: Option<EngineMetrics>,
}

impl ServiceMetrics {
    /// Refusals (shed + cancelled + backpressure) over all submission
    /// attempts; 0.0 when nothing was submitted.
    pub fn refusal_rate(&self) -> f64 {
        let attempts = self.submitted + self.rejected_backpressure;
        if attempts == 0 {
            return 0.0;
        }
        let refused = self.rejected_backpressure + self.shed_deadline + self.cancelled_deadline;
        refused as f64 / attempts as f64
    }
}

/// What a tenant records about its requests, behind one lock that the
/// commit path takes once per request and metrics readers take briefly.
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    pub(crate) submitted: u64,
    pub(crate) planned: u64,
    pub(crate) infeasible: u64,
    pub(crate) shed_deadline: u64,
    pub(crate) cancelled_deadline: u64,
    pub(crate) queue: LatencyHistogram,
    pub(crate) planning: LatencyHistogram,
    pub(crate) commit: LatencyHistogram,
    pub(crate) turnaround: LatencyHistogram,
    pub(crate) engine: Option<EngineMetrics>,
}

impl ServiceStats {
    pub(crate) fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            submitted: self.submitted,
            rejected_backpressure: 0,
            planned: self.planned,
            infeasible: self.infeasible,
            shed_deadline: self.shed_deadline,
            cancelled_deadline: self.cancelled_deadline,
            queue_latency: self.queue.summary(),
            planning_latency: self.planning.summary(),
            commit_latency: self.commit.summary(),
            turnaround_latency: self.turnaround.summary(),
            engine: self.engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusal_rate_accounts_all_refusal_paths() {
        let m = ServiceMetrics {
            submitted: 90,
            rejected_backpressure: 10,
            planned: 80,
            infeasible: 2,
            shed_deadline: 5,
            cancelled_deadline: 3,
            queue_latency: LatencyHistogram::new().summary(),
            planning_latency: LatencyHistogram::new().summary(),
            commit_latency: LatencyHistogram::new().summary(),
            turnaround_latency: LatencyHistogram::new().summary(),
            engine: None,
        };
        assert!((m.refusal_rate() - 0.18).abs() < 1e-12);
    }
}
