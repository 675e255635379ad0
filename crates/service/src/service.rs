//! The online planning service: a bounded ingest queue in front of one
//! planner worker.
//!
//! ```text
//!  submitters ──▶ bounded queue ──▶ worker thread ──▶ reply tickets
//!   (many)        (backpressure:     deadline check,
//!                  reject + retry-   planner.plan(),
//!                  after when full)  over-budget cancel,
//!                                    batched advance/retire
//! ```
//!
//! **Commits stay serial**: the online contract (Definition 3) requires
//! every route to be collision-checked against *all previously committed*
//! routes, so commits are a linearization point.
//! [`PlanningService::spawn`] satisfies it directly — one worker thread
//! owns the planner and both plans and commits — and gets its parallelism
//! from many submitters enqueueing concurrently and from metrics readers
//! never touching the planner.
//!
//! Admission control and degradation:
//!
//! * **Backpressure** — the ingest queue is bounded; a submit against a
//!   full queue is rejected immediately with a retry-after hint instead of
//!   growing the queue without bound (the paper's planning-time budget has
//!   no slack for unbounded waiting).
//! * **Deadlines** — each request carries the service's end-to-end budget.
//!   A request that already exceeded it while queued is *shed* unplanned;
//!   a plan that completes over budget is *cancelled* (the planner's
//!   `cancel` path retires its segments) and converted into a refusal, so
//!   an over-budget plan never stalls the robot fleet on a stale answer.

use crate::histogram::{LatencyHistogram, LatencySummary};
use carp_warehouse::planner::{CancelToken, EngineMetrics, PlanOutcome, Planner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Capacity of the bounded ingest queue; submissions against a full
    /// queue are rejected with [`SubmitError::Backpressure`].
    pub queue_capacity: usize,
    /// End-to-end budget per request (queue wait + planning). `None`
    /// disables deadline enforcement — required for bit-deterministic
    /// replays, where refusals must not depend on wall-clock speed.
    pub deadline: Option<Duration>,
    /// Retry-after hint handed to rejected submitters.
    pub retry_after: Duration,
    /// Requests drained from the queue per worker cycle. Larger batches
    /// amortize lock traffic; the worker still answers strictly in FIFO
    /// order so admission order fully determines commit order.
    pub batch_limit: usize,
    /// Planner worker threads; must be 1. The service runs exactly one
    /// worker that both plans and commits, and
    /// [`PlanningService::spawn`] panics on any other value. The field is
    /// kept only so struct literals that still name it keep compiling.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            deadline: Some(Duration::from_millis(250)),
            retry_after: Duration::from_millis(5),
            batch_limit: 32,
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
    /// The request sat in the queue past its deadline and was shed without
    /// ever reaching the planner.
    DeadlineShed,
    /// The planner produced a route but blew the budget; the route was
    /// cancelled (uncommitted) and the requester must re-submit.
    DeadlineOverrun,
    /// The service died (worker panic) before answering; the request was
    /// never committed. Surfaced as a value so one crashed plan does not
    /// cascade panics through every outstanding ticket.
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
    /// The bounded ingest queue is full; retry after the hinted delay.
    Backpressure {
        /// Suggested client-side wait before re-submitting.
        retry_after: Duration,
        /// Queue depth observed at rejection (== capacity).
        queue_depth: usize,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Backpressure {
                retry_after,
                queue_depth,
            } => write!(
                f,
                "queue full ({queue_depth} pending); retry after {retry_after:?}"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Handle for one submitted request; resolves to its [`PlanResponse`].
#[derive(Debug)]
pub struct Ticket {
    id: RequestId,
    rx: mpsc::Receiver<PlanResponse>,
}

impl Ticket {
    /// The request id this ticket tracks.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Block until the worker answers. A service that died without
    /// answering (worker panic dropped the reply channel) resolves to
    /// [`PlanResponse::ServiceDied`] instead of panicking the waiter.
    pub fn wait(self) -> PlanResponse {
        self.rx.recv().unwrap_or(PlanResponse::ServiceDied)
    }

    /// Non-blocking probe: `Some(response)` once the worker has answered
    /// (a dead worker resolves to [`PlanResponse::ServiceDied`], as in
    /// [`Ticket::wait`]), `None` while the answer is still pending. The
    /// event-loop front-end ([`crate::mux`]) polls tickets this way so a
    /// slow plan never blocks the reactor thread.
    pub fn poll_response(&self) -> Option<PlanResponse> {
        match self.rx.try_recv() {
            Ok(resp) => Some(resp),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(PlanResponse::ServiceDied),
        }
    }
}

/// Completion callback a nonblocking submitter can attach to a request:
/// invoked by the worker *after* the reply has been sent, so a reactor can
/// sleep in `poll(2)` and be nudged the instant a ticket is resolvable.
pub type WakeFn = Arc<dyn Fn() + Send + Sync>;

/// Reply channel plus the optional completion waker. `send` delivers the
/// value first and fires the waker second — a woken poller is guaranteed to
/// observe the value.
struct ReplySender<T> {
    tx: mpsc::Sender<T>,
    waker: Option<WakeFn>,
}

impl<T> ReplySender<T> {
    fn new(tx: mpsc::Sender<T>, waker: Option<WakeFn>) -> Self {
        ReplySender { tx, waker }
    }

    fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
        let out = self.tx.send(value);
        if let Some(wake) = &self.waker {
            wake();
        }
        out
    }
}

/// Deferred handle for a control command ([`ServiceClient::advance_deferred`]
/// / [`ServiceClient::cancel_deferred`]): resolves to the command's reply
/// without ever blocking the poller. `default` is the value surfaced when
/// the service shut down before answering (mirroring the blocking paths'
/// `unwrap_or` fallbacks).
pub struct ControlReply<T> {
    rx: Option<mpsc::Receiver<T>>,
    default: fn() -> T,
}

impl<T> ControlReply<T> {
    fn pending(rx: mpsc::Receiver<T>, default: fn() -> T) -> Self {
        ControlReply {
            rx: Some(rx),
            default,
        }
    }

    /// A reply that is already resolved to the fallback value (the service
    /// was shutting down; the command was never enqueued).
    fn resolved(default: fn() -> T) -> Self {
        ControlReply { rx: None, default }
    }

    /// Non-blocking probe: `Some(value)` once answered (or immediately for
    /// a shutdown-resolved reply), `None` while pending.
    pub fn poll_response(&self) -> Option<T> {
        match &self.rx {
            None => Some((self.default)()),
            Some(rx) => match rx.try_recv() {
                Ok(v) => Some(v),
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => Some((self.default)()),
            },
        }
    }

    /// Block until the command is answered.
    pub fn wait(self) -> T {
        match self.rx {
            None => (self.default)(),
            Some(rx) => rx.recv().unwrap_or_else(|_| (self.default)()),
        }
    }
}

/// One queued unit of work.
struct Envelope {
    request: Request,
    enqueued_at: Instant,
    reply: ReplySender<PlanResponse>,
}

/// Control-plane commands; these bypass admission control (they carry the
/// simulation clock and lifecycle, not load).
enum Control {
    /// Drive `Planner::advance(now)`: batched retirement plus any route
    /// revisions, which are sent back to the caller.
    Advance {
        now: Time,
        reply: ReplySender<Vec<(RequestId, Route)>>,
    },
    /// Cancel a committed route.
    Cancel {
        id: RequestId,
        reply: ReplySender<bool>,
    },
}

/// Monotone event counters, readable without locking the queue.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected_backpressure: AtomicU64,
    planned: AtomicU64,
    infeasible: AtomicU64,
    shed_deadline: AtomicU64,
    cancelled_deadline: AtomicU64,
    in_flight: AtomicU64,
}

/// Queue state behind the mutex.
struct QueueState {
    plan: VecDeque<Envelope>,
    control: VecDeque<Control>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Wakes the worker on new plan work or control commands.
    wakeup: Condvar,
    counters: Counters,
    config: ServiceConfig,
    /// Queue wait per request that reached a planner (dequeue − submit).
    queue_hist: Mutex<LatencyHistogram>,
    /// Wall-clock time spent inside `Planner::plan` per request.
    planning_hist: Mutex<LatencyHistogram>,
    /// Commit-point time per committed route: the journal append plus the
    /// accept (so WAL overhead shows up here).
    commit_hist: Mutex<LatencyHistogram>,
    /// End-to-end submit → reply latency per answered request.
    turnaround_hist: Mutex<LatencyHistogram>,
    /// Last engine metrics published by the worker (updated per cycle).
    engine: Mutex<Option<EngineMetrics>>,
    /// Durable changeset journal, written at the commit point (`None` =
    /// durability off). Lives here rather than in [`ServiceConfig`] so
    /// the config stays `Copy`.
    journal: Option<crate::wal::TenantJournal>,
}

/// Point-in-time, serializable view of the service's operational state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceMetrics {
    /// Requests currently waiting in the ingest queue.
    pub queue_depth: usize,
    /// Requests dequeued but not yet answered.
    pub in_flight: u64,
    /// Total submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected by backpressure (never enqueued).
    pub rejected_backpressure: u64,
    /// Requests answered with a committed route.
    pub planned: u64,
    /// Requests answered `Infeasible` by the planner.
    pub infeasible: u64,
    /// Requests shed in the queue past their deadline (never planned).
    pub shed_deadline: u64,
    /// Plans cancelled for finishing over budget.
    pub cancelled_deadline: u64,
    /// Queue wait (submit → dequeue) for requests that reached a planner.
    pub queue_latency: LatencySummary,
    /// Wall-clock planning latency (inside `Planner::plan`).
    pub planning_latency: LatencySummary,
    /// Commit-point latency per committed route (journal append + accept).
    pub commit_latency: LatencySummary,
    /// End-to-end submit → reply latency.
    pub turnaround_latency: LatencySummary,
    /// Engine counters from the planner's collision backend, when it has
    /// one (refreshed once per worker cycle).
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

/// Cloneable submission/observation handle; safe to share across threads.
#[derive(Clone)]
pub struct ServiceClient {
    shared: Arc<Shared>,
}

impl ServiceClient {
    /// Submit a planning request. Non-blocking: a full queue rejects with
    /// [`SubmitError::Backpressure`] immediately (the retry-after hint is
    /// the admission-control contract — callers back off, the queue never
    /// grows past its bound).
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.submit_with_waker(request, None)
    }

    /// [`ServiceClient::submit`] with an optional completion waker, fired
    /// by the worker right after the reply is sent. A nonblocking poller
    /// (the [`crate::mux`] reactor) passes its self-pipe nudge here so
    /// resolved tickets are flushed without a busy poll-timeout wait.
    pub fn submit_with_waker(
        &self,
        request: Request,
        waker: Option<WakeFn>,
    ) -> Result<Ticket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let id = request.id;
        {
            let mut st = self.shared.state.lock().expect("service lock");
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if st.plan.len() >= self.shared.config.queue_capacity {
                self.shared
                    .counters
                    .rejected_backpressure
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Backpressure {
                    retry_after: self.shared.config.retry_after,
                    queue_depth: st.plan.len(),
                });
            }
            st.plan.push_back(Envelope {
                request,
                enqueued_at: Instant::now(),
                reply: ReplySender::new(tx, waker),
            });
            // Incremented under the lock: a concurrent `metrics()` snapshot
            // must never observe `queue_depth > submitted`.
            self.shared
                .counters
                .submitted
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.wakeup.notify_one();
        Ok(Ticket { id, rx })
    }

    /// Advance the planner's clock to `now` (batched retirement through the
    /// engine's `remove_batch` path) and return any route revisions.
    /// Blocks until the worker has processed the command.
    pub fn advance(&self, now: Time) -> Vec<(RequestId, Route)> {
        self.advance_deferred(now, None).wait()
    }

    /// Enqueue a clock advance without waiting for it: the returned handle
    /// resolves (via [`ControlReply::poll_response`]) once the worker has
    /// processed the command. The mux reactor uses this so one tenant's
    /// slow advance never stalls the other connections on its thread;
    /// per-connection reply order is preserved by the reactor's FIFO
    /// pending queue, exactly as a blocking reader preserved it.
    pub fn advance_deferred(
        &self,
        now: Time,
        waker: Option<WakeFn>,
    ) -> ControlReply<Vec<(RequestId, Route)>> {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.shared.state.lock().expect("service lock");
            if st.shutdown {
                return ControlReply::resolved(Vec::new);
            }
            st.control.push_back(Control::Advance {
                now,
                reply: ReplySender::new(tx, waker),
            });
        }
        self.shared.wakeup.notify_one();
        ControlReply::pending(rx, Vec::new)
    }

    /// Cancel a committed route (task aborted); `false` when unknown.
    pub fn cancel(&self, id: RequestId) -> bool {
        self.cancel_deferred(id, None).wait()
    }

    /// Nonblocking counterpart of [`ServiceClient::cancel`]; see
    /// [`ServiceClient::advance_deferred`] for the contract.
    pub fn cancel_deferred(&self, id: RequestId, waker: Option<WakeFn>) -> ControlReply<bool> {
        fn no() -> bool {
            false
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.shared.state.lock().expect("service lock");
            if st.shutdown {
                return ControlReply::resolved(no);
            }
            st.control.push_back(Control::Cancel {
                id,
                reply: ReplySender::new(tx, waker),
            });
        }
        self.shared.wakeup.notify_one();
        ControlReply::pending(rx, no)
    }

    /// Snapshot the service metrics. Never touches the planner thread.
    pub fn metrics(&self) -> ServiceMetrics {
        // queue_depth is read *before* the relaxed counters: `submitted` is
        // incremented under the same lock, so depth ≤ submitted always.
        let queue_depth = self.shared.state.lock().expect("service lock").plan.len();
        let c = &self.shared.counters;
        ServiceMetrics {
            queue_depth,
            in_flight: c.in_flight.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected_backpressure: c.rejected_backpressure.load(Ordering::Relaxed),
            planned: c.planned.load(Ordering::Relaxed),
            infeasible: c.infeasible.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            cancelled_deadline: c.cancelled_deadline.load(Ordering::Relaxed),
            queue_latency: self.shared.queue_hist.lock().expect("hist lock").summary(),
            commit_latency: self.shared.commit_hist.lock().expect("hist lock").summary(),
            planning_latency: self
                .shared
                .planning_hist
                .lock()
                .expect("hist lock")
                .summary(),
            turnaround_latency: self
                .shared
                .turnaround_hist
                .lock()
                .expect("hist lock")
                .summary(),
            engine: *self.shared.engine.lock().expect("engine lock"),
        }
    }
}

/// The running service: owns the worker thread and the planner inside.
pub struct PlanningService<P: Planner + Send + 'static> {
    shared: Arc<Shared>,
    worker: std::thread::JoinHandle<P>,
}

impl<P: Planner + Send + 'static> PlanningService<P> {
    /// Spawn the worker thread around `planner` (one thread plans *and*
    /// commits).
    ///
    /// # Panics
    /// When `config.workers` is not 1, or the queue capacity or batch
    /// limit is zero.
    pub fn spawn(planner: P, config: ServiceConfig) -> Self {
        Self::spawn_journaled(planner, config, None)
    }

    /// [`PlanningService::spawn`] with an optional durable changeset
    /// journal: every commit, cancel and clock advance the worker
    /// performs is appended at its linearization point.
    pub fn spawn_journaled(
        planner: P,
        config: ServiceConfig,
        journal: Option<crate::wal::TenantJournal>,
    ) -> Self {
        assert_eq!(
            config.workers, 1,
            "the service runs exactly one planner worker"
        );
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.batch_limit > 0, "batch limit must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                plan: VecDeque::with_capacity(config.queue_capacity),
                control: VecDeque::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            counters: Counters::default(),
            config,
            queue_hist: Mutex::new(LatencyHistogram::new()),
            planning_hist: Mutex::new(LatencyHistogram::new()),
            commit_hist: Mutex::new(LatencyHistogram::new()),
            turnaround_hist: Mutex::new(LatencyHistogram::new()),
            engine: Mutex::new(None),
            journal,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("carp-service-worker".into())
            .spawn(move || worker_loop(planner, worker_shared))
            .expect("spawn service worker");
        PlanningService { shared, worker }
    }

    /// A cloneable client handle for submitters and metrics readers.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drain the queue, stop the worker, and return the planner for
    /// inspection (engine metrics, provenance, memory accounting).
    pub fn shutdown(self) -> P {
        {
            let mut st = self.shared.state.lock().expect("service lock");
            st.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        self.worker.join().expect("service worker panicked")
    }
}

fn worker_loop<P: Planner>(mut planner: P, shared: Arc<Shared>) -> P {
    loop {
        let (controls, batch, stop) = {
            let mut st = shared.state.lock().expect("service lock");
            while st.control.is_empty() && st.plan.is_empty() && !st.shutdown {
                st = shared.wakeup.wait(st).expect("service lock");
            }
            let controls: Vec<Control> = st.control.drain(..).collect();
            let take = st.plan.len().min(shared.config.batch_limit);
            let batch: Vec<Envelope> = st.plan.drain(..take).collect();
            let stop = st.shutdown && st.plan.is_empty() && st.control.is_empty();
            (controls, batch, stop)
        };
        // Paired add/sub (never `store`): the gauge tracks *outstanding*
        // dequeued work — including control-plane commands — and survives
        // interleaved readers without snapping to a stale cycle count.
        shared
            .counters
            .in_flight
            .fetch_add((controls.len() + batch.len()) as u64, Ordering::Relaxed);

        for control in controls {
            match control {
                Control::Advance { now, reply } => {
                    let revisions = planner.advance(now);
                    if let Some(j) = &shared.journal {
                        j.advance(now, &revisions);
                    }
                    let _ = reply.send(revisions);
                }
                Control::Cancel { id, reply } => {
                    let ok = planner.cancel(id);
                    if ok {
                        if let Some(j) = &shared.journal {
                            j.cancel(id);
                        }
                    }
                    let _ = reply.send(ok);
                }
            }
            shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        }

        for env in batch {
            process_one(&mut planner, &shared, env);
            shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        }

        if let Some(m) = planner.engine_metrics() {
            *shared.engine.lock().expect("engine lock") = Some(m);
        }

        if stop {
            debug_assert_eq!(
                shared.counters.in_flight.load(Ordering::Relaxed),
                0,
                "in_flight gauge must drain to zero at shutdown"
            );
            return planner;
        }
    }
}

fn process_one<P: Planner>(planner: &mut P, shared: &Shared, env: Envelope) {
    let deadline = shared.config.deadline;
    // Shed before planning: a request that already blew its budget queueing
    // would waste planner time producing an answer nobody can use.
    if let Some(d) = deadline {
        if env.enqueued_at.elapsed() > d {
            shared
                .counters
                .shed_deadline
                .fetch_add(1, Ordering::Relaxed);
            record_turnaround(shared, env.enqueued_at);
            let _ = env.reply.send(PlanResponse::DeadlineShed);
            return;
        }
    }
    shared
        .queue_hist
        .lock()
        .expect("hist lock")
        .record(env.enqueued_at.elapsed());
    // Arm the planner with the request's remaining budget so a search that
    // cannot finish in time abandons itself instead of running to
    // completion and being cancelled post-commit.
    let token = deadline.map(|d| CancelToken::with_deadline(env.enqueued_at + d));
    planner.arm_cancel(token.clone());
    let started = Instant::now();
    let outcome = planner.plan(&env.request);
    planner.arm_cancel(None);
    shared
        .planning_hist
        .lock()
        .expect("hist lock")
        .record(started.elapsed());
    let response = match outcome {
        PlanOutcome::Planned(route) => {
            // Over-budget plans are *uncommitted*: the cancel path releases
            // the route's segments/reservations, so the refusal leaves no
            // trace in the collision state and the robot is free to retry.
            if deadline.is_some_and(|d| env.enqueued_at.elapsed() > d) {
                planner.cancel(env.request.id);
                shared
                    .counters
                    .cancelled_deadline
                    .fetch_add(1, Ordering::Relaxed);
                PlanResponse::DeadlineOverrun
            } else {
                // `plan` already committed, so the accept path *is* the
                // commit point: the journal append is timed into
                // `commit_hist`, making WAL-on vs WAL-off commit latency
                // directly comparable.
                let committed = Instant::now();
                if let Some(j) = &shared.journal {
                    j.commit(&env.request, &route);
                }
                shared
                    .commit_hist
                    .lock()
                    .expect("hist lock")
                    .record(committed.elapsed());
                shared.counters.planned.fetch_add(1, Ordering::Relaxed);
                PlanResponse::Planned(route)
            }
        }
        PlanOutcome::Infeasible => {
            // Distinguish a genuine "no route exists" verdict from a search
            // the token aborted mid-way: the latter is a deadline refusal,
            // not evidence of infeasibility.
            if token.is_some_and(|t| t.fired()) {
                shared
                    .counters
                    .cancelled_deadline
                    .fetch_add(1, Ordering::Relaxed);
                PlanResponse::DeadlineOverrun
            } else {
                shared.counters.infeasible.fetch_add(1, Ordering::Relaxed);
                PlanResponse::Infeasible
            }
        }
    };
    record_turnaround(shared, env.enqueued_at);
    let _ = env.reply.send(response);
}

fn record_turnaround(shared: &Shared, enqueued_at: Instant) {
    shared
        .turnaround_hist
        .lock()
        .expect("hist lock")
        .record(enqueued_at.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_warehouse::request::QueryKind;
    use carp_warehouse::types::Cell;

    /// Test double: plans a stationary route and counts plans.
    struct StubPlanner {
        planned: usize,
    }

    impl StubPlanner {
        fn new() -> Self {
            StubPlanner { planned: 0 }
        }
    }

    impl Planner for StubPlanner {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn plan(&mut self, req: &Request) -> PlanOutcome {
            self.planned += 1;
            PlanOutcome::Planned(Route::stationary(req.t, req.origin))
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    /// Rendezvous point between a test and the worker thread: the worker
    /// announces that it *entered* planning and then blocks until the test
    /// grants a permit. Replaces wall-clock sleep calibration — assertions
    /// sequence on events, not on how fast the CI runner happens to be.
    struct Gate {
        state: Mutex<(usize, usize)>, // (entered, permits)
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                state: Mutex::new((0, 0)),
                cv: Condvar::new(),
            })
        }
        /// Worker side: announce entry, then consume one permit.
        fn enter(&self) {
            let mut st = self.state.lock().unwrap();
            st.0 += 1;
            self.cv.notify_all();
            while st.1 == 0 {
                st = self.cv.wait(st).unwrap();
            }
            st.1 -= 1;
        }
        /// Test side: grant `n` planning permits.
        fn permit(&self, n: usize) {
            self.state.lock().unwrap().1 += n;
            self.cv.notify_all();
        }
        /// Test side: block until `n` workers have entered planning.
        fn wait_entered(&self, n: usize) {
            let mut st = self.state.lock().unwrap();
            while st.0 < n {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    /// Test double whose `plan` blocks on a [`Gate`] permit.
    struct GateStub {
        gate: Arc<Gate>,
        cancelled: Vec<RequestId>,
        planned: usize,
    }

    impl Planner for GateStub {
        fn name(&self) -> &'static str {
            "gate-stub"
        }
        fn plan(&mut self, req: &Request) -> PlanOutcome {
            self.gate.enter();
            self.planned += 1;
            PlanOutcome::Planned(Route::stationary(req.t, req.origin))
        }
        fn cancel(&mut self, id: RequestId) -> bool {
            self.cancelled.push(id);
            true
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    fn req(id: RequestId) -> Request {
        Request::new(id, 0, Cell::new(0, 0), Cell::new(0, 1), QueryKind::Pickup)
    }

    #[test]
    fn plans_flow_through_and_shutdown_returns_planner() {
        let svc = PlanningService::spawn(StubPlanner::new(), ServiceConfig::default());
        let client = svc.client();
        let tickets: Vec<Ticket> = (0..10).map(|i| client.submit(req(i)).unwrap()).collect();
        for t in tickets {
            assert!(matches!(t.wait(), PlanResponse::Planned(_)));
        }
        let m = client.metrics();
        assert_eq!(m.planned, 10);
        assert_eq!(m.submitted, 10);
        assert_eq!(m.planning_latency.count, 10);
        let planner = svc.shutdown();
        assert_eq!(planner.planned, 10);
    }

    #[test]
    fn backpressure_rejects_instead_of_growing() {
        // The worker verifiably holds the first request inside `plan`
        // (gate entry), so flooding 50 more against a 4-slot queue must
        // accept exactly 4 and reject 46 — deterministically, however slow
        // or fast the runner is.
        let gate = Gate::new();
        let svc = PlanningService::spawn(
            GateStub {
                gate: Arc::clone(&gate),
                cancelled: Vec::new(),
                planned: 0,
            },
            ServiceConfig {
                queue_capacity: 4,
                deadline: None,
                batch_limit: 1,
                ..Default::default()
            },
        );
        let client = svc.client();
        let mut accepted = vec![client.submit(req(0)).unwrap()];
        gate.wait_entered(1); // worker is now blocked inside plan(req 0)

        // Concurrent sampler: `submitted` is incremented under the queue
        // lock, so no snapshot may ever observe more queued than admitted.
        let sampler_client = client.clone();
        let sampler = std::thread::spawn(move || {
            for _ in 0..2000 {
                let m = sampler_client.metrics();
                assert!(
                    m.submitted >= m.queue_depth as u64,
                    "metrics raced: queue_depth {} > submitted {}",
                    m.queue_depth,
                    m.submitted
                );
            }
        });

        let mut rejected = 0usize;
        for i in 1..=50 {
            match client.submit(req(i)) {
                Ok(t) => accepted.push(t),
                Err(SubmitError::Backpressure {
                    retry_after,
                    queue_depth,
                }) => {
                    rejected += 1;
                    assert_eq!(queue_depth, 4);
                    assert!(!retry_after.is_zero());
                }
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(client.metrics().queue_depth <= 4, "queue grew past bound");
        }
        assert_eq!(rejected, 46, "queue holds 4 while the worker is gated");
        assert_eq!(accepted.len(), 5);
        sampler.join().unwrap();
        let m = client.metrics();
        assert_eq!(m.rejected_backpressure as usize, rejected);
        assert_eq!(m.submitted as usize, accepted.len());
        // Release the worker: every accepted request still gets answered.
        gate.permit(accepted.len());
        for t in accepted {
            assert!(matches!(t.wait(), PlanResponse::Planned(_)));
        }
        let planner = svc.shutdown();
        assert_eq!(planner.planned, 5);
        assert_eq!(client.metrics().in_flight, 0, "gauge drains at shutdown");
    }

    #[test]
    fn over_budget_plans_are_cancelled_not_committed() {
        // The gate holds the request inside `plan` until its deadline has
        // verifiably passed, so the overrun does not depend on the worker
        // waking within a calibrated margin (a late wake-up would shed the
        // request before planning instead).
        let deadline = Duration::from_millis(100);
        let gate = Gate::new();
        let svc = PlanningService::spawn(
            GateStub {
                gate: Arc::clone(&gate),
                cancelled: Vec::new(),
                planned: 0,
            },
            ServiceConfig {
                deadline: Some(deadline),
                ..Default::default()
            },
        );
        let client = svc.client();
        let t = client.submit(req(0)).unwrap();
        let queued = Instant::now();
        gate.wait_entered(1); // passed the shed check, now inside plan
        while queued.elapsed() <= deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.permit(1);
        assert_eq!(t.wait(), PlanResponse::DeadlineOverrun);
        let m = client.metrics();
        assert_eq!(m.cancelled_deadline, 1);
        assert_eq!(m.planned, 0);
        let planner = svc.shutdown();
        assert_eq!(planner.cancelled, vec![0], "route must be uncommitted");
    }

    #[test]
    fn queue_wait_past_deadline_sheds_without_planning() {
        // The gate holds request 0 inside the planner until request 1's
        // deadline has *verifiably* passed, so the shed is guaranteed by
        // observed elapsed time, not by a calibrated worker delay.
        let deadline = Duration::from_millis(5);
        let gate = Gate::new();
        let svc = PlanningService::spawn(
            GateStub {
                gate: Arc::clone(&gate),
                cancelled: Vec::new(),
                planned: 0,
            },
            ServiceConfig {
                deadline: Some(deadline),
                batch_limit: 1,
                ..Default::default()
            },
        );
        let client = svc.client();
        let t0 = client.submit(req(0)).unwrap();
        gate.wait_entered(1); // request 0 passed its shed check, now gated
        let queued = Instant::now();
        let t1 = client.submit(req(1)).unwrap();
        while queued.elapsed() <= deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.permit(2); // request 1 never consumes a permit: it is shed
                        // Request 0 itself overruns (it was gated past its own deadline) —
                        // that's fine, we only care that request 1 never reached the
                        // planner.
        assert_eq!(t0.wait(), PlanResponse::DeadlineOverrun);
        assert_eq!(t1.wait(), PlanResponse::DeadlineShed);
        let planner = svc.shutdown();
        assert_eq!(planner.planned, 1, "shed request must not be planned");
        assert_eq!(planner.cancelled, vec![0], "overrun route is uncommitted");
        let m = client.metrics();
        assert_eq!(m.shed_deadline, 1);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn dead_worker_resolves_tickets_with_service_died() {
        struct PanicStub;
        impl Planner for PanicStub {
            fn name(&self) -> &'static str {
                "panic-stub"
            }
            fn plan(&mut self, _req: &Request) -> PlanOutcome {
                panic!("injected planner crash");
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        let svc = PlanningService::spawn(
            PanicStub,
            ServiceConfig {
                deadline: None,
                ..Default::default()
            },
        );
        let client = svc.client();
        let t = client.submit(req(0)).unwrap();
        // The worker panic drops the reply channel; the ticket resolves to
        // an error value instead of cascading the panic into the waiter.
        assert_eq!(t.wait(), PlanResponse::ServiceDied);
        drop(svc); // the worker is dead; joining it would re-panic
        let _ = client.metrics();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let svc = PlanningService::spawn(StubPlanner::new(), ServiceConfig::default());
        let client = svc.client();
        svc.shutdown();
        assert!(matches!(
            client.submit(req(0)),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn refusal_rate_accounts_all_refusal_paths() {
        let m = ServiceMetrics {
            queue_depth: 0,
            in_flight: 0,
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

    #[test]
    #[should_panic(expected = "exactly one planner worker")]
    fn more_than_one_worker_is_refused() {
        let _svc = PlanningService::spawn(
            StubPlanner::new(),
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        );
    }
}
