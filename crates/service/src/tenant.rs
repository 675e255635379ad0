//! Tenants: one warehouse each, behind one registry.
//!
//! A [`Tenant`] owns everything one warehouse needs — its planner (and
//! through it its engine), its metrics, its journal handle and its
//! wire-traffic tally — keyed by a [`WarehouseId`]. The planner sits
//! behind the tenant's lock, which is the warehouse's single
//! validate-and-commit point: [`Tenant::submit`], [`Tenant::advance`] and
//! [`Tenant::cancel`] run on whichever thread decoded the frame, one at a
//! time. There is no per-tenant thread or queue.
//!
//! The [`TenantRegistry`] maps ids to tenants and is the only shared state
//! between warehouses, so deadlines and commit order are all **per
//! tenant**. That isolation is the multi-tenant determinism argument
//! (DESIGN.md §14): a tenant's committed route set is a function of its
//! own admission order alone, so serving W-1 and W-2 from one daemon
//! cannot change either one's routes — concurrent tenants only contend for
//! CPU time, never for planner state.
//!
//! The registry hands a planner back only through
//! [`TenantRegistry::remove`], which waits for the request in progress,
//! takes the planner out and returns it as `Box<dyn Any>` for typed
//! recovery — while a tenant is live, *all* traffic goes through its
//! methods (and, one layer up, through the wire protocol).

use crate::service::{PlanResponse, ServiceConfig, ServiceMetrics, ServiceStats, SubmitError};
use crate::wal::{TenantJournal, WalJournal};
use carp_warehouse::planner::{CancelToken, PlanOutcome, Planner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// Identifies one warehouse served by the daemon ("W-1", "W-2", …).
pub type WarehouseId = String;

/// Monotone per-tenant wire-traffic counters, updated lock-free by the
/// ingest front-end as frames are routed.
#[derive(Debug, Default)]
pub struct WireTally {
    frames_received: AtomicU64,
    frames_sent: AtomicU64,
    bytes_received: AtomicU64,
    bytes_sent: AtomicU64,
    protocol_errors: AtomicU64,
}

impl WireTally {
    /// Count one decoded inbound frame of `bytes` total wire bytes.
    pub fn frame_received(&self, bytes: u64) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one encoded outbound frame of `bytes` total wire bytes.
    pub fn frame_sent(&self, bytes: u64) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one protocol error attributed to this tenant's traffic.
    pub fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> WireCounters {
        WireCounters {
            frames_received: self.frames_received.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Serializable snapshot of a [`WireTally`] — the per-tenant encode/decode
/// counters reported in `BENCH_service.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCounters {
    /// Frames decoded from this tenant's clients.
    pub frames_received: u64,
    /// Frames encoded to this tenant's clients.
    pub frames_sent: u64,
    /// Total wire bytes received (headers + payloads).
    pub bytes_received: u64,
    /// Total wire bytes sent (headers + payloads).
    pub bytes_sent: u64,
    /// Protocol errors attributed to this tenant's traffic.
    pub protocol_errors: u64,
}

/// The planner a tenant hosts, type-erased so one registry can hold
/// different planner types and still hand each back by its own type.
trait Hosted: Planner + Send {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<P: Planner + Send + 'static> Hosted for P {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// Why the tenant's planner could not be reached.
enum Unavailable {
    /// The tenant was deregistered.
    ShuttingDown,
    /// A planner call panicked; the lock stays poisoned.
    Died,
}

/// One warehouse: its planner behind the commit lock, its metrics and its
/// wire accounting.
pub struct Tenant {
    id: WarehouseId,
    config: ServiceConfig,
    /// The commit point: every plan, advance and cancel runs under this
    /// lock, on the thread that decoded its frame. `None` once
    /// [`TenantRegistry::remove`] took the planner back.
    planner: Mutex<Option<Box<dyn Hosted>>>,
    stats: Mutex<ServiceStats>,
    wire: Arc<WireTally>,
    /// The tenant's handle on the daemon's changeset journal, when one is
    /// attached: every commit, cancel and clock advance is appended at its
    /// linearization point, and the close seals the tenant's history.
    journal: Option<TenantJournal>,
}

impl Tenant {
    /// The warehouse id this tenant serves.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The tenant's wire-traffic tally.
    pub fn wire(&self) -> &Arc<WireTally> {
        &self.wire
    }

    /// Plan and commit `request` on the calling thread. `received` is when
    /// the read that completed the request's frame returned: the deadline
    /// counts from there, so time spent waiting for the tenant lock is
    /// spent from the request's budget. A request submitted after the
    /// planner panicked answers [`PlanResponse::ServiceDied`].
    pub fn submit(
        &self,
        request: &Request,
        received: Instant,
    ) -> Result<PlanResponse, SubmitError> {
        match self.with_planner(|p| self.plan(p, request, received)) {
            Ok(response) => Ok(response),
            Err(Unavailable::ShuttingDown) => Err(SubmitError::ShuttingDown),
            Err(Unavailable::Died) => Ok(PlanResponse::ServiceDied),
        }
    }

    /// Advance the planner's clock to `now` (batched retirement through the
    /// engine's `remove_routes` path) and return any route revisions; empty
    /// once the tenant is gone.
    pub fn advance(&self, now: Time) -> Vec<(RequestId, Route)> {
        self.with_planner(|p| {
            let revisions = p.advance(now);
            if let Some(j) = &self.journal {
                j.advance(now, &revisions);
            }
            revisions
        })
        .unwrap_or_default()
    }

    /// Cancel a committed route (task aborted); `false` when unknown or
    /// once the tenant is gone.
    pub fn cancel(&self, id: RequestId) -> bool {
        self.with_planner(|p| {
            let ok = p.cancel(id);
            if ok {
                if let Some(j) = &self.journal {
                    j.cancel(id);
                }
            }
            ok
        })
        .unwrap_or(false)
    }

    /// Snapshot the service metrics. Never waits for a plan.
    pub fn metrics(&self) -> ServiceMetrics {
        self.stats().metrics()
    }

    fn stats(&self) -> MutexGuard<'_, ServiceStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `op` on the planner under the commit lock, then publish the
    /// planner's engine counters. A panic inside `op` unwinds through the
    /// guard, which poisons the lock, and is caught here: this request and
    /// every later one answer [`Unavailable::Died`], while the calling
    /// thread goes on serving other tenants.
    fn with_planner<T>(&self, op: impl FnOnce(&mut dyn Hosted) -> T) -> Result<T, Unavailable> {
        let run = || {
            let mut guard = self.planner.lock().map_err(|_| Unavailable::Died)?;
            let planner = guard.as_deref_mut().ok_or(Unavailable::ShuttingDown)?;
            let out = op(planner);
            if let Some(m) = planner.engine_metrics() {
                self.stats().engine = Some(m);
            }
            Ok(out)
        };
        catch_unwind(AssertUnwindSafe(run)).unwrap_or(Err(Unavailable::Died))
    }

    /// One request at the commit point, with the tenant lock held.
    fn plan(&self, planner: &mut dyn Hosted, request: &Request, received: Instant) -> PlanResponse {
        let deadline = self.config.deadline;
        // Shed before planning: a request that already blew its budget
        // waiting for the lock would waste planner time producing an answer
        // nobody can use.
        if deadline.is_some_and(|d| received.elapsed() > d) {
            let mut stats = self.stats();
            stats.submitted += 1;
            stats.shed_deadline += 1;
            stats.turnaround.record(received.elapsed());
            return PlanResponse::DeadlineShed;
        }
        let waited = received.elapsed();
        // Arm the planner with the request's remaining budget so a search
        // that cannot finish in time abandons itself instead of running to
        // completion and being cancelled post-commit.
        let token = deadline.map(|d| CancelToken::with_deadline(received + d));
        planner.arm_cancel(token.clone());
        let started = Instant::now();
        let outcome = planner.plan(request);
        planner.arm_cancel(None);
        let planning = started.elapsed();
        let mut commit = None;
        let response = match outcome {
            PlanOutcome::Planned(route) => {
                // Over-budget plans are *uncommitted*: the cancel path
                // releases the route's segments/reservations, so the
                // refusal leaves no trace in the collision state and the
                // robot is free to retry.
                if deadline.is_some_and(|d| received.elapsed() > d) {
                    planner.cancel(request.id);
                    PlanResponse::DeadlineOverrun
                } else {
                    // `plan` already committed, so the accept path *is* the
                    // commit point: the journal append is timed into the
                    // commit histogram, making WAL-on vs WAL-off commit
                    // latency directly comparable.
                    let committed = Instant::now();
                    if let Some(j) = &self.journal {
                        j.commit(request, &route);
                    }
                    commit = Some(committed.elapsed());
                    PlanResponse::Planned(route)
                }
            }
            // Distinguish a genuine "no route exists" verdict from a search
            // the token aborted mid-way: the latter is a deadline refusal,
            // not evidence of infeasibility.
            PlanOutcome::Infeasible if token.is_some_and(|t| t.fired()) => {
                PlanResponse::DeadlineOverrun
            }
            PlanOutcome::Infeasible => PlanResponse::Infeasible,
        };
        let mut stats = self.stats();
        stats.submitted += 1;
        stats.queue.record(waited);
        stats.planning.record(planning);
        if let Some(c) = commit {
            stats.commit.record(c);
        }
        match response {
            PlanResponse::Planned(_) => stats.planned += 1,
            PlanResponse::DeadlineOverrun => stats.cancelled_deadline += 1,
            PlanResponse::Infeasible => stats.infeasible += 1,
            PlanResponse::DeadlineShed | PlanResponse::ServiceDied => {}
        }
        stats.turnaround.record(received.elapsed());
        response
    }
}

/// The daemon's tenant table: `WarehouseId → Tenant`.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<WarehouseId, Arc<Tenant>>>,
    /// The daemon-wide changeset journal; when attached, every tenant
    /// registered afterwards journals its commits through it.
    journal: Mutex<Option<Arc<WalJournal>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TenantRegistry::default()
    }

    /// Attach the daemon's durable changeset journal. Tenants registered
    /// after this call journal every commit/cancel/advance/revision; call
    /// it before the first `register`.
    pub fn attach_journal(&self, journal: Arc<WalJournal>) {
        *self.journal.lock().expect("registry journal lock") = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<WalJournal>> {
        self.journal.lock().expect("registry journal lock").clone()
    }

    fn tenant_journal(&self, id: &str) -> Option<TenantJournal> {
        self.journal()
            .map(|j| TenantJournal::new(j, id))
            .inspect(|j| j.open())
    }

    /// Register a tenant serving `planner`.
    ///
    /// # Panics
    /// When `id` is already registered or longer than a wire `str16`.
    pub fn register<P: Planner + Send + 'static>(
        &self,
        id: impl Into<WarehouseId>,
        planner: P,
        config: ServiceConfig,
    ) -> Arc<Tenant> {
        let id = id.into();
        assert!(
            u16::try_from(id.len()).is_ok(),
            "tenant id must fit a wire str16"
        );
        let tenant = Arc::new(Tenant {
            id: id.clone(),
            config,
            planner: Mutex::new(Some(Box::new(planner))),
            stats: Mutex::new(ServiceStats::default()),
            wire: Arc::new(WireTally::default()),
            journal: self.tenant_journal(&id),
        });
        let mut map = self.tenants.write().expect("tenant registry lock");
        let prior = map.insert(id.clone(), Arc::clone(&tenant));
        assert!(prior.is_none(), "tenant {id:?} registered twice");
        tenant
    }

    /// Look a tenant up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant registry lock")
            .get(id)
            .cloned()
    }

    /// Registered warehouse ids, sorted.
    pub fn ids(&self) -> Vec<WarehouseId> {
        self.tenants
            .read()
            .expect("tenant registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Deregister `id`, wait for its request in progress, and return the
    /// planner type-erased; `downcast` it to the concrete type for
    /// post-run inspection. `None` when the id is unknown.
    ///
    /// Connections still holding the tenant's `Arc` get shutting-down
    /// answers from then on — the registry drops its entry first, so new
    /// lookups fail fast. A planner that panicked is handed back as it was
    /// left.
    pub fn remove(&self, id: &str) -> Option<Box<dyn Any + Send>> {
        let tenant = self
            .tenants
            .write()
            .expect("tenant registry lock")
            .remove(id)?;
        let planner = tenant
            .planner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("tenant removed twice — registry entry was duplicated");
        // Journal the close only after the last request finished: every
        // commit the tenant ever made is on disk before its close record.
        if let Some(j) = &tenant.journal {
            j.close();
        }
        Some(planner.into_any())
    }

    /// Drain every tenant — remove each in id order, dropping
    /// the recovered planners — then seal the journal (final fsync). The
    /// graceful-shutdown path of the daemon's SIGTERM handling; returns
    /// how many tenants were drained.
    pub fn drain_all(&self) -> usize {
        let mut drained = 0;
        for id in self.ids() {
            if self.remove(&id).is_some() {
                drained += 1;
            }
        }
        if let Some(j) = self.journal() {
            j.seal();
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_warehouse::request::QueryKind;
    use carp_warehouse::types::Cell;
    use std::time::Duration;

    struct Echo;

    impl Planner for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn plan(&mut self, req: &Request) -> PlanOutcome {
            PlanOutcome::Planned(Route::stationary(req.t, req.origin))
        }
        fn advance(&mut self, _now: Time) -> Vec<(RequestId, Route)> {
            Vec::new()
        }
        fn cancel(&mut self, _id: RequestId) -> bool {
            false
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    /// Test double: plans a stationary route after `delay`, and records
    /// what it planned and cancelled.
    #[derive(Default)]
    struct Stub {
        delay: Duration,
        planned: usize,
        cancelled: Vec<RequestId>,
    }

    impl Planner for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn plan(&mut self, req: &Request) -> PlanOutcome {
            std::thread::sleep(self.delay);
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

    fn with_deadline(deadline: Option<Duration>) -> ServiceConfig {
        ServiceConfig {
            deadline,
            ..ServiceConfig::default()
        }
    }

    fn take_stub(reg: &TenantRegistry, id: &str) -> Stub {
        *reg.remove(id)
            .expect("registered")
            .downcast::<Stub>()
            .expect("stub planner")
    }

    #[test]
    fn register_lookup_remove_cycle() {
        let reg = TenantRegistry::new();
        reg.register("W-1", Echo, ServiceConfig::default());
        reg.register("W-2", Echo, ServiceConfig::default());
        assert_eq!(reg.ids(), vec!["W-1".to_string(), "W-2".to_string()]);
        assert!(reg.get("W-1").is_some());
        assert!(reg.get("W-9").is_none());

        let planner = reg.remove("W-1").expect("registered");
        assert!(planner.downcast::<Echo>().is_ok());
        assert!(reg.get("W-1").is_none());
        assert!(reg.remove("W-1").is_none());
        reg.remove("W-2").expect("registered");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let reg = TenantRegistry::new();
        let _t1 = reg.register("W-1", Echo, ServiceConfig::default());
        let _t2 = reg.register("W-1", Echo, ServiceConfig::default());
    }

    #[test]
    fn plans_flow_through_and_remove_returns_planner() {
        let reg = TenantRegistry::new();
        let tenant = reg.register("W-1", Stub::default(), ServiceConfig::default());
        for i in 0..10 {
            let response = tenant.submit(&req(i), Instant::now()).expect("live tenant");
            assert!(matches!(response, PlanResponse::Planned(_)));
        }
        let m = tenant.metrics();
        assert_eq!(m.planned, 10);
        assert_eq!(m.submitted, 10);
        assert_eq!(m.planning_latency.count, 10);
        assert_eq!(m.turnaround_latency.count, 10);
        assert_eq!(m.rejected_backpressure, 0);
        assert_eq!(take_stub(&reg, "W-1").planned, 10);
    }

    #[test]
    fn removed_tenant_refuses_new_submissions() {
        let reg = TenantRegistry::new();
        let tenant = reg.register("W-1", Stub::default(), ServiceConfig::default());
        reg.remove("W-1").expect("registered");
        assert_eq!(
            tenant.submit(&req(0), Instant::now()),
            Err(SubmitError::ShuttingDown)
        );
        assert!(tenant.advance(5).is_empty());
        assert!(!tenant.cancel(0));
        assert_eq!(tenant.metrics().submitted, 0);
    }

    #[test]
    fn over_budget_plans_are_cancelled_not_committed() {
        // The plan itself outlasts the budget: the request passes the shed
        // check on arrival and overruns inside `plan`.
        let deadline = Duration::from_millis(50);
        let reg = TenantRegistry::new();
        let stub = Stub {
            delay: 2 * deadline,
            ..Stub::default()
        };
        let tenant = reg.register("W-1", stub, with_deadline(Some(deadline)));
        let response = tenant.submit(&req(0), Instant::now()).expect("live tenant");
        assert_eq!(response, PlanResponse::DeadlineOverrun);
        let m = tenant.metrics();
        assert_eq!(m.cancelled_deadline, 1);
        assert_eq!(m.planned, 0);
        assert_eq!(m.commit_latency.count, 0);
        let stub = take_stub(&reg, "W-1");
        assert_eq!(stub.planned, 1);
        assert_eq!(stub.cancelled, vec![0], "route must be uncommitted");
    }

    #[test]
    fn request_received_past_its_deadline_is_shed_unplanned() {
        let deadline = Duration::from_millis(5);
        let reg = TenantRegistry::new();
        let tenant = reg.register("W-1", Stub::default(), with_deadline(Some(deadline)));
        let received = Instant::now();
        while received.elapsed() <= deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let response = tenant.submit(&req(0), received).expect("live tenant");
        assert_eq!(response, PlanResponse::DeadlineShed);
        let m = tenant.metrics();
        assert_eq!((m.submitted, m.shed_deadline), (1, 1));
        assert_eq!(m.planning_latency.count, 0);
        assert_eq!(m.turnaround_latency.count, 1);
        assert_eq!(
            take_stub(&reg, "W-1").planned,
            0,
            "shed request was planned"
        );
    }

    #[test]
    fn a_panicking_planner_answers_service_died_from_then_on() {
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
        let reg = TenantRegistry::new();
        let tenant = reg.register("W-1", PanicStub, with_deadline(None));
        let other = reg.register("W-2", Echo, with_deadline(None));
        for id in 0..2 {
            let response = tenant.submit(&req(id), Instant::now());
            assert_eq!(response, Ok(PlanResponse::ServiceDied));
        }
        assert!(
            tenant.advance(1).is_empty(),
            "a dead tenant revises nothing"
        );
        // The panic stayed inside its tenant: the calling thread and the
        // other tenant carry on.
        let response = other.submit(&req(9), Instant::now()).expect("live tenant");
        assert!(response.route().is_some());
        let planner = reg.remove("W-1").expect("a dead tenant is still removable");
        assert!(planner.downcast::<PanicStub>().is_ok());
    }

    #[test]
    fn tally_snapshot_counts() {
        let tally = WireTally::default();
        tally.frame_received(20);
        tally.frame_received(30);
        tally.frame_sent(12);
        tally.protocol_error();
        let snap = tally.snapshot();
        assert_eq!(snap.frames_received, 2);
        assert_eq!(snap.bytes_received, 50);
        assert_eq!(snap.frames_sent, 1);
        assert_eq!(snap.bytes_sent, 12);
        assert_eq!(snap.protocol_errors, 1);
    }
}
