//! Tenants: one planning service per warehouse, behind one registry.
//!
//! A [`Tenant`] owns everything one warehouse needs — its engine (via the
//! planner inside a [`PlanningService`]), its planning worker, its metrics,
//! and its wire-traffic tally — keyed by a [`WarehouseId`]. The
//! [`TenantRegistry`] maps ids to tenants and is the only shared state
//! between warehouses: each tenant has its own bounded queue and worker,
//! so backpressure, deadlines and commit order are all **per tenant**.
//! That isolation is the multi-tenant determinism argument (DESIGN.md
//! §14): a tenant's committed route set is a function of its own admission
//! order alone, so serving W-1 and W-2 from one daemon cannot change either
//! one's routes — concurrent tenants only contend for CPU time, never for
//! planner state.
//!
//! The registry deliberately exposes planners only through
//! [`TenantRegistry::remove`], which shuts the tenant's service down and
//! returns the planner as `Box<dyn Any>` for typed recovery — while a
//! tenant is live, *all* traffic goes through its service client (and, one
//! layer up, through the wire protocol).

use crate::service::{PlanningService, ServiceClient, ServiceConfig};
use crate::wal::{TenantJournal, WalJournal};
use carp_warehouse::planner::Planner;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

type PlannerRecovery = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>;

/// One warehouse: its running planning service plus wire accounting.
pub struct Tenant {
    id: WarehouseId,
    client: ServiceClient,
    wire: Arc<WireTally>,
    /// The tenant's handle on the daemon's changeset journal, when one is
    /// attached — used to seal the tenant's history on deregistration.
    journal: Option<TenantJournal>,
    /// Consumed by [`TenantRegistry::remove`]: shuts the service down and
    /// yields the planner, type-erased (the registry is heterogeneous).
    shutdown: Mutex<Option<PlannerRecovery>>,
}

impl Tenant {
    fn new<P: Planner + Send + 'static>(
        id: WarehouseId,
        svc: PlanningService<P>,
        journal: Option<TenantJournal>,
    ) -> Self {
        let client = svc.client();
        Tenant {
            id,
            client,
            wire: Arc::new(WireTally::default()),
            journal,
            shutdown: Mutex::new(Some(Box::new(move || Box::new(svc.shutdown())))),
        }
    }

    /// The warehouse id this tenant serves.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The tenant's service client — how the ingest front-end reaches its
    /// queue.
    pub fn client(&self) -> &ServiceClient {
        &self.client
    }

    /// The tenant's wire-traffic tally.
    pub fn wire(&self) -> &Arc<WireTally> {
        &self.wire
    }

    fn take_shutdown(&self) -> Option<PlannerRecovery> {
        self.shutdown.lock().expect("tenant shutdown lock").take()
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

    /// Register a tenant: spawn its planning service around `planner`.
    ///
    /// # Panics
    /// When `id` is already registered or longer than a wire `str16`, or
    /// when [`PlanningService::spawn`] refuses `config`.
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
        let journal = self.tenant_journal(&id);
        let svc = PlanningService::spawn_journaled(planner, config, journal.clone());
        let tenant = Arc::new(Tenant::new(id.clone(), svc, journal));
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

    /// Deregister `id`, shut its service down (draining the queue), and
    /// return the planner type-erased; `downcast` it to the concrete type
    /// for post-run inspection. `None` when the id is unknown.
    ///
    /// Connections still holding the tenant's `Arc` observe
    /// shutting-down acks from its client — the registry drops its entry
    /// first, so new lookups fail fast.
    pub fn remove(&self, id: &str) -> Option<Box<dyn Any + Send>> {
        let tenant = self
            .tenants
            .write()
            .expect("tenant registry lock")
            .remove(id)?;
        let recover = tenant
            .take_shutdown()
            .expect("tenant shutdown ran twice — registry entry was duplicated");
        let planner = recover();
        // Journal the close only after the service drained: every commit
        // the tenant ever made is on disk before its close record.
        if let Some(j) = &tenant.journal {
            j.close();
        }
        Some(planner)
    }

    /// Drain every tenant — shut each service down in id order, dropping
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
    use carp_warehouse::planner::{PlanOutcome, Planner};
    use carp_warehouse::request::{Request, RequestId};
    use carp_warehouse::route::Route;
    use carp_warehouse::types::Time;

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
