//! Replay: folding changeset records back into planning state.
//!
//! Three consumers share the fold:
//!
//! * [`ReplayState`] — the pure, comparable residue of a log (active
//!   routes, counters, clocks per tenant, the epoch). Tests fold two logs
//!   into it to compare them: a primary's file against a standby's, or a
//!   file against the op stream that wrote it.
//! * [`recover_planners`] — the warm standby: rebuilds real
//!   [`ReplayPlanner`]s (committed segments, reservation layers and all)
//!   by replaying adopt/cancel/advance/revise in log order.
//! * [`audit_log`] — a strict collision audit of the recovered history:
//!   replays every route into per-tenant [`IncrementalAuditor`]s and
//!   reports the first conflict, proving the log never certified a
//!   colliding day.
//!
//! [`requests_in_log`] extracts the committed request stream, which is
//! what makes the changeset log a strict superset of the `ReproBundle`
//! replay format: a bundle is just a log slice projected onto its
//! requests (see [`bundle_from_log`]).

use super::record::{ChangeOp, ChangeRecord};
use carp_simenv::audit::ReproBundle;
use carp_warehouse::collision::{AuditConflict, IncrementalAuditor};
use carp_warehouse::layout::LayoutConfig;
use carp_warehouse::planner::ReplayPlanner;
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use std::collections::BTreeMap;

/// One tenant's replay-relevant residue of a record prefix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantState {
    /// Simulated clock (last `Advance` applied).
    pub now: Time,
    /// Active (committed, not yet retired/cancelled) routes with the
    /// requests that produced them.
    pub active: BTreeMap<RequestId, (Request, Route)>,
    /// Total commits journaled for this tenant.
    pub committed: u64,
    /// Total cancels journaled.
    pub cancelled: u64,
    /// Total route revisions journaled.
    pub revised: u64,
    /// Routes retired by clock advances.
    pub retired: u64,
}

/// The replay-relevant residue of a record prefix: per-tenant state plus
/// the last sequence number folded in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayState {
    /// Per-tenant state, keyed by tenant id. Closed tenants are removed.
    pub tenants: BTreeMap<String, TenantState>,
    /// Sequence number of the last record applied (0 = none).
    pub last_seq: u64,
    /// Leadership epoch in force after the last record (1 when the log
    /// predates fencing — an epoch-free log is epoch 1 by definition).
    pub epoch: u64,
}

impl Default for ReplayState {
    fn default() -> Self {
        ReplayState {
            tenants: BTreeMap::new(),
            last_seq: 0,
            epoch: 1,
        }
    }
}

impl ReplayState {
    /// Fold an iterator of records into a fresh state.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a ChangeRecord>) -> Self {
        let mut state = ReplayState::default();
        for rec in records {
            state.apply(rec);
        }
        state
    }

    /// Apply one record.
    pub fn apply(&mut self, rec: &ChangeRecord) {
        self.last_seq = rec.seq;
        match &rec.op {
            ChangeOp::TenantOpen => {
                // Re-open (standby takeover) keeps accumulated state.
                self.tenants.entry(rec.tenant.clone()).or_default();
            }
            ChangeOp::TenantClose => {
                self.tenants.remove(&rec.tenant);
            }
            ChangeOp::Commit { request, route } => {
                let t = self.tenants.entry(rec.tenant.clone()).or_default();
                t.active.insert(request.id, (*request, route.clone()));
                t.committed += 1;
            }
            ChangeOp::Cancel { id } => {
                if let Some(t) = self.tenants.get_mut(&rec.tenant) {
                    if t.active.remove(id).is_some() {
                        t.cancelled += 1;
                    }
                }
            }
            ChangeOp::Advance { now } => {
                let t = self.tenants.entry(rec.tenant.clone()).or_default();
                let before = t.active.len();
                t.active.retain(|_, (_, route)| route.end_time() >= *now);
                t.retired += (before - t.active.len()) as u64;
                t.now = *now;
            }
            ChangeOp::Revise { id, route } => {
                if let Some(t) = self.tenants.get_mut(&rec.tenant) {
                    if let Some(slot) = t.active.get_mut(id) {
                        slot.1 = route.clone();
                        t.revised += 1;
                    }
                }
            }
            ChangeOp::Epoch(epoch) => {
                // Epochs only move forward; a stale bump in the stream is
                // ignored rather than rewinding the fence.
                self.epoch = self.epoch.max(*epoch);
            }
        }
    }
}

/// Rebuild per-tenant planner replicas from a decoded log: the warm
/// standby's core. `factory` makes an empty planner for a tenant id; the
/// replay then drives it through the same adopt/cancel/advance sequence
/// the authoritative planner committed, so the replica's committed
/// segments and reservations are bit-identical to the primary's at the
/// moment of its last append.
pub fn recover_planners<P, F>(records: &[ChangeRecord], mut factory: F) -> BTreeMap<String, P>
where
    P: ReplayPlanner,
    F: FnMut(&str) -> P,
{
    let mut planners: BTreeMap<String, P> = BTreeMap::new();
    // Revision records precede their Advance in the log (the journal
    // writes them in commit order), but planner replay must run the
    // advance *first* — the planner may propose its own revisions there,
    // which are discarded — and then re-impose the log's authoritative
    // revised routes via cancel + adopt. Buffer revisions per tenant
    // until that tenant's next Advance.
    let mut pending_revisions: BTreeMap<String, Vec<(RequestId, Route)>> = BTreeMap::new();
    for rec in records {
        match &rec.op {
            ChangeOp::TenantOpen => {
                planners
                    .entry(rec.tenant.clone())
                    .or_insert_with(|| factory(&rec.tenant));
            }
            ChangeOp::TenantClose => {
                planners.remove(&rec.tenant);
                pending_revisions.remove(&rec.tenant);
            }
            ChangeOp::Commit { request, route } => {
                if let Some(p) = planners.get_mut(&rec.tenant) {
                    p.adopt(request.id, route);
                }
            }
            ChangeOp::Cancel { id } => {
                if let Some(p) = planners.get_mut(&rec.tenant) {
                    p.cancel(*id);
                }
            }
            ChangeOp::Advance { now } => {
                if let Some(p) = planners.get_mut(&rec.tenant) {
                    let _own = p.advance(*now);
                    for (id, route) in pending_revisions.remove(&rec.tenant).unwrap_or_default() {
                        p.cancel(id);
                        p.adopt(id, &route);
                    }
                }
            }
            ChangeOp::Revise { id, route } => {
                if planners.contains_key(&rec.tenant) {
                    pending_revisions
                        .entry(rec.tenant.clone())
                        .or_default()
                        .push((*id, route.clone()));
                }
            }
            // Epoch bumps carry no planning state.
            ChangeOp::Epoch(_) => {}
        }
    }
    // A log torn between a tenant's Revise records and its Advance still
    // carries authoritative routes: impose any left-over revisions.
    for (tenant, revisions) in pending_revisions {
        if let Some(p) = planners.get_mut(&tenant) {
            for (id, route) in revisions {
                p.cancel(id);
                p.adopt(id, &route);
            }
        }
    }
    planners
}

/// Strict collision audit of a decoded log: replay every tenant's route
/// history through an [`IncrementalAuditor`] and return the first
/// conflict (with the offending tenant), or `Ok` when the whole log is
/// collision-free — the recovery-time analogue of the simulator's
/// `--strict-audit` gate.
pub fn audit_log(records: &[ChangeRecord]) -> Result<(), (String, AuditConflict)> {
    let mut auditors: BTreeMap<&str, IncrementalAuditor> = BTreeMap::new();
    for rec in records {
        match &rec.op {
            ChangeOp::TenantOpen => {
                auditors.entry(rec.tenant.as_str()).or_default();
            }
            ChangeOp::TenantClose => {
                auditors.remove(rec.tenant.as_str());
            }
            ChangeOp::Commit { request, route } => {
                let a = auditors.entry(rec.tenant.as_str()).or_default();
                a.commit(request.id, route)
                    .map_err(|c| (rec.tenant.clone(), c))?;
            }
            ChangeOp::Cancel { id } => {
                if let Some(a) = auditors.get_mut(rec.tenant.as_str()) {
                    a.cancel(*id);
                }
            }
            ChangeOp::Advance { now } => {
                if let Some(a) = auditors.get_mut(rec.tenant.as_str()) {
                    let done: Vec<_> = a
                        .routes()
                        .filter(|(_, r)| r.end_time() < *now)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in done {
                        a.retire(id);
                    }
                }
            }
            ChangeOp::Revise { id, route } => {
                let a = auditors.entry(rec.tenant.as_str()).or_default();
                a.cancel(*id);
                a.commit(*id, route).map_err(|c| (rec.tenant.clone(), c))?;
            }
            // Epoch bumps carry no routes to audit.
            ChangeOp::Epoch(_) => {}
        }
    }
    Ok(())
}

/// The committed request stream of one tenant, in commit order.
pub fn requests_in_log(records: &[ChangeRecord], tenant: &str) -> Vec<Request> {
    records
        .iter()
        .filter(|r| r.tenant == tenant)
        .filter_map(|r| match &r.op {
            ChangeOp::Commit { request, .. } => Some(*request),
            _ => None,
        })
        .collect()
}

/// Derive a [`ReproBundle`] from a log slice: the committed request
/// stream of `tenant` plus a note naming the source log. This is the
/// subsumption direction — any journaled day can be turned into the
/// older replay format, while the log additionally carries the committed
/// routes, cancels, revisions and clock, which a bundle cannot express.
pub fn bundle_from_log(
    layout: LayoutConfig,
    records: &[ChangeRecord],
    tenant: &str,
) -> ReproBundle {
    ReproBundle {
        layout,
        requests: requests_in_log(records, tenant),
        conflict: format!("derived from changeset log slice (tenant {tenant})"),
        provenance: Vec::new(),
        timeline: String::new(),
    }
}
