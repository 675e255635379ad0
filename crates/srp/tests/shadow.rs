//! Differential shadow-store mode (feature `shadow-store`): the SRP
//! planner with [`ShadowStore`] runs the slope index and the naive ordered
//! set side by side, asserting identical collision answers on **every**
//! store query. Any divergence panics inside the store, so a green run is
//! a proof that the two collision back-ends agreed over the whole stream.
#![cfg(feature = "shadow-store")]

use carp_geometry::ShadowStore;
use carp_srp::{PlannerPath, SrpConfig, SrpPlanner};
use carp_warehouse::collision::{validate_routes, IncrementalAuditor};
use carp_warehouse::layout::{Layout, LayoutConfig, WarehousePreset};
use carp_warehouse::planner::{PlanOutcome, Planner};
use carp_warehouse::tasks::generate_requests;

/// Drive one request stream through a shadow-store planner: every store
/// query is differentially checked inside the store, every committed route
/// is audited online, and the surviving set is batch-validated at the end.
fn run_shadow_stream(layout: &Layout, n: usize, rate: f64, seed: u64) {
    let mut planner =
        SrpPlanner::<ShadowStore>::with_store(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(layout, n, rate, seed);
    let mut auditor = IncrementalAuditor::new();
    let mut routes = Vec::new();
    for req in &requests {
        planner.advance(req.t);
        if let PlanOutcome::Planned(r) = planner.plan(req) {
            if let Err(c) = auditor.commit(req.id, &r) {
                panic!(
                    "shadow-mode stream leaked a conflict: {c}\n  incoming provenance: {}\n  existing provenance: {}",
                    planner.provenance(c.incoming).unwrap_or_default(),
                    planner.provenance(c.existing).unwrap_or_default(),
                );
            }
            routes.push(r);
        }
    }
    assert!(
        routes.len() >= n - n / 20,
        "only {} of {} planned",
        routes.len(),
        requests.len()
    );
    assert_eq!(validate_routes(&routes), None);
}

#[test]
fn shadow_mode_validates_a_full_small_stream_without_divergence() {
    let layout = LayoutConfig::small().generate();
    let mut planner =
        SrpPlanner::<ShadowStore>::with_store(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(&layout, 120, 4.0, 42);
    let mut auditor = IncrementalAuditor::new();
    let mut routes = Vec::new();
    for req in &requests {
        if let PlanOutcome::Planned(r) = planner.plan(req) {
            // Online audit on top of the differential stores: the stores
            // agreeing is necessary, the routes being conflict-free is the
            // end-to-end guarantee.
            if let Err(c) = auditor.commit(req.id, &r) {
                panic!(
                    "shadow-mode stream leaked a conflict: {c}\n  incoming provenance: {}\n  existing provenance: {}",
                    planner.provenance(c.incoming).unwrap_or_default(),
                    planner.provenance(c.existing).unwrap_or_default(),
                );
            }
            routes.push(r);
        }
    }
    assert!(
        routes.len() >= 114,
        "only {} of {} planned",
        routes.len(),
        requests.len()
    );
    assert_eq!(validate_routes(&routes), None);
}

#[test]
fn shadow_mode_validates_w1_preset_stream() {
    let layout = WarehousePreset::W1.generate();
    run_shadow_stream(&layout, 150, 3.0, 104);
}

#[test]
fn shadow_mode_validates_w2_preset_stream() {
    let layout = WarehousePreset::W2.generate();
    run_shadow_stream(&layout, 120, 3.0, 21);
}

#[test]
fn shadow_mode_validates_w3_preset_stream() {
    let layout = WarehousePreset::W3.generate();
    run_shadow_stream(&layout, 100, 3.0, 35);
}

#[test]
fn shadow_mode_survives_a_cancellation_heavy_stream() {
    // Every third committed route is cancelled right after the next commit,
    // so batched removals constantly interleave with inserts and probes —
    // the retirement path the engine refactor most needs differential
    // coverage on.
    let layout = WarehousePreset::W1.generate();
    let mut planner =
        SrpPlanner::<ShadowStore>::with_store(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(&layout, 150, 4.0, 77);
    let mut live: Vec<(u64, carp_warehouse::route::Route)> = Vec::new();
    let mut kept = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        planner.advance(req.t);
        if let PlanOutcome::Planned(r) = planner.plan(req) {
            live.push((req.id, r));
        }
        if i % 3 == 2 {
            if let Some((id, _)) = live.pop() {
                assert!(planner.cancel(id), "cancel of a live route must succeed");
                assert!(!planner.cancel(id), "double cancel must refuse");
            }
        }
        while live.len() > 8 {
            kept.push(live.remove(0).1);
        }
    }
    kept.extend(live.into_iter().map(|(_, r)| r));
    // Cancelled routes are gone; what stayed committed must be mutually
    // conflict-free (cancellation never un-resolves surviving routes).
    assert_eq!(validate_routes(&kept), None);
    let horizon = kept.iter().map(|r| r.end_time()).max().unwrap_or(0);
    planner.advance(horizon + 1);
    assert_eq!(planner.total_segments(), 0);
}

#[test]
fn shadow_mode_supports_cancel_and_retirement() {
    let layout = LayoutConfig::small().generate();
    let mut planner =
        SrpPlanner::<ShadowStore>::with_store(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(&layout, 40, 3.0, 7);
    let mut planned = Vec::new();
    for req in &requests {
        if let PlanOutcome::Planned(r) = planner.plan(req) {
            assert!(planner
                .route_provenance(req.id)
                .is_some_and(|p| p.path != PlannerPath::External));
            planned.push((req.id, r));
        }
    }
    // Cancel every other route, then retire the rest via advance().
    for (i, (id, _)) in planned.iter().enumerate() {
        if i % 2 == 0 {
            assert!(planner.cancel(*id));
        }
    }
    let horizon = planned.iter().map(|(_, r)| r.end_time()).max().unwrap_or(0);
    planner.advance(horizon + 1);
    assert_eq!(
        planner.total_segments(),
        0,
        "all shadowed segments released"
    );
    assert_eq!(planner.active_routes(), 0);
}
