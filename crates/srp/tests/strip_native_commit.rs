//! The strip-level planner builds each route's segments and crossings from
//! its legs in one pass instead of decomposing the finished grid route.
//! These streams hold what it commits to the grid route: for every
//! committed route, the provenance the planner reports (its strip chain,
//! crossings and segment count) must equal the one rebuilt from
//! `decompose(route)`. Debug builds also compare the full segment lists at
//! every commit; this check runs in release too.

use carp_srp::convert::decompose;
use carp_srp::{PlannerPath, Provenance, SrpConfig, SrpPlanner, StripId};
use carp_warehouse::layout::{Layout, LayoutConfig, WarehousePreset};
use carp_warehouse::tasks::generate_requests;
use carp_warehouse::{Planner, Route};

/// The provenance of `route` as `decompose` sees it, tagged with `path`.
fn decomposed(srp: &SrpPlanner, route: &Route, path: PlannerPath) -> Provenance {
    let dec = decompose(srp.matrix(), srp.graph(), route);
    let mut strips: Vec<StripId> = Vec::new();
    for &(sid, _) in &dec.segments {
        if strips.last() != Some(&sid) {
            strips.push(sid);
        }
    }
    Provenance {
        path,
        strips,
        crossings: dec.crossings,
        segments: dec.segments.len(),
    }
}

/// Replay `n` requests at `rate` (seed `seed`), retiring finished routes
/// before each plan, and check every committed route's provenance. Returns
/// `(strip-level routes, fallback routes)`.
fn replay(layout: &Layout, n: usize, rate: f64, seed: u64) -> (usize, usize) {
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let (mut strip_level, mut fallback) = (0, 0);
    for req in &generate_requests(layout, n, rate, seed) {
        srp.advance(req.t);
        let Some(route) = srp.plan(req).route().cloned() else {
            continue;
        };
        let got = srp.route_provenance(req.id).expect("committed");
        match got.path {
            PlannerPath::Fallback => fallback += 1,
            _ => strip_level += 1,
        }
        assert_eq!(
            got,
            decomposed(&srp, &route, got.path),
            "request {}",
            req.id
        );
    }
    (strip_level, fallback)
}

#[test]
fn w2_stream_commits_what_decompose_rebuilds() {
    // The pinned stream of `search_cut_pins_the_w2_stream_counts`.
    let (strip_level, fallback) = replay(&WarehousePreset::W2.generate(), 600, 4.0, 104);
    assert_eq!((strip_level, fallback), (600, 0));
}

#[test]
fn w1_stream_commits_what_decompose_rebuilds() {
    let (strip_level, _) = replay(&WarehousePreset::W1.generate(), 300, 4.0, 7);
    assert!(strip_level >= 290, "{strip_level}");
}

#[test]
fn w3_stream_commits_what_decompose_rebuilds() {
    let (strip_level, _) = replay(&WarehousePreset::W3.generate(), 300, 4.0, 11);
    assert!(strip_level >= 290, "{strip_level}");
}

#[test]
fn small_stream_commits_what_decompose_rebuilds() {
    // Congested enough to retry and fall back, so routes without legs are
    // checked too.
    let (strip_level, fallback) = replay(&LayoutConfig::small().generate(), 400, 8.0, 11);
    assert!(strip_level >= 300, "{strip_level}");
    assert!(fallback > 0, "the stream must reach the fallback");
}
