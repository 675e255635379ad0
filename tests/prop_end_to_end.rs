//! Workspace-level property tests: random layouts and random request
//! streams must always yield valid, mutually collision-free routes.

use proptest::prelude::*;
use srp_warehouse::prelude::*;
use srp_warehouse::warehouse::collision::{first_conflict, validate_routes};
use srp_warehouse::warehouse::layout::LayoutConfig;
use srp_warehouse::warehouse::types::Time;

/// Random but well-formed layout configurations.
fn arb_layout() -> impl Strategy<Value = LayoutConfig> {
    (2u16..5, 1u16..3, 1u16..3, 16u32..80).prop_map(|(cluster_len, col_gap, band_gap, racks)| {
        LayoutConfig {
            rows: 24,
            cols: 20,
            cluster_len,
            col_gap,
            band_gap,
            margin_top: 2,
            margin_bottom: 3,
            margin_left: 2,
            margin_right: 2,
            target_racks: racks,
            pickers: 4,
            robots: 6,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SRP plans collision-free streams on arbitrary regular layouts. Every
    /// commit is audited online; a refusal fails the case with the route's
    /// provenance and a replayable JSON repro.
    #[test]
    fn srp_streams_are_collision_free(cfg in arb_layout(), seed in 0u64..1000) {
        let layout = cfg.generate();
        let mut planner = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
        let requests = generate_requests(&layout, 40, 3.0, seed);
        let mut auditor = IncrementalAuditor::new();
        let mut routes = Vec::new();
        for req in &requests {
            if let PlanOutcome::Planned(r) = planner.plan(req) {
                prop_assert!(r.validate(&layout.matrix).is_ok());
                prop_assert!(r.start >= req.t);
                prop_assert_eq!(r.origin(), req.origin);
                prop_assert_eq!(r.destination(), req.destination);
                if let Err(c) = auditor.commit(req.id, &r) {
                    let provenance = vec![
                        format!("existing request {}: {}", c.existing,
                            planner.provenance(c.existing).unwrap_or_else(|| "unrecorded".into())),
                        format!("incoming request {}: {}", c.incoming,
                            planner.provenance(c.incoming).unwrap_or_else(|| "unrecorded".into())),
                    ];
                    let existing = auditor.route(c.existing).cloned().expect("committed");
                    let bundle = ReproBundle::new(cfg.clone(), requests.clone(), &c, &existing, &r, provenance);
                    prop_assert!(false, "seed {seed}: audit refused route: {c}\nrepro:\n{}", bundle.to_json());
                }
                routes.push(r);
            }
        }
        prop_assert!(routes.len() >= 36, "only {} of 40 planned", routes.len());
        prop_assert_eq!(validate_routes(&routes), None);
    }

    /// The strip graph partitions every generated layout exactly.
    #[test]
    fn strip_graph_partitions_random_layouts(cfg in arb_layout()) {
        let layout = cfg.generate();
        let graph = StripGraph::build(&layout.matrix);
        let mut seen = vec![0u32; graph.num_vertices()];
        for cell in layout.matrix.cells() {
            let sid = graph.strip_of(&layout.matrix, cell);
            let strip = graph.strip(sid);
            prop_assert!(strip.contains(cell));
            seen[sid as usize] += 1;
        }
        for (i, s) in graph.strips.iter().enumerate() {
            prop_assert_eq!(seen[i], s.len(), "strip {} cell count", i);
        }
    }

    /// Retirement never changes plan outcomes for non-overlapping eras:
    /// a request issued after everything finished gets an unobstructed
    /// shortest route.
    #[test]
    fn retirement_restores_clean_state(seed in 0u64..500) {
        let layout = LayoutConfig::small().generate();
        let mut planner = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
        let requests = generate_requests(&layout, 20, 4.0, seed);
        let mut last_end = 0;
        for req in &requests {
            if let PlanOutcome::Planned(r) = planner.plan(req) {
                last_end = last_end.max(r.end_time());
            }
        }
        planner.advance(last_end + 1);
        prop_assert_eq!(planner.total_segments(), 0);
        // A fresh request sees an empty warehouse.
        let free: Vec<Cell> = layout.matrix.cells().filter(|&c| layout.matrix.is_free(c)).collect();
        let (o, d) = (free[seed as usize % free.len()], free[(seed as usize * 7 + 3) % free.len()]);
        let req = Request::new(9_999, last_end + 1, o, d, QueryKind::Pickup);
        if let PlanOutcome::Planned(r) = planner.plan(&req) {
            // Traffic-free routes must start immediately and be within the
            // small geometric detour the greedy inter-strip transit can add
            // (§VII-A) — any residual *waiting* would betray stale state.
            prop_assert_eq!(r.start, req.t);
            prop_assert!(r.duration() >= o.manhattan(d));
            prop_assert!(
                r.duration() <= o.manhattan(d) + 6,
                "duration {} far above manhattan {}",
                r.duration(),
                o.manhattan(d)
            );
        }
    }
}

/// Random bounded walks in an 8×8 open grid: start time, start cell, then a
/// sequence of clamped moves (N/S/E/W/wait).
fn arb_route() -> impl Strategy<Value = Route> {
    (
        0u32..8,
        0u16..8,
        0u16..8,
        proptest::collection::vec(0u8..5, 1..20),
    )
        .prop_map(|(start, r0, c0, moves)| {
            let mut cells = vec![Cell::new(r0, c0)];
            for m in moves {
                let last = *cells.last().expect("nonempty");
                let next = match m {
                    0 => Cell::new(last.row.saturating_sub(1), last.col),
                    1 => Cell::new((last.row + 1).min(7), last.col),
                    2 => Cell::new(last.row, last.col.saturating_sub(1)),
                    3 => Cell::new(last.row, (last.col + 1).min(7)),
                    _ => last,
                };
                cells.push(next);
            }
            Route::new(start as Time, cells)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential check of the two ground-truth validators: the linear-pass
    /// batch `validate_routes` must agree with the exhaustive minimum over
    /// pairwise `first_conflict` on conflict existence, kind, time and the
    /// half-step ordering (a swap at `t` occurs at `t + ½`).
    #[test]
    fn batch_validator_agrees_with_pairwise_first_conflict(
        routes in proptest::collection::vec(arb_route(), 2..6)
    ) {
        let batch = validate_routes(&routes);
        let pairwise = routes
            .iter()
            .enumerate()
            .flat_map(|(i, a)| routes.iter().enumerate().skip(i + 1).map(move |(j, b)| ((i, j), a, b)))
            .filter_map(|(pair, a, b)| first_conflict(a, b).map(|c| (pair, c)))
            .min_by_key(|(_, c)| c.order_key());
        match (batch, pairwise) {
            (None, None) => {}
            (Some(b), Some((pair, p))) => {
                // The batch pass may attribute an equal-key conflict to a
                // different pair (its map keeps the first occupant only), but
                // the earliest kind/time — hence the order key — must match.
                prop_assert_eq!(b.kind, p.kind, "pairwise pair {:?}", pair);
                prop_assert_eq!(b.time, p.time, "pairwise pair {:?}", pair);
                prop_assert_eq!(b.order_key(), p.order_key());
            }
            (b, p) => prop_assert!(false, "batch {:?} vs pairwise {:?} disagree on existence", b, p),
        }
    }

    /// The incremental auditor is a faithful online mirror of the batch
    /// validator: sequential commits accept exactly a collision-free prefix
    /// set, and a commit → cancel → recommit round trip reproduces the same
    /// verdicts from the same state.
    #[test]
    fn auditor_round_trips_commit_cancel_recommit(
        routes in proptest::collection::vec(arb_route(), 2..6)
    ) {
        let mut auditor = IncrementalAuditor::new();
        let first: Vec<bool> = routes
            .iter()
            .enumerate()
            .map(|(i, r)| auditor.commit(i as u64, r).is_ok())
            .collect();
        // The accepted subset is collision-free by construction.
        let accepted: Vec<Route> = routes
            .iter()
            .zip(&first)
            .filter(|(_, &ok)| ok)
            .map(|(r, _)| r.clone())
            .collect();
        prop_assert_eq!(validate_routes(&accepted), None);
        // All-accepted iff the whole set is collision-free (batch verdict).
        prop_assert_eq!(first.iter().all(|&ok| ok), validate_routes(&routes).is_none());
        // Cancel everything: the auditor must drain completely.
        for (i, &ok) in first.iter().enumerate() {
            prop_assert_eq!(auditor.cancel(i as u64), ok);
        }
        prop_assert!(auditor.is_empty(), "{} routes still active", auditor.active());
        // Recommit in the same order: identical verdicts.
        let second: Vec<bool> = routes
            .iter()
            .enumerate()
            .map(|(i, r)| auditor.commit(i as u64, r).is_ok())
            .collect();
        prop_assert_eq!(first, second);
    }
}

/// The pinned seed-104 instance, frozen as a self-contained JSON
/// `ReproBundle` (regenerate with `cargo run --example pin_seed_104 --
/// --write`). `include_str!` makes a missing fixture a compile error.
const SEED_104_FIXTURE: &str = include_str!("../crates/srp/tests/fixtures/seed_104.json");

/// Pinned replay of the `srp_streams_are_collision_free` regression
/// (`tests/prop_end_to_end.proptest-regressions`, "shrinks to seed = 104").
/// The saved byte seed is RNG-specific, so the replay has two layers:
/// the explicit `ReproBundle` fixture freezing the densest instance
/// verbatim (immune to generator drift), then a walk of the whole
/// deterministic configuration grid of `arb_layout` at request seed 104 —
/// a superset of the instance that originally collided.
#[test]
fn seed_104_regression_replay() {
    // Layer 1: the frozen fixture. Replay its exact request stream; the
    // audit must stay clean.
    let bundle = ReproBundle::from_json(SEED_104_FIXTURE).expect("fixture parses");
    let layout = bundle.layout.generate();
    assert_eq!(
        bundle.requests,
        generate_requests(&layout, 40, 3.0, 104),
        "task generator drifted from the frozen seed-104 stream; if the \
         change is intentional, regenerate the fixture with \
         `cargo run --example pin_seed_104 -- --write`"
    );
    let mut planner = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let mut auditor = IncrementalAuditor::new();
    let mut routes = Vec::new();
    for req in &bundle.requests {
        if let PlanOutcome::Planned(r) = planner.plan(req) {
            assert!(r.validate(&layout.matrix).is_ok(), "fixture replay");
            auditor
                .commit(req.id, &r)
                .unwrap_or_else(|c| panic!("fixture replay: audit refused route: {c}"));
            routes.push(r);
        }
    }
    assert_eq!(validate_routes(&routes), None);

    // Layer 2: the deterministic configuration grid.
    for cluster_len in 2u16..5 {
        for col_gap in 1u16..3 {
            for band_gap in 1u16..3 {
                for target_racks in (16u32..80).step_by(7) {
                    let cfg = LayoutConfig {
                        rows: 24,
                        cols: 20,
                        cluster_len,
                        col_gap,
                        band_gap,
                        margin_top: 2,
                        margin_bottom: 3,
                        margin_left: 2,
                        margin_right: 2,
                        target_racks,
                        pickers: 4,
                        robots: 6,
                    };
                    let layout = cfg.generate();
                    let mut planner = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
                    let mut auditor = IncrementalAuditor::new();
                    let requests = generate_requests(&layout, 40, 3.0, 104);
                    let mut routes = Vec::new();
                    for req in &requests {
                        if let PlanOutcome::Planned(r) = planner.plan(req) {
                            assert!(r.validate(&layout.matrix).is_ok(), "cfg {cfg:?}");
                            if let Err(c) = auditor.commit(req.id, &r) {
                                panic!(
                                    "cfg {cfg:?}: {c}\n  existing: {}\n  incoming: {}",
                                    planner
                                        .provenance(c.existing)
                                        .unwrap_or_else(|| "unrecorded".into()),
                                    planner
                                        .provenance(c.incoming)
                                        .unwrap_or_else(|| "unrecorded".into()),
                                );
                            }
                            routes.push(r);
                        }
                    }
                    assert_eq!(validate_routes(&routes), None, "cfg {cfg:?}");
                }
            }
        }
    }
}
