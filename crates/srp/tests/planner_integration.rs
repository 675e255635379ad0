//! End-to-end tests of the SRP planner against the ground-truth discrete
//! collision semantics (Definition 3).

use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::collision::validate_routes;
use carp_warehouse::layout::{LayoutConfig, WarehousePreset};
use carp_warehouse::tasks::{generate_requests, generate_tasks, DayProfile};
use carp_warehouse::types::Cell;
use carp_warehouse::{Planner, QueryKind, Request, Route, WarehouseMatrix};

fn toy_matrix() -> WarehouseMatrix {
    WarehouseMatrix::from_ascii(
        "......\n\
         .##.#.\n\
         .##.#.\n\
         ......\n\
         .##...\n\
         .##...\n\
         ......",
    )
}

#[test]
fn single_route_is_shortest_in_empty_traffic() {
    let mut srp = SrpPlanner::new(toy_matrix(), SrpConfig::default());
    let req = Request::new(0, 0, Cell::new(0, 0), Cell::new(6, 5), QueryKind::Pickup);
    let route = srp.plan(&req).route().cloned().expect("planned");
    assert!(route.validate(srp.matrix()).is_ok());
    assert_eq!(route.origin(), Cell::new(0, 0));
    assert_eq!(route.destination(), Cell::new(6, 5));
    // With no traffic the route must be a true shortest path.
    assert_eq!(route.duration(), 11);
}

#[test]
fn route_to_rack_destination_ends_on_rack() {
    let m = toy_matrix();
    let mut srp = SrpPlanner::new(m, SrpConfig::default());
    let rack = Cell::new(2, 1);
    let req = Request::new(0, 0, Cell::new(0, 0), rack, QueryKind::Pickup);
    let route = srp.plan(&req).route().cloned().expect("planned");
    assert_eq!(route.destination(), rack);
    assert!(route.validate(srp.matrix()).is_ok());
    // Only the final step may touch the rack.
    for &g in &route.grids[..route.grids.len() - 1] {
        assert!(srp.matrix().is_free(g));
    }
}

#[test]
fn route_from_rack_origin_leaves_laterally() {
    let m = toy_matrix();
    let mut srp = SrpPlanner::new(m, SrpConfig::default());
    let rack = Cell::new(1, 1);
    let req = Request::new(0, 3, rack, Cell::new(6, 0), QueryKind::Transmission);
    let route = srp.plan(&req).route().cloned().expect("planned");
    assert_eq!(route.origin(), rack);
    assert!(route.start >= 3);
    assert!(route.validate(srp.matrix()).is_ok());
}

#[test]
fn many_sequential_requests_are_mutually_collision_free() {
    let layout = LayoutConfig::small().generate();
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(&layout, 120, 3.0, 42);
    let mut routes: Vec<Route> = Vec::new();
    let mut infeasible = 0;
    for req in &requests {
        match srp.plan(req).route() {
            Some(r) => {
                assert!(
                    r.validate(srp.matrix()).is_ok(),
                    "invalid route for {req:?}"
                );
                assert!(r.start >= req.t);
                routes.push(r.clone());
            }
            None => infeasible += 1,
        }
    }
    assert!(routes.len() >= 110, "too many infeasible: {infeasible}");
    assert_eq!(
        validate_routes(&routes),
        None,
        "planner committed a collision"
    );
}

#[test]
fn contested_origin_postpones_departure() {
    let m = WarehouseMatrix::empty(3, 8);
    let mut srp = SrpPlanner::new(m, SrpConfig::default());
    // First robot sweeps the row through (0,0) arriving there at t=5.
    let r1 = srp
        .plan(&Request::new(
            0,
            0,
            Cell::new(0, 5),
            Cell::new(0, 0),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("planned");
    assert_eq!(r1.end_time(), 5);
    // Second robot wants to depart from (0,0) at t=5 — contested instant.
    let r2 = srp
        .plan(&Request::new(
            1,
            5,
            Cell::new(0, 0),
            Cell::new(2, 0),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("planned");
    assert_eq!(validate_routes(&[r1, r2.clone()]), None);
    assert!(r2.start > 5, "origin occupied at t=5 by the arrived robot");
}

#[test]
fn fallback_resolves_strip_level_dead_end() {
    // Single corridor with a side bay: a head-on meeting inside one strip is
    // unresolvable forward-only, so SRP must fall back to grid A*.
    let m = WarehouseMatrix::from_ascii(
        "######\n\
         ......\n\
         ###.##",
    );
    // With retries disabled the planner must resort to the grid A*.
    let mut srp = SrpPlanner::new(
        m.clone(),
        SrpConfig {
            retry_bumps: [0, 0, 0],
            ..SrpConfig::default()
        },
    );
    let r1 = srp
        .plan(&Request::new(
            0,
            0,
            Cell::new(1, 0),
            Cell::new(1, 5),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("eastbound");
    let r2 = srp
        .plan(&Request::new(
            1,
            0,
            Cell::new(1, 5),
            Cell::new(1, 0),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("westbound must succeed via fallback");
    assert_eq!(validate_routes(&[r1, r2]), None);
    assert!(srp.stats.fallbacks >= 1, "expected the A* fallback to fire");

    // With the default retry bumps the same dead end resolves inside the
    // strip framework: the westbound robot simply departs later.
    let mut srp = SrpPlanner::new(m, SrpConfig::default());
    let r1 = srp
        .plan(&Request::new(
            0,
            0,
            Cell::new(1, 0),
            Cell::new(1, 5),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("eastbound");
    let r2 = srp
        .plan(&Request::new(
            1,
            0,
            Cell::new(1, 5),
            Cell::new(1, 0),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("westbound via retry");
    assert_eq!(validate_routes(&[r1, r2]), None);
    assert_eq!(srp.stats.fallbacks, 0, "retry should avoid the fallback");
    assert!(srp.stats.retries >= 1);
}

#[test]
fn search_cut_pins_the_w2_stream_counts() {
    // W-2 at 4× (seed 104), retiring finished routes before each plan.
    // Before the strip search stopped at goal finality it drained its heap
    // after every failure (and after settling an aisle destination's
    // strip): 196788 strips settled over 243005 intra-strip calls, with the
    // same retries, fallback and routes as pinned here.
    const DRAINED: (usize, usize) = (196_788, 243_005);
    // Before the dead-region cut, a search whose destination side could not
    // be entered still ran until its heap was empty: 183847 strips settled
    // over 228046 intra-strip calls, with the same retries, fallback and
    // routes.
    const UNCUT: (usize, usize) = (183_847, 228_046);
    // Before one intra-strip pass per settled strip and direction priced
    // every exit, each priced exit ran its own backtracking search: 250962
    // nodes visited over the same intra-strip calls.
    const PER_EXIT_NODES: usize = 250_962;
    // Before the heuristic was weighted by 17/16, plain Manhattan tied the
    // open mesh's strips at one f value and the search popped that plateau:
    // 85402 strips settled over 117060 intra-strip calls and 22998
    // backtracking nodes, with 37 retries, 1 fallback and route digest
    // 14993411029761016964.
    const UNWEIGHTED: (usize, usize, usize) = (85_402, 117_060, 22_998);
    const UNWEIGHTED_RETRIES: (usize, usize) = (37, 1);
    const UNWEIGHTED_DIGEST: u64 = 14_993_411_029_761_016_964;
    let layout = WarehousePreset::W2.generate();
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let mut digest: u64 = 0;
    for req in &generate_requests(&layout, 600, 4.0, 104) {
        srp.advance(req.t);
        let route = srp.plan(req).route().cloned().expect("planned");
        for g in &route.grids {
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(g.row as u64 * 1000 + g.col as u64 + route.start as u64);
        }
    }
    let counts = (srp.stats.strips_settled, srp.stats.intra_calls);
    assert!(counts.0 < DRAINED.0 && counts.1 < DRAINED.1, "{counts:?}");
    assert!(counts.0 < UNCUT.0 && counts.1 < UNCUT.1, "{counts:?}");
    assert!(
        counts.0 < UNWEIGHTED.0 && counts.1 < UNWEIGHTED.1,
        "{counts:?}"
    );
    assert_eq!(counts, (53_561, 80_059));
    assert!(srp.stats.intra_nodes < PER_EXIT_NODES);
    assert!(srp.stats.intra_nodes < UNWEIGHTED.2);
    assert_eq!(srp.stats.intra_nodes, 14_160);
    let rescued = (srp.stats.retries, srp.stats.fallbacks);
    assert!(rescued.0 <= UNWEIGHTED_RETRIES.0 && rescued.1 <= UNWEIGHTED_RETRIES.1);
    assert_eq!(rescued, (34, 0));
    assert_ne!(digest, UNWEIGHTED_DIGEST);
    assert_eq!(digest, 10_757_745_757_430_395_957, "routes moved");
}

#[test]
fn dijkstra_pins_the_small_stream_counts() {
    // The plain-Dijkstra search (no heuristic) walks lanes through their
    // left and right walks only. Small layout at 4× (seed 2), retiring
    // finished routes before each plan; one request stays unplanned.
    // Before one intra-strip pass per settled strip and direction priced
    // every exit, a search per exit visited 124228 backtracking nodes.
    const PER_EXIT_NODES: usize = 124_228;
    let layout = LayoutConfig::small().generate();
    let config = SrpConfig {
        use_heuristic: false,
        ..SrpConfig::default()
    };
    let mut srp = SrpPlanner::new(layout.matrix.clone(), config);
    let mut digest: u64 = 0;
    let mut unplanned = 0;
    for req in &generate_requests(&layout, 600, 4.0, 2) {
        srp.advance(req.t);
        let Some(route) = srp.plan(req).route().cloned() else {
            unplanned += 1;
            continue;
        };
        for g in &route.grids {
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(g.row as u64 * 1000 + g.col as u64 + route.start as u64);
        }
    }
    let counts = (srp.stats.strips_settled, srp.stats.intra_calls);
    assert_eq!(counts, (47_927, 71_608));
    assert!(srp.stats.intra_nodes < PER_EXIT_NODES);
    assert_eq!(srp.stats.intra_nodes, 29_630);
    assert_eq!(
        (srp.stats.retries, srp.stats.fallbacks, unplanned),
        (251, 7, 1)
    );
    assert_eq!(digest, 5_824_274_689_000_189_070, "routes moved");
}

#[test]
fn advance_retires_finished_routes_and_frees_memory() {
    let layout = LayoutConfig::small().generate();
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(&layout, 40, 5.0, 7);
    let mut last_end = 0;
    for req in &requests {
        if let Some(r) = srp.plan(req).route() {
            last_end = last_end.max(r.end_time());
        }
    }
    let before = srp.memory_bytes();
    assert!(srp.total_segments() > 0);
    srp.advance(last_end + 1);
    assert_eq!(
        srp.total_segments(),
        0,
        "all routes finished, stores must drain"
    );
    assert_eq!(srp.active_routes(), 0);
    assert!(srp.memory_bytes() < before);
}

#[test]
fn retired_routes_no_longer_block() {
    let m = WarehouseMatrix::empty(2, 10);
    let mut srp = SrpPlanner::new(m, SrpConfig::default());
    let r1 = srp
        .plan(&Request::new(
            0,
            0,
            Cell::new(0, 0),
            Cell::new(0, 9),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("planned");
    srp.advance(r1.end_time() + 1);
    // A later request re-using the same corridor must get the unobstructed
    // shortest route.
    let r2 = srp
        .plan(&Request::new(
            1,
            r1.end_time() + 1,
            Cell::new(0, 9),
            Cell::new(0, 0),
            QueryKind::Pickup,
        ))
        .route()
        .cloned()
        .expect("planned");
    assert_eq!(r2.duration(), 9);
}

#[test]
fn stationary_request_is_a_point() {
    let mut srp = SrpPlanner::new(toy_matrix(), SrpConfig::default());
    let req = Request::new(0, 4, Cell::new(3, 3), Cell::new(3, 3), QueryKind::Return);
    let route = srp.plan(&req).route().cloned().expect("planned");
    assert_eq!(route.grids.len(), 1);
    assert_eq!(route.start, 4);
}

#[test]
fn heuristic_and_dijkstra_agree_on_route_duration() {
    let layout = LayoutConfig::small().generate();
    let requests = generate_requests(&layout, 60, 2.0, 99);
    let mut with_h = SrpPlanner::new(
        layout.matrix.clone(),
        SrpConfig {
            use_heuristic: true,
            ..SrpConfig::default()
        },
    );
    let mut without_h = SrpPlanner::new(
        layout.matrix.clone(),
        SrpConfig {
            use_heuristic: false,
            ..SrpConfig::default()
        },
    );
    // Edge weights depend on the entry cell of each strip, so A* and plain
    // Dijkstra may settle strips with different entry cells and produce
    // slightly different (both valid) routes; we check aggregate closeness
    // and the expansion saving, not per-route equality.
    let (mut dur_h, mut dur_d) = (0u64, 0u64);
    for req in &requests {
        if let Some(r) = with_h.plan(req).route() {
            dur_h += r.duration() as u64;
        }
        if let Some(r) = without_h.plan(req).route() {
            dur_d += r.duration() as u64;
        }
    }
    let gap = (dur_h as f64 - dur_d as f64).abs() / dur_d as f64;
    assert!(gap < 0.05, "heuristic shifted total durations by {gap:.3}");
    assert!(
        with_h.stats.strips_settled < without_h.stats.strips_settled,
        "heuristic should settle fewer strips ({} vs {})",
        with_h.stats.strips_settled,
        without_h.stats.strips_settled
    );
}

#[test]
fn instrumented_breakdown_adds_up() {
    let layout = LayoutConfig::small().generate();
    let mut srp = SrpPlanner::new(
        layout.matrix.clone(),
        SrpConfig {
            instrument: true,
            ..SrpConfig::default()
        },
    );
    for req in generate_requests(&layout, 50, 4.0, 5) {
        srp.plan(&req);
    }
    let s = srp.stats;
    assert!(s.intra_ns > 0, "intra bucket empty");
    assert!(s.convert_ns > 0, "convert bucket empty");
    assert!(s.inter_ns > 0, "inter bucket empty");
    assert!(s.intra_calls > 0);
}

/// Shortest grid distance from `o` to `d` in an empty warehouse: aisles
/// are open, racks only at the endpoints.
fn grid_distance(m: &WarehouseMatrix, o: Cell, d: Cell) -> u32 {
    let mut dist = vec![u32::MAX; m.num_cells()];
    let mut queue = std::collections::VecDeque::from([o]);
    dist[m.index_of(o) as usize] = 0;
    while let Some(c) = queue.pop_front() {
        let dc = dist[m.index_of(c) as usize];
        if c == d {
            return dc;
        }
        for n in m.neighbors(c) {
            if (m.is_free(n) || n == d) && dist[m.index_of(n) as usize] == u32::MAX {
                dist[m.index_of(n) as usize] = dc + 1;
                queue.push_back(n);
            }
        }
    }
    u32::MAX
}

#[test]
fn heuristic_gap_pins_the_empty_w2_leg_counts() {
    // A known gap, not a target: the inter-strip A* heuristic keys on a
    // strip's entry cell, but a strip keeps one label, so A* can settle a
    // strip before its earliest arrival is known and arrive later than
    // plain Dijkstra, even with no traffic (every edge weight FIFO).
    // Sample: the first 10 tasks of the W-2 day with seed 104 (300 tasks
    // over 3000 s); each rack→picker and picker→rack leg is planned at
    // t = 0 on a fresh, empty planner, with and without the heuristic.
    // On the first 152 tasks (304 legs) A* arrives later on 168 and earlier
    // on 10; against grid BFS, Dijkstra is exact on 266 and +2 on 38, A* is
    // exact on 127. A fix (multi-label strips) should move these pins
    // towards (0, 0) and Dijkstra's excess.
    let layout = WarehousePreset::W2.generate();
    let m = &layout.matrix;
    let tasks = generate_tasks(&layout, &DayProfile::new(3000, 300), 104);
    let arrival = |use_heuristic: bool, req: &Request| {
        let config = SrpConfig {
            use_heuristic,
            ..SrpConfig::default()
        };
        let route = SrpPlanner::new(m.clone(), config)
            .plan(req)
            .route()
            .cloned()
            .expect("planned");
        route.end_time()
    };
    let (mut later, mut earlier) = (0, 0);
    let (mut astar_excess, mut dijkstra_excess) = (0, 0);
    for task in &tasks[..10] {
        for (o, d, kind) in [
            (task.rack, task.picker, QueryKind::Transmission),
            (task.picker, task.rack, QueryKind::Return),
        ] {
            let req = Request::new(task.id, 0, o, d, kind);
            let (astar, dijkstra) = (arrival(true, &req), arrival(false, &req));
            let shortest = grid_distance(m, o, d);
            later += usize::from(astar > dijkstra);
            earlier += usize::from(astar < dijkstra);
            astar_excess += astar - shortest;
            dijkstra_excess += dijkstra - shortest;
        }
    }
    assert_eq!(
        (later, earlier),
        (13, 1),
        "A* later / earlier than Dijkstra"
    );
    assert_eq!(
        (astar_excess, dijkstra_excess),
        (74, 6),
        "steps over grid BFS"
    );
}
