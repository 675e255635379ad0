//! Property tests for the intra-strip backtracking planner (Algorithm 2),
//! checked against an independent brute-force 1-D space-time BFS.

use carp_geometry::{earliest_collision_reference, Segment, SegmentStore, SlopeIndexStore};
#[cfg(debug_assertions)]
use carp_srp::intra::{arrival_at, plan_within_reference, IntraSweep};
use carp_srp::intra::{plan_within, plan_within_cost, IntraConfig};
use carp_warehouse::types::Time;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

const STRIP_LEN: i32 = 12;

fn arb_population() -> impl Strategy<Value = Vec<Segment>> {
    arb_segments(0..8)
}

fn arb_segments(count: core::ops::Range<usize>) -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(
        (1u32..30, 1i32..STRIP_LEN, 0usize..3, 0u32..8).prop_map(
            |(t0, s0, kind, span)| match kind {
                0 => Segment::wait(t0, t0 + span, s0),
                1 => Segment::travel(t0, s0, (s0 + span as i32).min(STRIP_LEN - 1)),
                _ => Segment::travel(t0, s0, (s0 - span as i32).max(0)),
            },
        ),
        count,
    )
}

/// Brute-force optimal arrival for a forward-only robot on a 1-D strip:
/// BFS over (time, position) with moves {wait, +1 toward goal}, colliding
/// states pruned via discrete occupancy of the population. Mirrors the
/// search space restrictions of Algorithm 2 (no backward moves) so its
/// optimum is the exact reference for `plan_within`.
fn brute_force_arrival(
    population: &[Segment],
    t0: Time,
    from: i32,
    to: i32,
    max_t: Time,
) -> Option<Time> {
    let dir = if to >= from { 1 } else { -1 };
    let occupied =
        |t: Time, s: i32| -> bool { population.iter().any(|seg| seg.pos_at(t) == Some(s)) };
    let swap = |t: Time, a: i32, b: i32| -> bool {
        population
            .iter()
            .any(|seg| seg.pos_at(t) == Some(b) && seg.pos_at(t + 1) == Some(a))
    };
    if occupied(t0, from) {
        return None;
    }
    let mut queue = VecDeque::new();
    let mut seen = HashSet::new();
    queue.push_back((t0, from));
    seen.insert((t0, from));
    while let Some((t, p)) = queue.pop_front() {
        if p == to {
            return Some(t);
        }
        if t >= max_t {
            continue;
        }
        // BFS explores in time order: first goal pop is optimal.
        for np in [p, p + dir] {
            if (np - from).abs() > (to - from).abs() {
                continue;
            }
            if occupied(t + 1, np) || (np != p && swap(t, p, np)) {
                continue;
            }
            if seen.insert((t + 1, np)) {
                queue.push_back((t + 1, np));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any route the backtracking returns is collision-free against the
    /// population (ground-truth discrete expansion) and arrives no earlier
    /// than the brute-force optimum of the same restricted search space.
    #[test]
    fn backtracking_is_sound_and_not_superoptimal(population in arb_population(), from in 0i32..STRIP_LEN, to in 0i32..STRIP_LEN) {
        let mut store = SlopeIndexStore::new();
        for s in &population {
            store.insert(*s);
        }
        let cfg = IntraConfig { max_wait: 40, max_nodes: 4096 };
        let t0 = 0;
        // Skip instances whose entry point is contested (the planner's
        // caller probes that first).
        prop_assume!(store.earliest_collision(&Segment::point(t0, from)).is_none());
        let result = plan_within(&store, t0, from, to, &cfg);
        let optimal = brute_force_arrival(&population, t0, from, to, 120);
        if let Some(route) = &result {
            // Soundness: no segment of the plan collides with any of the
            // population, by brute-force expansion.
            for seg in &route.segments {
                for other in &population {
                    prop_assert_eq!(earliest_collision_reference(seg, other), None,
                        "planned {} collides with {}", seg, other);
                }
            }
            prop_assert_eq!(route.destination(), to);
            // Never better than the restricted-space optimum.
            let opt = optimal.expect("a feasible plan implies brute-force feasibility");
            prop_assert!(route.arrive >= opt, "arrive {} beats optimum {}", route.arrive, opt);
        } else {
            // Incompleteness is allowed (greedy stop points), but only when
            // the instance is actually hard: if the brute force finds an
            // immediate unobstructed straight line, backtracking must too.
            if let Some(opt) = optimal {
                prop_assert!(
                    opt > t0 + (to - from).unsigned_abs(),
                    "backtracking missed the trivially free straight line (opt {})",
                    opt
                );
            }
        }
    }

    /// The allocation-free cost query agrees exactly with the full planner.
    #[test]
    fn cost_query_matches_full_plan(population in arb_population(), from in 0i32..STRIP_LEN, to in 0i32..STRIP_LEN) {
        let mut store = SlopeIndexStore::new();
        for s in &population {
            store.insert(*s);
        }
        let cfg = IntraConfig::default();
        prop_assume!(store.earliest_collision(&Segment::point(0, from)).is_none());
        let full = plan_within(&store, 0, from, to, &cfg).map(|r| r.arrive);
        let cost = plan_within_cost(&store, 0, from, to, &cfg);
        prop_assert_eq!(full, cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One pass toward either end of the strip prices every offset on the
    /// way exactly as a reference search per offset does, and a pass toward
    /// one offset plans the reference's polyline — with the default node
    /// cap and with one small enough to be hit.
    #[cfg(debug_assertions)]
    #[test]
    fn sweep_matches_reference_search_per_exit(
        population in arb_segments(0..16),
        from in 0i32..STRIP_LEN,
        t0 in 0u32..12,
        small_cap in 0u8..2,
    ) {
        let mut store = SlopeIndexStore::new();
        for s in &population {
            store.insert(*s);
        }
        prop_assume!(store.earliest_collision(&Segment::point(t0, from)).is_none());
        let cfg = if small_cap == 1 {
            IntraConfig { max_wait: 8, max_nodes: 4 }
        } else {
            IntraConfig::default()
        };
        for end in [0, STRIP_LEN - 1] {
            if end == from {
                continue;
            }
            let mut sweep = IntraSweep::default();
            let nodes = sweep.run(&store, t0, from, end, &cfg);
            prop_assert!(nodes <= cfg.max_nodes);
            let (lo, hi) = (from.min(end), from.max(end));
            for x in (lo..=hi).filter(|&x| x != from) {
                let (reference, _) = plan_within_reference(&store, t0, from, x, &cfg);
                let arrive = reference.as_ref().map(|r| r.arrive);
                prop_assert_eq!(arrival_at(sweep.covers(), from, x), arrive, "{}→{}", from, x);
                prop_assert_eq!(plan_within_cost(&store, t0, from, x, &cfg), arrive);
                prop_assert_eq!(plan_within(&store, t0, from, x, &cfg), reference);
            }
        }
    }
}
