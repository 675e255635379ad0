//! Retirement edge cases of the engine-backed SRP planner: cancellation
//! interleaved with batched `advance()` retirement, cancellation of
//! already-retired routes, and a property test pinning batched retirement
//! to a serially-retired twin planner.

use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::LayoutConfig;
use carp_warehouse::planner::{PlanOutcome, Planner};
use carp_warehouse::request::RequestId;
use carp_warehouse::route::Route;
use carp_warehouse::tasks::generate_requests;
use proptest::prelude::*;

fn planner() -> SrpPlanner {
    let layout = LayoutConfig::small().generate();
    SrpPlanner::new(layout.matrix, SrpConfig::default())
}

/// Plan a deterministic stream, returning `(id, route)` per commit.
fn plan_stream(p: &mut SrpPlanner, n: usize, seed: u64) -> Vec<(RequestId, Route)> {
    let layout = LayoutConfig::small().generate();
    let requests = generate_requests(&layout, n, 4.0, seed);
    let mut planned = Vec::new();
    for req in &requests {
        if let PlanOutcome::Planned(r) = p.plan(req) {
            planned.push((req.id, r));
        }
    }
    planned
}

#[test]
fn cancel_between_advances_excludes_the_route_from_later_retirement() {
    let mut p = planner();
    let planned = plan_stream(&mut p, 30, 9);
    assert!(planned.len() >= 25);
    let horizon = planned.iter().map(|(_, r)| r.end_time()).max().unwrap();

    // Retire the early half, cancel a still-active route from the late
    // half, then retire the rest: the cancelled id must not be retired
    // again (its queue entry is gone) and every segment must come out.
    let mid = planned[planned.len() / 2].1.end_time();
    p.advance(mid);
    let victim = planned
        .iter()
        .rev()
        .find(|(_, r)| r.end_time() >= mid)
        .map(|(id, _)| *id)
        .expect("a late route is still active");
    assert!(p.cancel(victim), "cancel of an active route");
    assert!(!p.cancel(victim), "second cancel refuses");
    p.advance(horizon + 1);
    assert_eq!(p.total_segments(), 0, "every segment released");
    assert_eq!(p.active_routes(), 0);
}

#[test]
fn cancel_of_an_already_retired_route_refuses() {
    let mut p = planner();
    let planned = plan_stream(&mut p, 12, 5);
    let (first_id, first_route) = planned.first().cloned().expect("planned");
    // Retire it through the batch path, then cancel.
    p.advance(first_route.end_time() + 1);
    assert!(!p.cancel(first_id), "cancel after retirement must refuse");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched retirement (one `advance` draining many routes through one
    /// engine removal pass) leaves exactly the state of a twin planner that
    /// retires the same routes one at a time.
    #[test]
    fn batched_retirement_matches_a_serially_retired_twin(
        seed in 0u64..500,
        n in 10usize..28,
        cut in 1u32..200,
    ) {
        let mut batched = planner();
        let planned = plan_stream(&mut batched, n, seed);
        // The twin replays the identical stream (planning is deterministic,
        // so both planners hold bit-identical committed state)...
        let mut serial = planner();
        let twin = plan_stream(&mut serial, n, seed);
        prop_assert_eq!(&planned, &twin, "planning must be deterministic");

        // ...then both retire everything ending before `cut`: one in a
        // single batched advance, the other route by route via cancel()
        // (which runs the same path with singleton batches).
        batched.advance(cut);
        for (id, route) in &twin {
            if route.end_time() < cut {
                prop_assert!(serial.cancel(*id));
            }
        }
        prop_assert_eq!(batched.total_segments(), serial.total_segments());
        prop_assert_eq!(batched.active_routes(), serial.active_routes());
    }
}
