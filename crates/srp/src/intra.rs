//! Intra-strip route planning (§V-C, Algorithm 2) as one pass per strip
//! and direction.
//!
//! Algorithm 2 is a depth-first search over stop points. From a node
//! `(t, p)` it moves greedily towards its destination; when the move would
//! collide (earliest collision from the segment store) it stops right
//! before the collision, then tries waits of increasing length there, each
//! wait a child node. Moving *backward* is prohibited for efficiency
//! (§V-C), one of the three sub-optimality sources of §VII-A; requests that
//! this makes infeasible go to the caller's A\* fallback (§VI remarks).
//!
//! [`IntraSweep`] runs that search with an explicit frame stack toward an
//! *end* offset and records a [`Cover`] each time its collision-free reach
//! grows. One pass toward the strip's end prices every exit on the way:
//!
//! * Up to the first node whose move reaches exit `x`, the search toward
//!   `x` and the search toward the end visit the same nodes in the same
//!   order. The move toward `x` is a time prefix of the move toward the
//!   end, so both see the same earliest collision and stop at the same
//!   point while that point lies before `x`; the wait probe does not depend
//!   on the destination at all; and both count nodes alike, so both hit
//!   `max_nodes` at the same node.
//! * The search toward `x` ends at that first reaching node `(t, p)` with
//!   arrival `t + |x − p|`, which is what the cover answers.
//! * If no node reaches `x`, both searches visit the same nodes until they
//!   run out or hit the cap: `x` fails, and so does every offset beyond it.
//!
//! So a pass's covers answer any exit by binary search, exactly as a
//! separate call per exit would. [`plan_within`] and [`plan_within_cost`]
//! are passes whose end is the destination; the polyline of
//! [`plan_within`] is read off the frame stack at the node that reaches it.
//!
//! Unlike the paper's pseudocode, candidate segments are **not** inserted
//! into the shared store during the search: a robot's own consecutive
//! segments can never conflict with each other, so the store only ever
//! holds committed routes and the search is read-only (see DESIGN.md §6,
//! "Query/commit split").

use carp_geometry::store::SegmentStore;
use carp_geometry::{CollisionKind, Segment};
use carp_warehouse::memory;
use carp_warehouse::types::Time;

/// Limits on the backtracking search.
#[derive(Debug, Clone, Copy)]
pub struct IntraConfig {
    /// Longest single wait the search will consider at one stop point.
    pub max_wait: Time,
    /// Cap on search nodes (stop points examined) before giving up.
    pub max_nodes: usize,
}

impl Default for IntraConfig {
    fn default() -> Self {
        IntraConfig {
            max_wait: 48,
            max_nodes: 512,
        }
    }
}

/// A planned intra-strip route: a polyline of segments from the origin
/// grid number to the destination, consecutive in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraRoute {
    /// The polyline, ordered by time; adjacent segments share endpoints.
    pub segments: Vec<Segment>,
    /// Time the origin grid is first occupied.
    pub enter: Time,
    /// Time the destination grid is reached.
    pub arrive: Time,
}

impl IntraRoute {
    /// Duration `arrive − enter`.
    pub fn duration(&self) -> Time {
        self.arrive - self.enter
    }

    /// The destination grid number.
    pub fn destination(&self) -> i32 {
        self.segments.last().expect("non-empty").s1
    }

    /// Check internal consistency: contiguous, valid segments.
    pub fn is_well_formed(&self) -> bool {
        if self.segments.is_empty() {
            return false;
        }
        if self.segments[0].t0 != self.enter || self.segments.last().unwrap().t1 != self.arrive {
            return false;
        }
        self.segments.iter().all(|s| s.validate())
            && self
                .segments
                .windows(2)
                .all(|w| w[0].t1 == w[1].t0 && w[0].s1 == w[1].s0)
    }
}

/// One growth of a pass's collision-free reach: node `(t, p)` was the first
/// whose move reached offset `reach`. Every offset up to `reach` that no
/// earlier cover of the pass reaches is reached at `t + |x − p|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cover {
    /// Farthest offset the node's move reaches collision-free.
    pub reach: i32,
    /// The node's time.
    pub t: Time,
    /// The node's offset.
    pub p: i32,
}

/// A node of the pass with children left to try: `(t, p)` moved to its
/// stop point `(stop_t, p_stop)` and now waits there `tau` of at most
/// `max_tau` steps.
#[derive(Debug, Clone, Copy)]
struct Frame {
    t: Time,
    p: i32,
    stop_t: Time,
    p_stop: i32,
    tau: Time,
    max_tau: Time,
}

/// Algorithm 2 as one iterative pass, with its buffers: the frame stack of
/// the running pass and an arena of covers that keeps the covers of every
/// pass until [`IntraSweep::clear`].
#[derive(Debug, Default, Clone)]
pub struct IntraSweep {
    frames: Vec<Frame>,
    covers: Vec<Cover>,
}

impl IntraSweep {
    /// Run Algorithm 2 from `(t, from)` toward `end` (`end != from`) and
    /// append its covers to the arena; returns the number of nodes
    /// visited. The pass stops at the first node that reaches `end`, or
    /// fails when the search runs out of nodes or hits `max_nodes`.
    ///
    /// Precondition: `(t, from)` itself is collision-free (guaranteed by
    /// the caller, who checked the entry point — see the planner's entry
    /// probing).
    pub fn run<S: SegmentStore>(
        &mut self,
        store: &S,
        t: Time,
        from: i32,
        end: i32,
        config: &IntraConfig,
    ) -> usize {
        debug_assert_ne!(from, end, "a pass needs somewhere to go");
        debug_assert!(
            store.earliest_collision(&Segment::point(t, from)).is_none(),
            "entry point (t={t}, s={from}) is contested; caller must probe first"
        );
        self.frames.clear();
        let dir = if end > from { 1 } else { -1 };
        let (mut t, mut p, mut reach) = (t, from, from);
        let mut nodes = 0;
        while nodes < config.max_nodes {
            nodes += 1;
            // Greedy move towards the end (lines 8–12).
            let Some(collision) = store.earliest_collision(&Segment::travel(t, p, end)) else {
                self.covers.push(Cover { reach: end, t, p });
                return nodes;
            };
            // Stop right before the collision (line 18). For a vertex
            // conflict at time `c` the last safe instant on the move is
            // `c − 1`; for a swap the conflict is the motion `c → c + 1`
            // itself, so occupying the stop point at `c` is still safe.
            let c = collision.time;
            let stop_t = match collision.kind {
                CollisionKind::Vertex => {
                    debug_assert!(c > t, "entry point was contested");
                    c - 1
                }
                CollisionKind::Swap => c,
            };
            let p_stop = p + dir * (stop_t - t) as i32;
            if (p_stop - reach) * dir > 0 {
                reach = p_stop;
                self.covers.push(Cover { reach, t, p });
            }
            if p_stop == end {
                // The collision lies beyond the end — cannot occur since
                // the move ends there; defensive only.
                return nodes;
            }
            // Longest permissible wait at the stop point: until someone
            // else needs this grid (waits are slope-0, so any collision
            // against them is a vertex conflict at the intruder's arrival).
            let probe = Segment::wait(stop_t, stop_t + config.max_wait, p_stop);
            let max_tau = match store.earliest_collision(&probe) {
                Some(c2) => {
                    debug_assert!(c2.time > stop_t, "stop point reached collision-free");
                    (c2.time - 1 - stop_t).min(config.max_wait)
                }
                None => config.max_wait,
            };
            self.frames.push(Frame {
                t,
                p,
                stop_t,
                p_stop,
                tau: 0,
                max_tau,
            });
            // The next node: one step longer a wait at the deepest stop
            // point that has one left (lines 16–21).
            loop {
                let Some(top) = self.frames.last_mut() else {
                    return nodes;
                };
                if top.tau < top.max_tau {
                    top.tau += 1;
                    (t, p) = (top.stop_t + top.tau, top.p_stop);
                    break;
                }
                self.frames.pop();
            }
        }
        nodes
    }

    /// Plan the route of [`plan_within`] with this sweep's buffers.
    pub fn route<S: SegmentStore>(
        &mut self,
        store: &S,
        t: Time,
        from: i32,
        to: i32,
        config: &IntraConfig,
    ) -> Option<IntraRoute> {
        let mut segments = Vec::new();
        let arrive = self.route_into(store, t, from, to, config, &mut segments)?;
        let route = IntraRoute {
            segments,
            enter: t,
            arrive,
        };
        debug_assert!(route.is_well_formed());
        Some(route)
    }

    /// Plan the route of [`plan_within`] and append its polyline to `out`,
    /// a buffer the caller reuses across legs; returns the arrival, or
    /// `None` (with `out` untouched) when no route exists within the
    /// limits. The pieces are those of [`IntraSweep::route`]: a point when
    /// `from == to`, else travels and waits of nonzero length, consecutive
    /// in time, the first at `t`.
    pub(crate) fn route_into<S: SegmentStore>(
        &mut self,
        store: &S,
        t: Time,
        from: i32,
        to: i32,
        config: &IntraConfig,
        out: &mut Vec<Segment>,
    ) -> Option<Time> {
        if from == to {
            out.push(Segment::point(t, from));
            return Some(t);
        }
        let start = self.covers.len();
        self.run(store, t, from, to, config);
        let last = *self.covers[start..].last().filter(|c| c.reach == to)?;
        // The frames are the reaching node's ancestors, each waiting the
        // `tau` that led towards it.
        out.reserve(2 * self.frames.len() + 1);
        for f in &self.frames {
            if f.stop_t > f.t {
                out.push(Segment::travel(f.t, f.p, f.p_stop));
            }
            out.push(Segment::wait(f.stop_t, f.stop_t + f.tau, f.p_stop));
        }
        out.push(Segment::travel(last.t, last.p, to));
        Some(last.t + to.abs_diff(last.p))
    }

    /// The covers of every pass since the last [`IntraSweep::clear`].
    pub fn covers(&self) -> &[Cover] {
        &self.covers
    }

    /// Empty the cover arena, keeping its allocation.
    pub fn clear(&mut self) {
        self.covers.clear();
    }

    /// Heap bytes held by the frame stack and the cover arena.
    pub fn memory_bytes(&self) -> usize {
        memory::vec_bytes(&self.frames) + memory::vec_bytes(&self.covers)
    }
}

/// Arrival at `to` of the pass from `from` whose covers are `covers`: the
/// first cover whose reach includes `to`, or `None` when the pass never
/// reached it. `to != from`.
pub fn arrival_at(covers: &[Cover], from: i32, to: i32) -> Option<Time> {
    debug_assert_ne!(from, to);
    let dir = (to - from).signum();
    let i = covers.partition_point(|c| (to - c.reach) * dir > 0);
    covers.get(i).map(|c| c.t + to.abs_diff(c.p))
}

/// Plan a collision-free intra-strip route from grid number `from` to `to`
/// starting at time `t`, against the committed segments in `store`.
///
/// Precondition: `(t, from)` itself is collision-free (guaranteed by the
/// caller, who checked the entry point — see the planner's entry probing).
/// Returns `None` when no route exists within the configured limits.
pub fn plan_within<S: SegmentStore>(
    store: &S,
    t: Time,
    from: i32,
    to: i32,
    config: &IntraConfig,
) -> Option<IntraRoute> {
    IntraSweep::default().route(store, t, from, to, config)
}

/// Arrival time of [`plan_within`] without materializing the polyline.
/// Deterministic: returns exactly `plan_within(..).map(|r| r.arrive)`.
pub fn plan_within_cost<S: SegmentStore>(
    store: &S,
    t: Time,
    from: i32,
    to: i32,
    config: &IntraConfig,
) -> Option<Time> {
    if from == to {
        return Some(t);
    }
    // Fast path: nothing committed in this strip.
    if store.is_empty() {
        return Some(t + from.abs_diff(to));
    }
    let mut sweep = IntraSweep::default();
    sweep.run(store, t, from, to, config);
    arrival_at(sweep.covers(), from, to)
}

/// The recursive backtracking that [`IntraSweep`] replaced, kept as the
/// reference it is checked against: the route of one search from
/// `(t, from)` to `to`, and the nodes it visited (at most `max_nodes`).
#[cfg(any(test, debug_assertions))]
#[doc(hidden)]
pub fn plan_within_reference<S: SegmentStore>(
    store: &S,
    t: Time,
    from: i32,
    to: i32,
    config: &IntraConfig,
) -> (Option<IntraRoute>, usize) {
    let mut segments = Vec::new();
    let mut nodes = 0usize;
    let arrive = if from == to {
        segments.push(Segment::point(t, from));
        Some(t)
    } else {
        backtrack_reference(store, t, from, to, config, &mut nodes, &mut segments)
    };
    let route = arrive.map(|arrive| IntraRoute {
        segments,
        enter: t,
        arrive,
    });
    (route, nodes.min(config.max_nodes))
}

/// The recursion of [`plan_within_reference`]: returns the arrival at `d`,
/// with the chosen polyline in `out` on success.
#[cfg(any(test, debug_assertions))]
fn backtrack_reference<S: SegmentStore>(
    store: &S,
    t: Time,
    p: i32,
    d: i32,
    config: &IntraConfig,
    nodes: &mut usize,
    out: &mut Vec<Segment>,
) -> Option<Time> {
    *nodes += 1;
    if *nodes > config.max_nodes {
        return None;
    }
    let full = Segment::travel(t, p, d);
    let Some(collision) = store.earliest_collision(&full) else {
        out.push(full);
        return Some(full.t1);
    };
    let c = collision.time;
    let stop_t = match collision.kind {
        CollisionKind::Vertex => c - 1,
        CollisionKind::Swap => c,
    };
    let dir = if d > p { 1 } else { -1 };
    let p_stop = p + dir * (stop_t - t) as i32;
    let moved = stop_t > t;
    if moved {
        out.push(Segment::travel(t, p, p_stop));
    }
    if p_stop == d {
        if !moved {
            out.push(Segment::point(t, p));
        }
        return Some(stop_t);
    }
    let probe = Segment::wait(stop_t, stop_t + config.max_wait, p_stop);
    let max_tau = match store.earliest_collision(&probe) {
        Some(c2) => (c2.time - 1 - stop_t).min(config.max_wait),
        None => config.max_wait,
    };
    for tau in 1..=max_tau {
        out.push(Segment::wait(stop_t, stop_t + tau, p_stop));
        if let Some(arr) = backtrack_reference(store, stop_t + tau, p_stop, d, config, nodes, out) {
            return Some(arr);
        }
        out.pop();
    }
    if moved {
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_geometry::{NaiveStore, SlopeIndexStore};

    fn assert_route_clear<S: SegmentStore>(store: &S, r: &IntraRoute) {
        for seg in &r.segments {
            assert_eq!(
                store.earliest_collision(seg),
                None,
                "planned segment {seg} collides"
            );
        }
    }

    #[test]
    fn unobstructed_is_straight_line() {
        let store = NaiveStore::new();
        let r = plan_within(&store, 5, 2, 9, &IntraConfig::default()).expect("route");
        assert_eq!(r.segments, vec![Segment::travel(5, 2, 9)]);
        assert_eq!(r.duration(), 7);
    }

    #[test]
    fn same_grid_is_a_point() {
        let store = NaiveStore::new();
        let r = plan_within(&store, 3, 4, 4, &IntraConfig::default()).expect("route");
        assert_eq!(r.segments, vec![Segment::point(3, 4)]);
        assert_eq!(r.duration(), 0);
    }

    #[test]
    fn waits_out_a_crossing_waiter() {
        let mut store = SlopeIndexStore::new();
        // Someone parks at grid 5 during t = 0..7.
        store.insert(Segment::wait(0, 7, 5));
        let r = plan_within(&store, 0, 0, 9, &IntraConfig::default()).expect("route");
        assert_route_clear(&store, &r);
        assert_eq!(r.destination(), 9);
        // Shortest possible: move to 4 (t=4), wait until the parker leaves
        // (must reach 5 no earlier than t=8), then continue.
        assert_eq!(r.arrive, 12);
    }

    #[test]
    fn dodges_oncoming_route_via_wait() {
        let mut store = SlopeIndexStore::new();
        // Oncoming robot sweeps 9 → 0 during t = 0..9.
        store.insert(Segment::travel(0, 9, 0));
        let r = plan_within(&store, 0, 0, 9, &IntraConfig::default());
        // Forward-only search cannot pass an oncoming robot on a single
        // line without a pull-off — it must be infeasible or wait until the
        // sweep finishes... waiting at 0 collides when the sweeper arrives
        // at 0 (t=9). Hence: infeasible.
        assert!(
            r.is_none(),
            "head-on on one line is unresolvable forward-only"
        );
    }

    #[test]
    fn follows_leader_without_collision() {
        let mut store = SlopeIndexStore::new();
        // A leader moves 0 → 9 starting at t=0.
        store.insert(Segment::travel(0, 0, 9));
        // We start one step behind at the same time.
        let r = plan_within(&store, 1, 0, 9, &IntraConfig::default()).expect("route");
        assert_route_clear(&store, &r);
        assert_eq!(r.arrive, 10, "follows one step behind, no extra wait");
    }

    #[test]
    fn two_stage_wait_for_two_crossers() {
        let mut store = SlopeIndexStore::new();
        // Crosser A occupies grid 3 at t=3 (point), crosser B occupies
        // grid 6 at t=8.
        store.insert(Segment::point(3, 3));
        store.insert(Segment::point(8, 6));
        let r = plan_within(&store, 0, 0, 9, &IntraConfig::default()).expect("route");
        assert_route_clear(&store, &r);
        assert_eq!(r.destination(), 9);
        // Optimal forward-only: some waiting occurs, arrival is delayed
        // beyond the unobstructed 9.
        assert!(r.arrive > 9);
        assert!(r.is_well_formed());
    }

    #[test]
    fn backward_movement_supported() {
        let mut store = SlopeIndexStore::new();
        store.insert(Segment::wait(0, 4, 5));
        // Plan from 9 down to 0 (slope −1 route) around the parked robot.
        let r = plan_within(&store, 0, 9, 0, &IntraConfig::default()).expect("route");
        assert_route_clear(&store, &r);
        assert_eq!(r.destination(), 0);
    }

    #[test]
    fn node_budget_failure_leaves_no_garbage() {
        let mut store = SlopeIndexStore::new();
        // A wall of parked robots that never leaves.
        for t in 0..20 {
            store.insert(Segment::wait(t * 10, t * 10 + 10, 5));
        }
        let cfg = IntraConfig {
            max_wait: 8,
            max_nodes: 16,
        };
        assert!(plan_within(&store, 0, 0, 9, &cfg).is_none());
    }

    #[test]
    fn naive_and_indexed_stores_agree() {
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        let population = [
            Segment::wait(2, 6, 4),
            Segment::travel(0, 9, 3),
            Segment::point(5, 7),
            Segment::travel(4, 0, 6),
        ];
        for s in population {
            naive.insert(s);
            index.insert(s);
        }
        let a = plan_within(&naive, 0, 0, 9, &IntraConfig::default());
        let b = plan_within(&index, 0, 0, 9, &IntraConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn one_pass_prices_every_exit_like_a_search_per_exit() {
        let mut store = SlopeIndexStore::new();
        for s in [
            Segment::wait(0, 6, 3),
            Segment::wait(8, 14, 6),
            Segment::travel(20, 9, 7),
        ] {
            store.insert(s);
        }
        let cfg = IntraConfig::default();
        for (from, end) in [(0, 9), (9, 0), (4, 9)] {
            let mut sweep = IntraSweep::default();
            let nodes = sweep.run(&store, 0, from, end, &cfg);
            let mut per_exit = 0;
            let (lo, hi) = (from.min(end), from.max(end));
            for x in (lo..=hi).filter(|&x| x != from) {
                let (reference, n) = plan_within_reference(&store, 0, from, x, &cfg);
                per_exit += n;
                let arrive = reference.as_ref().map(|r| r.arrive);
                assert_eq!(arrival_at(sweep.covers(), from, x), arrive, "{from}→{x}");
                assert_eq!(plan_within(&store, 0, from, x, &cfg), reference);
            }
            assert!(nodes <= per_exit, "{nodes} > {per_exit}");
        }
    }

    #[test]
    fn planned_route_is_discretely_collision_free() {
        // Ground-truth check: expand the planned polyline and every stored
        // segment to discrete occupancy and verify Definition 3 directly.
        let mut store = SlopeIndexStore::new();
        // Two parked robots with staggered time windows force two separate
        // waiting phases. (An oncoming full-line sweep would be infeasible
        // forward-only — that is the §VII-A backtracking restriction.)
        let population = [Segment::wait(0, 6, 3), Segment::wait(8, 14, 6)];
        for s in population {
            store.insert(s);
        }
        let r = plan_within(&store, 0, 0, 8, &IntraConfig::default()).expect("route");
        for seg in &r.segments {
            for other in &population {
                assert_eq!(
                    carp_geometry::earliest_collision_reference(seg, other),
                    None,
                    "{seg} vs {other}"
                );
            }
        }
    }
}
