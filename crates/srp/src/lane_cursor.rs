//! Lazy lane cursors for the inter-strip search.
//!
//! When the Phase-1 search settles an aisle strip `u` at time `at` through
//! an entry cell at axis coordinate `e`, every edge of a lane
//! ([`StripGraph::lanes`](crate::StripGraph::lanes)) gets the heap key
//!
//! ```text
//! lb  = at + 1 + |e − x|
//! m   = |P − d_perp| + |x − d_axis|
//! key = lb + w·estimate(m)
//! ```
//!
//! where `x` is the edge's transit coordinate, `P` the lane's target row
//! (or column), `d` the destination, `w` whether the heuristic is on and
//! [`estimate`] the search's weighted Manhattan estimate,
//! `m + ⌊m/16⌋`. The search pops entries in the order
//! `(key, Reverse(lb), strip, k)`. Within one lane that order is a merge of
//! three walks over the lane's `x`-sorted edges, each already in order
//! because `estimate` is nondecreasing in `m`:
//!
//! 1. inside `[min, max](e, a)` with `a = w ? d_axis : e`: one step away
//!    from `a` raises `m` by one, so the key stays or grows (it grows where
//!    `⌊m/16⌋` does), while `lb` falls: from the end at `a`, toward `e`;
//! 2. left of that interval, where key and `lb` grow as `x` falls:
//!    descending;
//! 3. right of it, where both grow with `x`: ascending.
//!
//! [`LaneCursor::next`] compares the three walk heads by the full order and
//! hands out the smallest, so a lane yields exactly the sorted sequence of
//! its edges' keys while touching only the edges the search actually pops.

use crate::planner::estimate;
use crate::strip_graph::{Lane, LaneEdge, Strip};
use carp_warehouse::types::{Cell, Time};
use core::cmp::Reverse;

/// What a lane's keys depend on besides `x`: the settle of its strip, the
/// lane's side and the request's destination.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneProbe {
    /// `at + 1`: the settle time plus the crossing step.
    base: Time,
    /// Axis coordinate of the settled strip's entry cell (`e`).
    entry: u16,
    /// Axis coordinate the heuristic pulls towards (`a`).
    aim: u16,
    /// The constant part `|P − d_perp|` of the Manhattan distance `m`.
    perp_cost: Time,
    /// Whether the heuristic is on (`w`).
    heuristic: bool,
}

impl LaneProbe {
    /// The probe of `lane` of `strip`, settled at `at` through `entry`,
    /// for a request to `d`.
    pub(crate) fn new(
        strip: &Strip,
        lane: &Lane,
        at: Time,
        entry: Cell,
        d: Cell,
        heuristic: bool,
    ) -> Self {
        let entry = strip.axis_coord(entry);
        LaneProbe {
            base: at + 1,
            entry,
            aim: if heuristic {
                strip.axis_coord(d)
            } else {
                entry
            },
            perp_cost: Time::from(lane.perp.abs_diff(strip.perp_coord(d))),
            heuristic,
        }
    }

    /// `(key, lb)` of the lane edge at axis coordinate `x`.
    #[inline]
    fn key(&self, x: u16) -> (Time, Time) {
        let lb = self.base + Time::from(self.entry.abs_diff(x));
        if self.heuristic {
            let m = self.perp_cost + Time::from(self.aim.abs_diff(x));
            (lb + estimate(m), lb)
        } else {
            (lb, lb)
        }
    }
}

/// A lane's progress through its three walks: `..left` is the left walk
/// (taken from its top), `mid_lo..mid_hi` the inside walk and `right..`
/// the right walk (taken from its bottom), as indices into the lane's
/// edges. Only read after its strip settled in the current search.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneCursor {
    left: u32,
    mid_lo: u32,
    mid_hi: u32,
    right: u32,
}

impl LaneCursor {
    /// A cursor before the first edge of `edges` under `probe`.
    pub(crate) fn start(edges: &[LaneEdge], probe: &LaneProbe) -> Self {
        let (lo, hi) = (probe.entry.min(probe.aim), probe.entry.max(probe.aim));
        let mid_lo = edges.partition_point(|e| e.x < lo) as u32;
        let mid_hi = edges.partition_point(|e| e.x <= hi) as u32;
        LaneCursor {
            left: mid_lo,
            mid_lo,
            mid_hi,
            right: mid_hi,
        }
    }

    /// The lane's next edge in heap order for which `dead(k, lb)` is false,
    /// as `(key, lb, k)`, consuming the dead edges before it; `None` once
    /// every edge has been handed out.
    pub(crate) fn next(
        &mut self,
        edges: &[LaneEdge],
        probe: &LaneProbe,
        mut dead: impl FnMut(u32, Time) -> bool,
    ) -> Option<(Time, Time, u32)> {
        loop {
            let (key, lb, k) = self.pop(edges, probe)?;
            if !dead(k, lb) {
                return Some((key, lb, k));
            }
        }
    }

    /// The lane's next edge in heap order.
    fn pop(&mut self, edges: &[LaneEdge], probe: &LaneProbe) -> Option<(Time, Time, u32)> {
        // The inside walk starts at the aim, the end far from the entry.
        let downward = probe.aim > probe.entry;
        let mid = (self.mid_lo < self.mid_hi).then(|| {
            if downward {
                self.mid_hi - 1
            } else {
                self.mid_lo
            }
        });
        let left = self.left.checked_sub(1);
        let right = ((self.right as usize) < edges.len()).then_some(self.right);
        let order = |i: u32| {
            let e = edges[i as usize];
            let (key, lb) = probe.key(e.x);
            (key, Reverse(lb), e.k)
        };
        let i = [mid, left, right]
            .into_iter()
            .flatten()
            .min_by_key(|&i| order(i))?;
        if Some(i) == left {
            self.left -= 1;
        } else if Some(i) == right {
            self.right += 1;
        } else if downward {
            self.mid_hi -= 1;
        } else {
            self.mid_lo += 1;
        }
        let (key, Reverse(lb), k) = order(i);
        Some((key, lb, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_graph::{StripGraph, StripId, StripKind};
    use carp_warehouse::layout::{LayoutConfig, WarehousePreset};
    use carp_warehouse::matrix::WarehouseMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random settles of lane-carrying strips: each lane's cursor must yield
    /// exactly the sorted `(key, Reverse(lb), k)` of its live edges, with
    /// the keys computed the way the eager settle loop computed them
    /// (transit pair from `StripGraph::transition`, the planner's
    /// [`estimate`] of the target cell's Manhattan distance, so the cursor
    /// and the heap share one estimate) and a random set of edges declared
    /// dead. Also checks that lanes and settle edges partition each strip's
    /// adjacency.
    fn check_graph(m: &WarehouseMatrix, seed: u64, samples: usize) -> usize {
        let g = StripGraph::build(m);
        let with_lanes: Vec<StripId> = (0..g.num_vertices() as StripId)
            .filter(|&u| !g.lanes(u).is_empty())
            .collect();
        assert!(!with_lanes.is_empty());
        for u in 0..g.num_vertices() as StripId {
            let mut ks: Vec<u32> = g.settle_edges(u, true).to_vec();
            for lane in g.lanes(u) {
                assert_eq!(g.strip(u).kind, StripKind::Aisle);
                ks.extend(g.lane_edges(lane).iter().map(|e| {
                    assert_eq!(g.lane_of(u, e.k), Some(lane));
                    e.k
                }));
            }
            ks.sort_unstable();
            assert_eq!(ks, (0..g.edges(u).len() as u32).collect::<Vec<_>>());
        }
        let cells: Vec<Cell> = m.cells().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut checked = 0;
        for _ in 0..samples {
            let u = with_lanes[rng.gen_range(0..with_lanes.len())];
            let strip = *g.strip(u);
            let entry = strip.cell_at(rng.gen_range(0..strip.len() as i32));
            let d = cells[rng.gen_range(0..cells.len())];
            let at: Time = rng.gen_range(0..100_000);
            let heuristic = rng.gen_bool(0.5);
            let (salt, near) = (rng.gen::<u32>(), at + rng.gen_range(0..8u32));
            let dead = |k: u32, lb: Time| (k ^ salt).is_multiple_of(4) || lb <= near;
            for lane in g.lanes(u) {
                let edges = g.lane_edges(lane);
                let mut want: Vec<(Time, Reverse<Time>, u32)> = edges
                    .iter()
                    .map(|e| {
                        let edge = g.edges(u)[e.k as usize];
                        let (g_u, g_v) = g.transition(u, &edge, entry);
                        let lb = at + strip.offset_of(entry).abs_diff(strip.offset_of(g_u)) + 1;
                        let h = if heuristic {
                            estimate(g_v.manhattan(d))
                        } else {
                            0
                        };
                        (lb + h, Reverse(lb), e.k)
                    })
                    .collect();
                want.retain(|&(_, Reverse(lb), k)| !dead(k, lb));
                want.sort();
                let probe = LaneProbe::new(&strip, g.lane(lane), at, entry, d, heuristic);
                let mut cursor = LaneCursor::start(edges, &probe);
                let got: Vec<_> = core::iter::from_fn(|| cursor.next(edges, &probe, dead))
                    .map(|(key, lb, k)| (key, Reverse(lb), k))
                    .collect();
                assert_eq!(got, want, "strip {u} lane {lane} entry {entry} d {d}");
                checked += edges.len();
            }
        }
        checked
    }

    #[test]
    fn lane_cursor_yields_the_sorted_heap_order() {
        let w2 = WarehousePreset::W2.generate();
        assert!(check_graph(&w2.matrix, 15, 400) > 10_000);
        let small = LayoutConfig::small().generate();
        assert!(check_graph(&small.matrix, 16, 2_000) > 1_000);
    }
}
