//! Conversion between grid-level routes and the strip/segment
//! representation — the third TC component of Fig. 22(a).
//!
//! Any legal grid route decomposes uniquely: at every instant the robot is
//! inside exactly one strip; while it stays in a strip it moves along the
//! strip axis or waits (strips are maximal same-value runs, so a lateral
//! step always changes strips), and each strip change is a *crossing*
//! motion. The result is a [`Decomposition`]: the per-strip maximal
//! constant-slope segments plus the crossing list.
//!
//! A strip-level route is built from its legs by `RouteBuilder`, which
//! writes the grid cells and the decomposition in one pass over the legs'
//! polylines. [`decompose`] walks a grid route cell by cell and is for
//! routes without legs: the grid A\* fallback's, and routes committed or
//! replayed from outside the planner.

use crate::strip_graph::{Strip, StripGraph, StripId};
use carp_geometry::Segment;
use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::memory;
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};

/// A grid route decomposed into strip-level segments and crossings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// `(strip, segment)` pairs covering the route's full occupancy,
    /// ordered by time.
    pub segments: Vec<(StripId, Segment)>,
    /// Directed boundary motions `(from_cell, to_cell, departure_time)`.
    pub crossings: Vec<(Cell, Cell, Time)>,
}

/// Decompose a grid route into per-strip segment polylines and crossings.
pub fn decompose(m: &WarehouseMatrix, graph: &StripGraph, route: &Route) -> Decomposition {
    let mut segments = Vec::new();
    let mut crossings = Vec::new();

    let cells = &route.grids;
    let mut run_start = 0usize; // index into cells of the current strip run
    let mut i = 0usize;
    while i < cells.len() {
        let strip_id = graph.strip_of(m, cells[run_start]);
        // Extend the run while we stay in the same strip.
        let same_strip = i + 1 < cells.len() && graph.strip_of(m, cells[i + 1]) == strip_id;
        if same_strip {
            i += 1;
            continue;
        }
        // Emit the run [run_start, i] as a polyline within `strip_id`.
        let strip = graph.strip(strip_id);
        let t_base = route.start + run_start as Time;
        let offsets: Vec<i32> = cells[run_start..=i]
            .iter()
            .map(|&c| strip.offset_of(c))
            .collect();
        emit_polyline(strip_id, t_base, &offsets, &mut segments);
        // Crossing into the next strip, if any.
        if i + 1 < cells.len() {
            let t = route.start + i as Time;
            crossings.push((cells[i], cells[i + 1], t));
            run_start = i + 1;
        }
        i += 1;
    }
    Decomposition {
        segments,
        crossings,
    }
}

/// Emit maximal constant-slope segments for a run of strip offsets
/// starting at `t_base`.
fn emit_polyline(strip: StripId, t_base: Time, offsets: &[i32], out: &mut Vec<(StripId, Segment)>) {
    debug_assert!(!offsets.is_empty());
    if offsets.len() == 1 {
        out.push((strip, Segment::point(t_base, offsets[0])));
        return;
    }
    let mut seg_start = 0usize;
    let mut slope = offsets[1] - offsets[0];
    for k in 1..offsets.len() {
        let step = offsets[k] - offsets[k - 1];
        debug_assert!(step.abs() <= 1, "offsets must be unit steps");
        if step != slope {
            out.push((strip, make_seg(t_base, seg_start, k - 1, offsets)));
            seg_start = k - 1;
            slope = step;
        }
    }
    out.push((
        strip,
        make_seg(t_base, seg_start, offsets.len() - 1, offsets),
    ));
}

fn make_seg(t_base: Time, a: usize, b: usize, offsets: &[i32]) -> Segment {
    Segment {
        t0: t_base + a as Time,
        t1: t_base + b as Time,
        s0: offsets[a],
        s1: offsets[b],
    }
}

/// Builds a strip-level route from its chain of legs in one pass: the grid
/// cells, the maximal constant-slope segments and the crossings, exactly
/// what [`decompose`] would rebuild from the cells. Kept between plans for
/// its segment buffer; the route's cells and crossings are allocated at
/// their final size.
///
/// Consecutive legs lie in different strips: the first starts at the
/// route's start, and each later one starts one instant after the previous
/// one ends, on a cell adjacent to its last. So the legs are exactly
/// [`decompose`]'s strip runs, and each leg boundary is one crossing.
#[derive(Debug, Default, Clone)]
pub(crate) struct RouteBuilder {
    start: Time,
    grids: Vec<Cell>,
    segments: Vec<(StripId, Segment)>,
    crossings: Vec<(Cell, Cell, Time)>,
}

impl RouteBuilder {
    /// Start a route that occupies `[start, end]` and has `legs` legs.
    pub fn begin(&mut self, start: Time, end: Time, legs: usize) {
        debug_assert!(start <= end && legs > 0);
        self.start = start;
        self.grids = Vec::with_capacity((end - start + 1) as usize);
        self.segments.clear();
        self.crossings = Vec::with_capacity(legs - 1);
    }

    /// Append the leg in strip `sid` (geometry `strip`) whose polyline is
    /// `pieces`: consecutive in time, each starting where the one before
    /// ends. A single-instant leg becomes one point; in a longer leg,
    /// zero-length pieces add nothing, and adjacent pieces of equal slope
    /// merge into one segment, as [`decompose`] cuts them.
    pub fn push_leg(&mut self, strip: &Strip, sid: StripId, pieces: &[Segment]) {
        let (first, last) = (pieces[0], pieces[pieces.len() - 1]);
        debug_assert_eq!(
            first.t0,
            self.start + self.grids.len() as Time,
            "legs must be time-contiguous"
        );
        if let Some(&exit) = self.grids.last() {
            debug_assert_ne!(self.segments.last().map(|s| s.0), Some(sid));
            let entry = strip.cell_at(first.s0);
            debug_assert!(exit.is_adjacent(entry), "legs must be space-adjacent");
            self.crossings.push((exit, entry, first.t0 - 1));
        }
        if first.t0 == last.t1 {
            self.segments
                .push((sid, Segment::point(first.t0, first.s0)));
            self.grids.push(strip.cell_at(first.s0));
            return;
        }
        let leg_start = self.segments.len();
        for &piece in pieces.iter().filter(|p| p.t1 > p.t0) {
            // The instant a piece shares with the one before is already
            // emitted.
            let dir = i32::from(piece.slope());
            let next_t = self.start + self.grids.len() as Time;
            debug_assert!(
                next_t == piece.t0 || next_t == piece.t0 + 1,
                "pieces must chain"
            );
            for t in next_t..=piece.t1 {
                let off = piece.s0 + dir * (t - piece.t0) as i32;
                self.grids.push(strip.cell_at(off));
            }
            match self.segments[leg_start..].last_mut() {
                Some((_, seg)) if seg.slope() == piece.slope() => {
                    debug_assert!(seg.t1 == piece.t0 && seg.s1 == piece.s0);
                    seg.t1 = piece.t1;
                    seg.s1 = piece.s1;
                }
                _ => self.segments.push((sid, piece)),
            }
        }
    }

    /// The finished route and its decomposition.
    pub fn finish(&mut self) -> (Route, Decomposition) {
        let route = Route::new(self.start, core::mem::take(&mut self.grids));
        let dec = Decomposition {
            segments: self.segments.to_vec(),
            crossings: core::mem::take(&mut self.crossings),
        };
        (route, dec)
    }

    /// Heap bytes held between routes.
    pub fn memory_bytes(&self) -> usize {
        memory::vec_bytes(&self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_graph::StripGraph;

    fn toy() -> (WarehouseMatrix, StripGraph) {
        let m = WarehouseMatrix::from_ascii(
            ".....\n\
             .##..\n\
             .##..\n\
             .....",
        );
        let g = StripGraph::build(&m);
        (m, g)
    }

    #[test]
    fn straight_route_in_one_strip_is_one_segment() {
        let (m, g) = toy();
        let r = Route::new(4, (0..5).map(|j| Cell::new(0, j)).collect());
        let d = decompose(&m, &g, &r);
        assert_eq!(d.crossings, vec![]);
        assert_eq!(d.segments.len(), 1);
        let (_, seg) = d.segments[0];
        assert_eq!(
            seg,
            Segment {
                t0: 4,
                t1: 8,
                s0: 0,
                s1: 4
            }
        );
    }

    #[test]
    fn waits_and_reversals_split_polyline() {
        let (m, g) = toy();
        // Move east 2, wait 2, move back west 1 — all inside the top aisle.
        let r = Route::new(
            0,
            vec![
                Cell::new(0, 0),
                Cell::new(0, 1),
                Cell::new(0, 2),
                Cell::new(0, 2),
                Cell::new(0, 2),
                Cell::new(0, 1),
            ],
        );
        let d = decompose(&m, &g, &r);
        let segs: Vec<Segment> = d.segments.iter().map(|&(_, s)| s).collect();
        assert_eq!(
            segs,
            vec![
                Segment {
                    t0: 0,
                    t1: 2,
                    s0: 0,
                    s1: 2
                },
                Segment {
                    t0: 2,
                    t1: 4,
                    s0: 2,
                    s1: 2
                },
                Segment {
                    t0: 4,
                    t1: 5,
                    s0: 2,
                    s1: 1
                },
            ]
        );
    }

    #[test]
    fn strip_changes_produce_crossings() {
        let (m, g) = toy();
        // Down column 0 from the top aisle to the bottom aisle, then east.
        let r = Route::new(
            10,
            vec![
                Cell::new(0, 0),
                Cell::new(1, 0),
                Cell::new(2, 0),
                Cell::new(3, 0),
                Cell::new(3, 1),
            ],
        );
        let d = decompose(&m, &g, &r);
        assert_eq!(d.crossings.len(), 2);
        assert_eq!(d.crossings[0], (Cell::new(0, 0), Cell::new(1, 0), 10));
        assert_eq!(d.crossings[1], (Cell::new(2, 0), Cell::new(3, 0), 12));
        // Three strips: top aisle (point), col-0 aisle (travel), bottom
        // aisle (travel).
        assert_eq!(d.segments.len(), 3);
        assert_eq!(d.segments[0].1, Segment::point(10, 0));
        assert_eq!(
            d.segments[1].1,
            Segment {
                t0: 11,
                t1: 12,
                s0: 0,
                s1: 1
            }
        );
        assert_eq!(
            d.segments[2].1,
            Segment {
                t0: 13,
                t1: 14,
                s0: 0,
                s1: 1
            }
        );
    }

    #[test]
    fn decomposition_preserves_occupancy() {
        let (m, g) = toy();
        let r = Route::new(
            0,
            vec![
                Cell::new(0, 3),
                Cell::new(0, 4),
                Cell::new(1, 4),
                Cell::new(1, 4),
                Cell::new(2, 4),
                Cell::new(3, 4),
                Cell::new(3, 3),
            ],
        );
        let d = decompose(&m, &g, &r);
        // Rebuild (time → cell) from the segments and compare to the route.
        let mut rebuilt: std::collections::BTreeMap<Time, Cell> = std::collections::BTreeMap::new();
        for &(sid, seg) in &d.segments {
            let strip = g.strip(sid);
            for (t, off) in seg.occupancy() {
                let cell = strip.cell_at(off);
                let prev = rebuilt.insert(t, cell);
                assert!(
                    prev.is_none_or(|p| p == cell),
                    "inconsistent occupancy at t={t}"
                );
            }
        }
        let expected: std::collections::BTreeMap<Time, Cell> = r.occupancy().collect();
        assert_eq!(rebuilt, expected);
    }

    /// Build a route from `(strip of the cell, pieces)` legs, and check
    /// that its decomposition is the one [`decompose`] rebuilds from its
    /// cells.
    fn build(
        m: &WarehouseMatrix,
        g: &StripGraph,
        legs: &[(Cell, &[Segment])],
    ) -> (Route, Decomposition) {
        let start = legs[0].1[0].t0;
        let end = legs.last().expect("legs").1.last().expect("pieces").t1;
        let mut b = RouteBuilder::default();
        b.begin(start, end, legs.len());
        for &(cell, pieces) in legs {
            let sid = g.strip_of(m, cell);
            b.push_leg(g.strip(sid), sid, pieces);
        }
        let (route, dec) = b.finish();
        assert_eq!(route.grids.len(), route.grids.capacity());
        assert_eq!(dec.crossings.len(), dec.crossings.capacity());
        assert_eq!(dec.segments.len(), dec.segments.capacity());
        assert_eq!(dec, decompose(m, g, &route));
        (route, dec)
    }

    #[test]
    fn builder_chains_legs() {
        let (m, g) = toy();
        // A single-instant leg in the top aisle, then two steps down the
        // col-0 strip.
        let (r, dec) = build(
            &m,
            &g,
            &[
                (Cell::new(0, 0), &[Segment::point(5, 0)]),
                (Cell::new(1, 0), &[Segment::travel(6, 0, 1)]),
            ],
        );
        assert_eq!(r.start, 5);
        assert_eq!(
            r.grids,
            vec![Cell::new(0, 0), Cell::new(1, 0), Cell::new(2, 0)]
        );
        assert_eq!(dec.segments[0].1, Segment::point(5, 0));
        assert_eq!(dec.crossings, vec![(Cell::new(0, 0), Cell::new(1, 0), 5)]);
    }

    #[test]
    fn builder_emits_each_instant_once() {
        let (m, g) = toy();
        let pieces = [Segment::travel(0, 0, 2), Segment::wait(2, 3, 2)];
        let (r, dec) = build(&m, &g, &[(Cell::new(0, 0), &pieces)]);
        assert_eq!(
            r.grids,
            vec![
                Cell::new(0, 0),
                Cell::new(0, 1),
                Cell::new(0, 2),
                Cell::new(0, 2)
            ]
        );
        assert_eq!(dec.segments.len(), 2);
    }

    #[test]
    fn builder_merges_a_transit_wait_into_the_legs_last_wait() {
        let (m, g) = toy();
        // The leg ends waiting at offset 2 over [2, 4]; the transit wait
        // [4, 6] at the same offset extends it, and a zero-length piece
        // between equal-slope travels splits nothing.
        let pieces = [
            Segment::travel(0, 0, 1),
            Segment::point(1, 1),
            Segment::travel(1, 1, 2),
            Segment::wait(2, 4, 2),
            Segment::wait(4, 6, 2),
        ];
        let (_, dec) = build(
            &m,
            &g,
            &[
                (Cell::new(0, 0), &pieces),
                (Cell::new(1, 2), &[Segment::point(7, 0)]),
            ],
        );
        let segs: Vec<Segment> = dec.segments.iter().map(|&(_, s)| s).collect();
        assert_eq!(
            segs,
            vec![
                Segment::travel(0, 0, 2),
                Segment::wait(2, 6, 2),
                Segment::point(7, 0)
            ]
        );
        // A leg that only waits: the point of `from == to` is dropped.
        let (_, dec) = build(
            &m,
            &g,
            &[(
                Cell::new(0, 3),
                &[Segment::point(3, 3), Segment::wait(3, 5, 3)],
            )],
        );
        assert_eq!(
            dec.segments,
            vec![(dec.segments[0].0, Segment::wait(3, 5, 3))]
        );
    }

    #[test]
    fn builder_ends_at_a_rack_destination_point() {
        let (m, g) = toy();
        // Along the top aisle to (0, 1), then one step into the rack cell
        // (1, 1), which the final leg occupies for one instant.
        let (r, dec) = build(
            &m,
            &g,
            &[
                (Cell::new(0, 0), &[Segment::travel(2, 0, 1)]),
                (Cell::new(1, 1), &[Segment::point(4, 0)]),
            ],
        );
        assert_eq!(r.destination(), Cell::new(1, 1));
        assert_eq!(r.end_time(), 4);
        assert_eq!(dec.crossings, vec![(Cell::new(0, 1), Cell::new(1, 1), 3)]);
        assert_eq!(dec.segments.last().expect("point").1, Segment::point(4, 0));
    }

    #[test]
    fn builder_crossings_depart_at_each_legs_last_instant() {
        let (m, g) = toy();
        // Top aisle 0 → 0 with a wait, col-0 strip down, bottom aisle east.
        let (_, dec) = build(
            &m,
            &g,
            &[
                (Cell::new(0, 0), &[Segment::wait(10, 12, 0)]),
                (Cell::new(1, 0), &[Segment::travel(13, 0, 1)]),
                (Cell::new(3, 0), &[Segment::travel(15, 0, 2)]),
            ],
        );
        assert_eq!(
            dec.crossings,
            vec![
                (Cell::new(0, 0), Cell::new(1, 0), 12),
                (Cell::new(2, 0), Cell::new(3, 0), 14)
            ]
        );
    }

    #[test]
    fn builder_keeps_the_runs_of_a_route_that_reenters_a_strip() {
        let (m, g) = toy();
        // Top aisle east, down the col-4 strip and back up into the top
        // aisle: two runs of one strip, as a fallback route may have.
        let (r, dec) = build(
            &m,
            &g,
            &[
                (Cell::new(0, 2), &[Segment::travel(0, 2, 4)]),
                (
                    Cell::new(1, 4),
                    &[Segment::travel(3, 0, 1), Segment::travel(4, 1, 0)],
                ),
                (Cell::new(0, 4), &[Segment::wait(6, 7, 4)]),
            ],
        );
        assert_eq!(r.grids.len(), 8);
        let top = g.strip_of(&m, Cell::new(0, 0));
        let strips: Vec<StripId> = dec.segments.iter().map(|s| s.0).collect();
        assert_eq!(strips.first(), Some(&top));
        assert_eq!(strips.last(), Some(&top));
        assert_eq!(dec.segments.len(), 4);
        assert_eq!(dec.crossings.len(), 2);
    }
}
