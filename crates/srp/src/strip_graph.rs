//! Strip graph construction (§IV-A, Algorithm 1).
//!
//! Grids are aggregated into **strips** — maximal rows or columns of
//! consecutive grids with the same value (Definition 4). Full-free rows
//! become long *latitudinal* aisle strips; the remaining grids are
//! aggregated along the *longitudinal* direction into aisle or rack strips.
//! Each strip becomes a vertex of the strip graph (Definition 5); two
//! strips are connected when they contain adjacent grids and are not both
//! racks.
//!
//! Edge *geometry* is precomputed so the planner can resolve, in O(1), the
//! adjacent grid pair through which a route transits between two strips
//! (§VI, Fig. 10): the unique crossing for perpendicular or collinear
//! neighbours, and the overlap interval for side-by-side neighbours.
//!
//! The same edge pass sorts each strip's edges for the inter-strip search:
//! an aisle strip's perpendicular edges into the aisle strips beside it
//! form two **lanes** (one per side), each ordered by the transit cell's
//! axis coordinate, so the search can walk a long aisle's edges lazily in
//! heap order (`planner` module docs); every other edge is pushed when its
//! strip settles, with the edges into rack strips kept apart.

use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::memory;
use carp_warehouse::types::Cell;
use std::collections::HashSet;

/// Identifier of a strip — an index into [`StripGraph::strips`].
pub type StripId = u32;

/// Orientation of a strip (Definition 4's `dir`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StripDir {
    /// A row of grids (runs west–east).
    Latitudinal,
    /// A column of grids (runs north–south).
    Longitudinal,
}

/// Strip type (Definition 4's `type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StripKind {
    /// Traversable aisle grids.
    Aisle,
    /// Rack grids — robots may only enter/leave these as route endpoints.
    Rack,
}

/// A strip `v = ⟨α, β, dir, type⟩` (Definition 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strip {
    /// Westernmost/northernmost grid (`α`).
    pub alpha: Cell,
    /// Easternmost/southernmost grid (`β`).
    pub beta: Cell,
    /// Orientation.
    pub dir: StripDir,
    /// Aisle or rack.
    pub kind: StripKind,
}

impl Strip {
    /// Number of grids in the strip.
    pub fn len(&self) -> u32 {
        match self.dir {
            StripDir::Latitudinal => (self.beta.col - self.alpha.col) as u32 + 1,
            StripDir::Longitudinal => (self.beta.row - self.alpha.row) as u32 + 1,
        }
    }

    /// Strips are never empty; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `c` lies within the strip.
    pub fn contains(&self, c: Cell) -> bool {
        match self.dir {
            StripDir::Latitudinal => {
                c.row == self.alpha.row && (self.alpha.col..=self.beta.col).contains(&c.col)
            }
            StripDir::Longitudinal => {
                c.col == self.alpha.col && (self.alpha.row..=self.beta.row).contains(&c.row)
            }
        }
    }

    /// One-dimensional grid number of `c` within the strip (the spatial
    /// coordinate of the segment representation, Definition 6).
    #[inline]
    pub fn offset_of(&self, c: Cell) -> i32 {
        debug_assert!(self.contains(c));
        match self.dir {
            StripDir::Latitudinal => (c.col - self.alpha.col) as i32,
            StripDir::Longitudinal => (c.row - self.alpha.row) as i32,
        }
    }

    /// Inverse of [`Strip::offset_of`].
    #[inline]
    pub fn cell_at(&self, offset: i32) -> Cell {
        debug_assert!((0..self.len() as i32).contains(&offset));
        match self.dir {
            StripDir::Latitudinal => Cell::new(self.alpha.row, self.alpha.col + offset as u16),
            StripDir::Longitudinal => Cell::new(self.alpha.row + offset as u16, self.alpha.col),
        }
    }

    /// The coordinate along the strip's axis (col for latitudinal, row for
    /// longitudinal) of a cell.
    #[inline]
    pub(crate) fn axis_coord(&self, c: Cell) -> u16 {
        match self.dir {
            StripDir::Latitudinal => c.col,
            StripDir::Longitudinal => c.row,
        }
    }

    /// The coordinate across the strip's axis (row for latitudinal, col for
    /// longitudinal) of a cell.
    #[inline]
    pub(crate) fn perp_coord(&self, c: Cell) -> u16 {
        match self.dir {
            StripDir::Latitudinal => c.row,
            StripDir::Longitudinal => c.col,
        }
    }
}

/// How two adjacent strips touch, with the data needed to resolve the
/// transit grid pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeGeom {
    /// Strips of different orientations: a unique crossing pair
    /// (Fig. 10(b)).
    Perpendicular {
        /// The cell of the source strip adjacent to the target strip.
        u_cell: Cell,
        /// The adjacent cell inside the target strip.
        v_cell: Cell,
    },
    /// Same orientation, same row/column, end to end: a unique pair.
    Collinear {
        /// Boundary cell of the source strip.
        u_cell: Cell,
        /// Boundary cell of the target strip.
        v_cell: Cell,
    },
    /// Same orientation in adjacent rows/columns (Fig. 10(a)): every cell
    /// of the axis-overlap `[lo, hi]` is a valid transit pair; the planner
    /// greedily picks the one nearest the source grid (§VI).
    Lateral {
        /// First axis coordinate of the overlap.
        lo: u16,
        /// Last axis coordinate of the overlap.
        hi: u16,
    },
}

/// A directed adjacency entry: target strip plus transit geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripEdge {
    /// Target strip.
    pub to: StripId,
    /// Transit geometry, oriented from the owning strip towards `to`.
    pub geom: EdgeGeom,
}

/// One edge of a lane: the axis coordinate of its transit cells and its
/// index in the owning strip's adjacency ([`StripGraph::edges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneEdge {
    /// Axis coordinate shared by the edge's two transit cells.
    pub(crate) x: u16,
    /// Adjacency index of the edge.
    pub(crate) k: u32,
}

/// A lane: the perpendicular edges from an aisle strip into the aisle
/// strips on one side of it, sorted by strictly increasing [`LaneEdge::x`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lane {
    /// Perpendicular coordinate of the lane's target cells (the row beside
    /// a latitudinal strip).
    pub(crate) perp: u16,
    /// The lane's edges are `lane_edges[start..end]`.
    start: u32,
    end: u32,
}

/// Per-strip offsets into the flat tables; strip `u`'s ranges end where
/// strip `u + 1`'s begin (one sentinel entry closes the last strip).
#[derive(Debug, Clone, Copy, Default)]
struct Offsets {
    /// First edge in `adj` (and `edge_lane`).
    edge: u32,
    /// First lane in `lanes`.
    lane: u32,
    /// First edge in `settle_edges`; the eager edges come first.
    eager: u32,
    /// First edge into a rack strip in `settle_edges`.
    rack: u32,
}

/// Lane id of an edge on no lane.
const NO_LANE: u32 = u32::MAX;

/// The strip graph `S = ⟨V, E⟩` (Definition 5).
#[derive(Debug, Clone)]
pub struct StripGraph {
    /// All strips (vertices).
    pub strips: Vec<Strip>,
    /// Dense cell → strip mapping, indexed by [`WarehouseMatrix::index_of`].
    cell_to_strip: Vec<StripId>,
    /// Directed adjacency (both directions of each undirected edge), flat:
    /// each strip's edges in discovery order.
    adj: Vec<StripEdge>,
    /// Lane of each entry of `adj`, or `NO_LANE`.
    edge_lane: Vec<u32>,
    /// All lanes, grouped by owning strip.
    lanes: Vec<Lane>,
    /// All lanes' edges, lane after lane.
    lane_edges: Vec<LaneEdge>,
    /// Adjacency indices of the edges on no lane: per strip, the eager
    /// edges, then the edges into rack strips.
    settle_edges: Vec<u32>,
    /// `strips.len() + 1` offsets into the four tables above.
    offsets: Vec<Offsets>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl StripGraph {
    /// Build the strip graph from a warehouse matrix (Algorithm 1).
    pub fn build(m: &WarehouseMatrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut strips: Vec<Strip> = Vec::new();
        let mut cell_to_strip = vec![StripId::MAX; m.num_cells()];

        // Phase 1 (lines 4–8): full-free rows become latitudinal aisles.
        let mut row_is_aisle = vec![false; rows as usize];
        for i in 0..rows {
            if m.row_is_all_free(i) {
                row_is_aisle[i as usize] = true;
                let id = strips.len() as StripId;
                strips.push(Strip {
                    alpha: Cell::new(i, 0),
                    beta: Cell::new(i, cols - 1),
                    dir: StripDir::Latitudinal,
                    kind: StripKind::Aisle,
                });
                for j in 0..cols {
                    cell_to_strip[m.index_of(Cell::new(i, j)) as usize] = id;
                }
            }
        }

        // Phase 2 (lines 10–19): aggregate the rest along columns into
        // maximal same-value runs, skipping already-visited rows.
        for j in 0..cols {
            let mut i = 0;
            while i < rows {
                if row_is_aisle[i as usize] {
                    i += 1;
                    continue;
                }
                let value = m.is_rack(Cell::new(i, j));
                let mut k = i;
                while k + 1 < rows
                    && !row_is_aisle[(k + 1) as usize]
                    && m.is_rack(Cell::new(k + 1, j)) == value
                {
                    k += 1;
                }
                let id = strips.len() as StripId;
                strips.push(Strip {
                    alpha: Cell::new(i, j),
                    beta: Cell::new(k, j),
                    dir: StripDir::Longitudinal,
                    kind: if value {
                        StripKind::Rack
                    } else {
                        StripKind::Aisle
                    },
                });
                for r in i..=k {
                    cell_to_strip[m.index_of(Cell::new(r, j)) as usize] = id;
                }
                i = k + 1;
            }
        }

        // Phase 3 (lines 21–24): edges between strips containing adjacent
        // grids, unless both are racks. We scan cell adjacencies (O(H·W))
        // rather than the paper's O(|V|²) pair loop — same result.
        //
        // Two strips that meet along a run of adjacent cell pairs (side by
        // side) produce the same strip pair once per cell of the run; a
        // pair whose predecessor in the run (one row up for an east step,
        // one column left for a south step) joins the same two strips was
        // seen there already, so only a run's first pair reaches `seen`.
        let mut pairs: Vec<(StripId, StripId)> = Vec::new();
        let mut seen: HashSet<(StripId, StripId)> = HashSet::new();
        let (rows, cols) = (rows as usize, cols as usize);
        let strip_at = |i: usize| cell_to_strip[i];
        for i in 0..rows * cols {
            let (row, col) = (i / cols, i % cols);
            // (neighbour index, index of this pair's predecessor in a run)
            let east = (col + 1 < cols).then(|| (i + 1, row.checked_sub(1).map(|_| i - cols)));
            let south = (row + 1 < rows).then(|| (i + cols, col.checked_sub(1).map(|_| i - 1)));
            for (j, prev) in [east, south].into_iter().flatten() {
                let (a, b) = (strip_at(i), strip_at(j));
                if a == b {
                    continue;
                }
                if let Some(p) = prev {
                    if strip_at(p) == a && strip_at(p + (j - i)) == b {
                        continue;
                    }
                }
                let key = (a.min(b), a.max(b));
                if !seen.insert(key) {
                    continue;
                }
                if strips[a as usize].kind == StripKind::Rack
                    && strips[b as usize].kind == StripKind::Rack
                {
                    continue;
                }
                pairs.push((a, b));
            }
        }
        let num_edges = pairs.len();

        // Lay the adjacency out flat, both directions of each pair in
        // discovery order (a counting sort by owner), then split each
        // strip's edges into its lanes, its eager edges and its edges into
        // rack strips.
        let mut offsets = vec![Offsets::default(); strips.len() + 1];
        for &(a, b) in &pairs {
            offsets[a as usize + 1].edge += 1;
            offsets[b as usize + 1].edge += 1;
        }
        for i in 1..offsets.len() {
            offsets[i].edge += offsets[i - 1].edge;
        }
        let mut fill: Vec<u32> = offsets.iter().map(|o| o.edge).collect();
        let unfilled = StripEdge {
            to: StripId::MAX,
            geom: EdgeGeom::Lateral { lo: 0, hi: 0 },
        };
        let mut adj = vec![unfilled; 2 * num_edges];
        for (a, b) in pairs {
            let (sa, sb) = (&strips[a as usize], &strips[b as usize]);
            for (from, to, geom) in [(a, b, edge_geom(sa, sb)), (b, a, edge_geom(sb, sa))] {
                adj[fill[from as usize] as usize] = StripEdge { to, geom };
                fill[from as usize] += 1;
            }
        }

        let mut edge_lane = vec![NO_LANE; adj.len()];
        let mut lanes: Vec<Lane> = Vec::new();
        let mut lane_edges: Vec<LaneEdge> = Vec::new();
        let mut settle_edges: Vec<u32> = Vec::new();
        let mut rack: Vec<u32> = Vec::new();
        let mut sides: [(u16, Vec<LaneEdge>); 2] = Default::default();
        for (u, su) in strips.iter().enumerate() {
            let first = offsets[u].edge as usize;
            let edges = &adj[first..offsets[u + 1].edge as usize];
            offsets[u].lane = lanes.len() as u32;
            offsets[u].eager = settle_edges.len() as u32;
            for (k, e) in edges.iter().enumerate() {
                if strips[e.to as usize].kind == StripKind::Rack {
                    rack.push(k as u32);
                } else if let Some((side, perp, x)) = lane_slot(su, e) {
                    sides[side].0 = perp;
                    sides[side].1.push(LaneEdge { x, k: k as u32 });
                } else {
                    settle_edges.push(k as u32);
                }
            }
            offsets[u].rack = settle_edges.len() as u32;
            settle_edges.append(&mut rack);
            for (perp, side) in &mut sides {
                if side.is_empty() {
                    continue;
                }
                side.sort_unstable_by_key(|e| e.x);
                assert!(
                    side.windows(2).all(|w| w[0].x < w[1].x),
                    "two lane edges share a transit cell"
                );
                let id = lanes.len() as u32;
                for e in side.iter() {
                    edge_lane[first + e.k as usize] = id;
                }
                lanes.push(Lane {
                    perp: *perp,
                    start: lane_edges.len() as u32,
                    end: (lane_edges.len() + side.len()) as u32,
                });
                lane_edges.append(side);
            }
        }
        let last = offsets.len() - 1;
        offsets[last].lane = lanes.len() as u32;
        offsets[last].eager = settle_edges.len() as u32;
        offsets[last].rack = settle_edges.len() as u32;

        StripGraph {
            strips,
            cell_to_strip,
            adj,
            edge_lane,
            lanes,
            lane_edges,
            settle_edges,
            offsets,
            num_edges,
        }
    }

    /// The strip containing `cell`.
    #[inline]
    pub fn strip_of(&self, m: &WarehouseMatrix, cell: Cell) -> StripId {
        self.cell_to_strip[m.index_of(cell) as usize]
    }

    /// The strip with the given id.
    #[inline]
    pub fn strip(&self, id: StripId) -> &Strip {
        &self.strips[id as usize]
    }

    /// Directed adjacency of a strip.
    #[inline]
    pub fn edges(&self, id: StripId) -> &[StripEdge] {
        let u = id as usize;
        &self.adj[self.offsets[u].edge as usize..self.offsets[u + 1].edge as usize]
    }

    /// Ids of the lanes of a strip (none, one or two).
    #[inline]
    pub(crate) fn lanes(&self, id: StripId) -> core::ops::Range<u32> {
        let u = id as usize;
        self.offsets[u].lane..self.offsets[u + 1].lane
    }

    /// Total number of lanes; lane ids are `0..num_lanes()`.
    pub(crate) fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane with the given id.
    #[inline]
    pub(crate) fn lane(&self, lane: u32) -> &Lane {
        &self.lanes[lane as usize]
    }

    /// The edges of a lane, by strictly increasing axis coordinate.
    #[inline]
    pub(crate) fn lane_edges(&self, lane: u32) -> &[LaneEdge] {
        let l = self.lanes[lane as usize];
        &self.lane_edges[l.start as usize..l.end as usize]
    }

    /// The lane holding edge `k` of strip `id`, if any.
    #[inline]
    pub(crate) fn lane_of(&self, id: StripId, k: u32) -> Option<u32> {
        let lane = self.edge_lane[self.offsets[id as usize].edge as usize + k as usize];
        (lane != NO_LANE).then_some(lane)
    }

    /// Adjacency indices of a strip's edges on no lane: the eager ones
    /// (lateral, collinear and end-on edges, and every edge of a rack
    /// strip), followed by the edges into rack strips when `with_rack`.
    #[inline]
    pub(crate) fn settle_edges(&self, id: StripId, with_rack: bool) -> &[u32] {
        let u = id as usize;
        let end = if with_rack {
            self.offsets[u + 1].eager
        } else {
            self.offsets[u].rack
        };
        &self.settle_edges[self.offsets[u].eager as usize..end as usize]
    }

    /// Flat slot of edge `k` of strip `id`: its index among all directed
    /// edges, `0..num_slots()`.
    #[inline]
    pub(crate) fn slot(&self, id: StripId, k: u32) -> usize {
        self.offsets[id as usize].edge as usize + k as usize
    }

    /// Number of directed edges (flat slots).
    pub(crate) fn num_slots(&self) -> usize {
        self.adj.len()
    }

    /// Flat slot of the in-edge `e.to → y`, where `e` is an edge of `y`.
    /// The adjacency is symmetric, so the reverse edge exists. It is found
    /// by a binary search on its lane, or else among `e.to`'s edges on no
    /// lane, whose few eager edges come before those into rack strips: for
    /// an aisle `y`, a long aisle's hundreds of lane and rack edges are
    /// never scanned.
    pub(crate) fn in_edge_slot(&self, y: StripId, e: &StripEdge) -> usize {
        let u = e.to;
        // A reverse edge swaps the transit pair; a lateral overlap is the
        // same from both sides.
        let geom = match e.geom {
            EdgeGeom::Perpendicular { u_cell, v_cell } => EdgeGeom::Perpendicular {
                u_cell: v_cell,
                v_cell: u_cell,
            },
            EdgeGeom::Collinear { u_cell, v_cell } => EdgeGeom::Collinear {
                u_cell: v_cell,
                v_cell: u_cell,
            },
            lateral => lateral,
        };
        let back = StripEdge { to: y, geom };
        let lane_hit = (self.strip(y).kind == StripKind::Aisle)
            .then(|| lane_slot(self.strip(u), &back))
            .flatten()
            .and_then(|(_, perp, x)| {
                let lane = self
                    .lanes(u)
                    .find(|&l| self.lanes[l as usize].perp == perp)?;
                let edges = self.lane_edges(lane);
                let i = edges.binary_search_by_key(&x, |le| le.x).ok()?;
                Some(edges[i].k)
            });
        let k = lane_hit.unwrap_or_else(|| {
            *self
                .settle_edges(u, true)
                .iter()
                .find(|&&k| self.edges(u)[k as usize].to == y)
                .expect("symmetric adjacency")
        });
        debug_assert_eq!(self.edges(u)[k as usize], back, "reverse edge of {y} → {u}");
        self.slot(u, k)
    }

    /// Number of strips (Table II "Strip-based #vertices").
    pub fn num_vertices(&self) -> usize {
        self.strips.len()
    }

    /// Number of undirected edges (Table II "Strip-based #edges").
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Resolve the transit grid pair from `from_cell` in strip `u` towards
    /// strip `v` (§VI): the unique pair for perpendicular/collinear
    /// neighbours, the nearest overlap pair for side-by-side neighbours.
    pub fn transition(&self, u: StripId, edge: &StripEdge, from_cell: Cell) -> (Cell, Cell) {
        match edge.geom {
            EdgeGeom::Perpendicular { u_cell, v_cell } | EdgeGeom::Collinear { u_cell, v_cell } => {
                (u_cell, v_cell)
            }
            EdgeGeom::Lateral { lo, hi } => {
                let su = self.strip(u);
                let sv = self.strip(edge.to);
                let coord = su.axis_coord(from_cell).clamp(lo, hi);
                let u_cell = match su.dir {
                    StripDir::Latitudinal => Cell::new(su.alpha.row, coord),
                    StripDir::Longitudinal => Cell::new(coord, su.alpha.col),
                };
                let v_cell = match sv.dir {
                    StripDir::Latitudinal => Cell::new(sv.alpha.row, coord),
                    StripDir::Longitudinal => Cell::new(coord, sv.alpha.col),
                };
                (u_cell, v_cell)
            }
        }
    }

    /// Estimated heap bytes of the graph (MC metric), lane tables included.
    pub fn memory_bytes(&self) -> usize {
        memory::vec_bytes(&self.strips)
            + memory::vec_bytes(&self.cell_to_strip)
            + memory::vec_bytes(&self.adj)
            + memory::vec_bytes(&self.edge_lane)
            + memory::vec_bytes(&self.lanes)
            + memory::vec_bytes(&self.lane_edges)
            + memory::vec_bytes(&self.settle_edges)
            + memory::vec_bytes(&self.offsets)
    }
}

/// Where `e` sits among the lanes of `u`: `(side, perp, x)` for a
/// perpendicular edge from an aisle strip into the aisle strip beside
/// transit cell `x`, `None` for every other edge.
fn lane_slot(u: &Strip, e: &StripEdge) -> Option<(usize, u16, u16)> {
    let EdgeGeom::Perpendicular { u_cell, v_cell } = e.geom else {
        return None;
    };
    let (x, perp) = (u.axis_coord(u_cell), u.perp_coord(v_cell));
    if u.kind != StripKind::Aisle || u.axis_coord(v_cell) != x {
        return None;
    }
    match i32::from(perp) - i32::from(u.perp_coord(u_cell)) {
        -1 => Some((0, perp, x)),
        1 => Some((1, perp, x)),
        _ => None,
    }
}

/// Geometry of the edge from `a` towards `b` (they are known adjacent).
fn edge_geom(a: &Strip, b: &Strip) -> EdgeGeom {
    if a.dir != b.dir {
        // Perpendicular: exactly one cell of `a` is adjacent to one of `b`.
        let (lat, lon) = if a.dir == StripDir::Latitudinal {
            (a, b)
        } else {
            (b, a)
        };
        let col = lon.alpha.col;
        let row = lat.alpha.row;
        // The longitudinal strip's end adjacent to the latitudinal row.
        let lon_cell = if lon.alpha.row == row + 1 {
            lon.alpha
        } else if row > 0 && lon.beta.row == row - 1 {
            lon.beta
        } else {
            // The strips overlap laterally: the longitudinal strip passes
            // beside the row; treat as the cell in the same row.
            Cell::new(row, col)
        };
        let lat_cell = Cell::new(row, col.min(lat.beta.col).max(lat.alpha.col));
        if a.dir == StripDir::Latitudinal {
            EdgeGeom::Perpendicular {
                u_cell: lat_cell,
                v_cell: lon_cell,
            }
        } else {
            EdgeGeom::Perpendicular {
                u_cell: lon_cell,
                v_cell: lat_cell,
            }
        }
    } else {
        let same_line = match a.dir {
            StripDir::Latitudinal => a.alpha.row == b.alpha.row,
            StripDir::Longitudinal => a.alpha.col == b.alpha.col,
        };
        if same_line {
            // Collinear, end to end.
            let (u_cell, v_cell) = match a.dir {
                StripDir::Latitudinal => {
                    if a.beta.col + 1 == b.alpha.col {
                        (a.beta, b.alpha)
                    } else {
                        (a.alpha, b.beta)
                    }
                }
                StripDir::Longitudinal => {
                    if a.beta.row + 1 == b.alpha.row {
                        (a.beta, b.alpha)
                    } else {
                        (a.alpha, b.beta)
                    }
                }
            };
            EdgeGeom::Collinear { u_cell, v_cell }
        } else {
            // Side by side: overlap interval along the axis.
            let (a_lo, a_hi, b_lo, b_hi) = match a.dir {
                StripDir::Latitudinal => (a.alpha.col, a.beta.col, b.alpha.col, b.beta.col),
                StripDir::Longitudinal => (a.alpha.row, a.beta.row, b.alpha.row, b.beta.row),
            };
            EdgeGeom::Lateral {
                lo: a_lo.max(b_lo),
                hi: a_hi.min(b_hi),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 3-style toy warehouse: two full aisle rows sandwiching a
    /// band with one 2×2 rack cluster.
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
    fn toy_strip_inventory() {
        let (m, g) = toy();
        // Rows 0 and 3 are latitudinal aisles. Columns 0..4 over rows 1..2:
        // col0 aisle, col1 rack, col2 rack, col3 aisle, col4 aisle.
        assert_eq!(g.num_vertices(), 7);
        let lat = g
            .strips
            .iter()
            .filter(|s| s.dir == StripDir::Latitudinal)
            .count();
        assert_eq!(lat, 2);
        let racks = g
            .strips
            .iter()
            .filter(|s| s.kind == StripKind::Rack)
            .count();
        assert_eq!(racks, 2);
        // Every cell is covered by exactly one strip.
        for c in m.cells() {
            let id = g.strip_of(&m, c);
            assert!(g.strip(id).contains(c), "cell {c} not in its strip");
        }
    }

    #[test]
    fn rack_rack_edges_are_excluded() {
        let (_, g) = toy();
        for id in 0..g.num_vertices() as StripId {
            for e in g.edges(id) {
                let both_rack =
                    g.strip(id).kind == StripKind::Rack && g.strip(e.to).kind == StripKind::Rack;
                assert!(!both_rack, "rack–rack edge {id} → {}", e.to);
            }
        }
        // The two rack strips are laterally adjacent but must not be linked.
        assert_eq!(g.num_edges(), {
            // col0-aisle ↔ rack1 (lateral), rack2 ↔ col3-aisle (lateral),
            // col3 ↔ col4 (lateral), each longitudinal strip ↔ both
            // latitudinal rows (2 × 5 perpendicular)
            3 + 10
        });
    }

    #[test]
    fn offsets_roundtrip() {
        let (_, g) = toy();
        for s in &g.strips {
            for off in 0..s.len() as i32 {
                assert_eq!(s.offset_of(s.cell_at(off)), off);
            }
        }
    }

    #[test]
    fn perpendicular_transition_pair() {
        let (m, g) = toy();
        // From the top latitudinal aisle into the col-0 aisle strip.
        let top = g.strip_of(&m, Cell::new(0, 0));
        let col0 = g.strip_of(&m, Cell::new(1, 0));
        let edge = *g.edges(top).iter().find(|e| e.to == col0).expect("edge");
        let (gu, gv) = g.transition(top, &edge, Cell::new(0, 4));
        assert_eq!(gu, Cell::new(0, 0));
        assert_eq!(gv, Cell::new(1, 0));
    }

    #[test]
    fn lateral_transition_clamps_to_overlap() {
        let (m, g) = toy();
        let col3 = g.strip_of(&m, Cell::new(1, 3));
        let col4 = g.strip_of(&m, Cell::new(1, 4));
        let edge = *g.edges(col3).iter().find(|e| e.to == col4).expect("edge");
        let (gu, gv) = g.transition(col3, &edge, Cell::new(2, 3));
        assert_eq!(gu, Cell::new(2, 3));
        assert_eq!(gv, Cell::new(2, 4));
    }

    #[test]
    fn rack_strip_reachable_from_lateral_aisle() {
        let (m, g) = toy();
        let rack = g.strip_of(&m, Cell::new(1, 1));
        assert_eq!(g.strip(rack).kind, StripKind::Rack);
        let has_aisle_neighbor = g
            .edges(rack)
            .iter()
            .any(|e| g.strip(e.to).kind == StripKind::Aisle);
        assert!(has_aisle_neighbor);
    }

    #[test]
    fn collinear_runs_split_on_value_change() {
        // One column alternates aisle/rack with no full-free rows.
        let m = WarehouseMatrix::from_ascii(
            ".#\n\
             .#\n\
             ##\n\
             .#",
        );
        let g = StripGraph::build(&m);
        // Column 0: aisle run rows 0–1, rack row 2, aisle row 3.
        let a = g.strip_of(&m, Cell::new(0, 0));
        let b = g.strip_of(&m, Cell::new(2, 0));
        let c = g.strip_of(&m, Cell::new(3, 0));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(g.strip(a).kind, StripKind::Aisle);
        assert_eq!(g.strip(b).kind, StripKind::Rack);
        let edge = *g
            .edges(a)
            .iter()
            .find(|e| e.to == b)
            .expect("collinear edge");
        match edge.geom {
            EdgeGeom::Collinear { u_cell, v_cell } => {
                assert_eq!(u_cell, Cell::new(1, 0));
                assert_eq!(v_cell, Cell::new(2, 0));
            }
            other => panic!("expected collinear, got {other:?}"),
        }
    }

    #[test]
    fn table2_scale_reduction_on_presets() {
        // Table II reports strip-based #vertices ≈ 16% and #edges ≈ 23% of
        // grid-based. Our synthetic layouts must show the same order of
        // reduction (we assert a generous band).
        use carp_warehouse::layout::WarehousePreset;
        for preset in WarehousePreset::ALL {
            let layout = preset.generate();
            let g = StripGraph::build(&layout.matrix);
            let v_ratio = g.num_vertices() as f64 / layout.matrix.num_cells() as f64;
            let e_ratio = g.num_edges() as f64 / layout.matrix.grid_edge_count() as f64;
            assert!(
                (0.05..0.30).contains(&v_ratio),
                "{}: vertex ratio {v_ratio:.3}",
                preset.name()
            );
            assert!(
                (0.05..0.40).contains(&e_ratio),
                "{}: edge ratio {e_ratio:.3}",
                preset.name()
            );
        }
    }

    #[test]
    fn in_edge_slots_point_back_at_every_edge() {
        use carp_warehouse::layout::{LayoutConfig, WarehousePreset};
        let mut matrices = vec![toy().0, LayoutConfig::small().generate().matrix];
        matrices.extend(WarehousePreset::ALL.iter().map(|p| p.generate().matrix));
        for m in &matrices {
            let g = StripGraph::build(m);
            let mut hit = vec![0u32; g.num_slots()];
            for y in 0..g.num_vertices() as StripId {
                for e in g.edges(y) {
                    let s = g.in_edge_slot(y, e);
                    let k = s - g.slot(e.to, 0);
                    assert!(k < g.edges(e.to).len(), "slot {s} outside {}", e.to);
                    assert_eq!(g.edges(e.to)[k].to, y);
                    hit[s] += 1;
                }
            }
            assert!(hit.iter().all(|&h| h == 1), "every slot is one in-edge");
        }
    }

    #[test]
    fn every_cell_in_exactly_one_strip_on_presets() {
        use carp_warehouse::layout::WarehousePreset;
        let layout = WarehousePreset::W1.generate();
        let g = StripGraph::build(&layout.matrix);
        let mut counts = vec![0u32; g.num_vertices()];
        for c in layout.matrix.cells() {
            let id = g.strip_of(&layout.matrix, c);
            assert!(g.strip(id).contains(c));
            counts[id as usize] += 1;
        }
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, layout.matrix.num_cells());
        for (id, s) in g.strips.iter().enumerate() {
            assert_eq!(counts[id], s.len(), "strip {id} cell count");
        }
    }
}
