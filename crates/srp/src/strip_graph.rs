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
    fn axis_coord(&self, c: Cell) -> u16 {
        match self.dir {
            StripDir::Latitudinal => c.col,
            StripDir::Longitudinal => c.row,
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

/// The strip graph `S = ⟨V, E⟩` (Definition 5).
#[derive(Debug, Clone)]
pub struct StripGraph {
    /// All strips (vertices).
    pub strips: Vec<Strip>,
    /// Dense cell → strip mapping, indexed by [`WarehouseMatrix::index_of`].
    cell_to_strip: Vec<StripId>,
    /// Directed adjacency lists (both directions of each undirected edge).
    adj: Vec<Vec<StripEdge>>,
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
        let mut adj: Vec<Vec<StripEdge>> = vec![Vec::new(); strips.len()];
        let mut seen: HashSet<(StripId, StripId)> = HashSet::new();
        let mut num_edges = 0;
        for c in m.cells() {
            for n in [
                c.step(carp_warehouse::types::Dir::East, rows, cols),
                c.step(carp_warehouse::types::Dir::South, rows, cols),
            ]
            .into_iter()
            .flatten()
            {
                let (a, b) = (
                    cell_to_strip[m.index_of(c) as usize],
                    cell_to_strip[m.index_of(n) as usize],
                );
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                if !seen.insert(key) {
                    continue;
                }
                let (sa, sb) = (strips[a as usize], strips[b as usize]);
                if sa.kind == StripKind::Rack && sb.kind == StripKind::Rack {
                    continue;
                }
                num_edges += 1;
                adj[a as usize].push(StripEdge {
                    to: b,
                    geom: edge_geom(&sa, &sb),
                });
                adj[b as usize].push(StripEdge {
                    to: a,
                    geom: edge_geom(&sb, &sa),
                });
            }
        }

        StripGraph {
            strips,
            cell_to_strip,
            adj,
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
        &self.adj[id as usize]
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

    /// Estimated heap bytes of the graph (MC metric).
    pub fn memory_bytes(&self) -> usize {
        memory::vec_bytes(&self.strips)
            + memory::vec_bytes(&self.cell_to_strip)
            + self.adj.iter().map(memory::vec_bytes).sum::<usize>()
            + memory::vec_bytes(&self.adj)
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
        for (id, edges) in g.adj.iter().enumerate() {
            for e in edges {
                let both_rack = g.strip(id as StripId).kind == StripKind::Rack
                    && g.strip(e.to).kind == StripKind::Rack;
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
