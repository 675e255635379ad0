//! Space-time A\* (Hart et al. \[7\]): shortest-route search in the
//! 3-dimensional (2-D grid + 1-D time) space, with wait moves, reservation
//! awareness and optional CBS constraints.
//!
//! This is the search engine of every baseline planner and of SRP's rare
//! fallback path. Its `O((HW)²)`-ish behaviour on congested instances is
//! precisely the bottleneck the strip-based framework removes (§I, §VII-B).

use crate::cbs::ConstraintSet;
use crate::reservation::Occupancy;
use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::collections::{BinaryHeap, HashMap};

/// Tuning knobs for the search.
#[derive(Debug, Clone, Copy)]
pub struct AStarConfig {
    /// Hard cap on node expansions before giving up.
    pub max_expansions: usize,
    /// Maximum route duration (time horizon) relative to the departure.
    pub horizon: Time,
    /// How many time steps the departure may be postponed when the origin
    /// cell itself is reserved at the requested time.
    pub max_depart_delay: Time,
    /// Absolute time beyond which reservations and constraints are ignored
    /// (`None` = always enforced). This is the *time window* of windowed
    /// planners such as TWP \[5\]: collisions are only resolved within the
    /// window; the tail of the route is planned as if traffic-free and
    /// repaired when the window advances. Up to the horizon the search
    /// queries *both* reservation layers — exclusive hard bookings and
    /// peers' optimistic soft tails — so a windowed commit of everything
    /// the search verified stays exclusivity-safe by construction.
    pub collision_horizon: Option<Time>,
}

impl Default for AStarConfig {
    fn default() -> Self {
        AStarConfig {
            max_expansions: 400_000,
            horizon: 4096,
            max_depart_delay: 256,
            collision_horizon: None,
        }
    }
}

/// Counters describing one search, used by the TC/MC experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct AStarStats {
    /// Nodes popped from the open list.
    pub expansions: usize,
    /// Nodes pushed to the open list.
    pub generated: usize,
    /// Peak bytes of open + closed structures during the search — the
    /// "runtime space consumption" component of the paper's MC metric.
    pub peak_bytes: usize,
}

/// Space-time A\* planner.
#[derive(Debug, Default, Clone)]
pub struct SpaceTimeAStar {
    /// Configuration used by [`SpaceTimeAStar::plan`].
    pub config: AStarConfig,
    /// Statistics of the most recent search.
    pub stats: AStarStats,
}

#[derive(PartialEq, Eq)]
struct Node {
    f: Time,
    g: Time,
    cell: Cell,
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Min-heap by f; tie-break prefers larger g (deeper nodes), the
        // standard choice that keeps A* from dithering near the goal.
        other
            .f
            .cmp(&self.f)
            .then(self.g.cmp(&other.g))
            .then(other.cell.cmp(&self.cell))
    }
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SpaceTimeAStar {
    /// Create a planner with the given configuration.
    pub fn new(config: AStarConfig) -> Self {
        SpaceTimeAStar {
            config,
            stats: AStarStats::default(),
        }
    }

    /// Plan the shortest route from `start` to `goal` departing no earlier
    /// than `depart`, avoiding `reservations` and `constraints`.
    /// `reservations` is any [`Occupancy`] oracle — a
    /// [`crate::ReservationTable`] for the baselines; the call is
    /// monomorphised per oracle type.
    ///
    /// Rack cells are traversable only as the route's own endpoints: the
    /// robot may sit on / leave its `start` and may *arrive* at `goal`, but
    /// never crosses any other rack (Definition 1 movement rules plus the
    /// rack-endpoint completion described in DESIGN.md §3).
    ///
    /// Returns `None` when the expansion budget or horizon is exhausted.
    pub fn plan<R: Occupancy>(
        &mut self,
        matrix: &WarehouseMatrix,
        reservations: &R,
        constraints: Option<&ConstraintSet>,
        start: Cell,
        goal: Cell,
        depart: Time,
    ) -> Option<Route> {
        self.stats = AStarStats::default();
        let window = self.config.collision_horizon.unwrap_or(Time::MAX);
        let blocked = |cell: Cell, t: Time| {
            t <= window
                && (!reservations.vertex_free(cell, t)
                    || constraints.is_some_and(|c| c.vertex_blocked(cell, t)))
        };
        // Postpone departure while the origin itself is contested.
        let mut depart = depart;
        let deadline = depart + self.config.max_depart_delay;
        while blocked(start, depart) {
            depart += 1;
            if depart > deadline {
                return None;
            }
        }
        if start == goal {
            return Some(Route::stationary(depart, start));
        }

        let mut open = BinaryHeap::new();
        let mut parents: HashMap<(Cell, Time), (Cell, Time)> = HashMap::new();
        let mut closed: HashMap<(Cell, Time), Time> = HashMap::new();
        open.push(Node {
            f: depart + start.manhattan(goal),
            g: depart,
            cell: start,
        });
        closed.insert((start, depart), depart);

        while let Some(Node { g: t, cell, .. }) = open.pop() {
            self.stats.expansions += 1;
            if self.stats.expansions > self.config.max_expansions {
                return None;
            }
            if cell == goal {
                self.track_peak(&open, &parents);
                return Some(reconstruct(&parents, start, depart, cell, t));
            }
            if t - depart >= self.config.horizon {
                continue;
            }
            let nt = t + 1;
            let mut push = |ncell: Cell, open: &mut BinaryHeap<Node>| {
                if closed.contains_key(&(ncell, nt)) {
                    return;
                }
                closed.insert((ncell, nt), nt);
                parents.insert((ncell, nt), (cell, t));
                open.push(Node {
                    f: nt + ncell.manhattan(goal),
                    g: nt,
                    cell: ncell,
                });
                self.stats.generated += 1;
            };
            // Wait in place.
            if !blocked(cell, nt) {
                push(cell, &mut open);
            }
            // Axis moves.
            for n in matrix.neighbors(cell) {
                let traversable = matrix.is_free(n) || n == goal;
                if !traversable || blocked(n, nt) {
                    continue;
                }
                if t <= window
                    && (!reservations.move_free(cell, n, t)
                        || constraints.is_some_and(|c| c.edge_blocked(cell, n, t)))
                {
                    continue;
                }
                push(n, &mut open);
            }
            self.track_peak(&open, &parents);
        }
        None
    }

    fn track_peak(
        &mut self,
        open: &BinaryHeap<Node>,
        parents: &HashMap<(Cell, Time), (Cell, Time)>,
    ) {
        let bytes = open.len() * core::mem::size_of::<Node>()
            + parents.len() * (core::mem::size_of::<((Cell, Time), (Cell, Time))>() + 2);
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }
}

fn reconstruct(
    parents: &HashMap<(Cell, Time), (Cell, Time)>,
    start: Cell,
    depart: Time,
    mut cell: Cell,
    mut t: Time,
) -> Route {
    let mut grids = vec![cell];
    while (cell, t) != (start, depart) {
        let &(pc, pt) = parents.get(&(cell, t)).expect("broken parent chain");
        debug_assert_eq!(pt + 1, t);
        grids.push(pc);
        cell = pc;
        t = pt;
    }
    grids.reverse();
    Route::new(depart, grids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationTable;
    use carp_warehouse::collision::first_conflict;

    fn open_matrix() -> WarehouseMatrix {
        WarehouseMatrix::empty(8, 8)
    }

    #[test]
    fn straight_line_in_empty_grid() {
        let m = open_matrix();
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(
                &m,
                &ReservationTable::new(),
                None,
                Cell::new(0, 0),
                Cell::new(0, 5),
                3,
            )
            .expect("route");
        assert_eq!(r.start, 3);
        assert_eq!(r.duration(), 5);
        assert!(r.validate(&m).is_ok());
    }

    #[test]
    fn routes_around_racks() {
        let m = WarehouseMatrix::from_ascii(
            ".....\n\
             .###.\n\
             .....",
        );
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(
                &m,
                &ReservationTable::new(),
                None,
                Cell::new(1, 0),
                Cell::new(1, 4),
                0,
            )
            .expect("route");
        assert_eq!(r.duration(), 6); // around the 3-rack block
        assert!(r.validate(&m).is_ok());
    }

    #[test]
    fn enters_rack_goal_but_never_crosses_racks() {
        let m = WarehouseMatrix::from_ascii(
            ".....\n\
             .##..\n\
             .....",
        );
        let goal = Cell::new(1, 1); // a rack
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(&m, &ReservationTable::new(), None, Cell::new(0, 4), goal, 0)
            .expect("route");
        assert_eq!(r.destination(), goal);
        assert!(r.validate(&m).is_ok()); // validate enforces racks-as-endpoints-only
    }

    #[test]
    fn waits_for_crossing_robot() {
        let m = open_matrix();
        let mut rt = ReservationTable::new();
        // A robot sweeps down column 2 during t=0..4, cutting our row-0 path.
        let crossing = Route::new(0, (0..5).map(|i| Cell::new(i, 2)).collect());
        rt.reserve(&crossing, 9);
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(&m, &rt, None, Cell::new(0, 0), Cell::new(0, 4), 0)
            .expect("route");
        assert!(first_conflict(&r, &crossing).is_none());
        assert!(r.validate(&m).is_ok());
    }

    #[test]
    fn postpones_contested_departure() {
        let m = open_matrix();
        let mut rt = ReservationTable::new();
        rt.reserve(&Route::new(0, vec![Cell::new(0, 0), Cell::new(0, 0)]), 9);
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(&m, &rt, None, Cell::new(0, 0), Cell::new(0, 3), 0)
            .expect("route");
        assert_eq!(r.start, 2, "origin blocked for t=0..1");
    }

    #[test]
    fn respects_cbs_constraints() {
        let m = open_matrix();
        let mut cs = ConstraintSet::default();
        cs.block_vertex(Cell::new(0, 2), 2);
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(
                &m,
                &ReservationTable::new(),
                Some(&cs),
                Cell::new(0, 0),
                Cell::new(0, 4),
                0,
            )
            .expect("route");
        assert_ne!(r.position_at(2), Some(Cell::new(0, 2)));
        assert!(r.validate(&m).is_ok());
    }

    #[test]
    fn gives_up_on_walled_goal() {
        let m = WarehouseMatrix::from_ascii(
            ".#.\n\
             #.#\n\
             .#.",
        );
        // Goal (1,1) is fully walled by racks: unreachable from (0,0) since
        // crossing racks is forbidden — except as an endpoint, but no free
        // neighbour path exists... actually (1,1) is free but enclosed.
        let mut astar = SpaceTimeAStar::new(AStarConfig {
            max_expansions: 10_000,
            ..Default::default()
        });
        assert!(astar
            .plan(
                &m,
                &ReservationTable::new(),
                None,
                Cell::new(0, 0),
                Cell::new(1, 1),
                0
            )
            .is_none());
    }

    #[test]
    fn stats_are_recorded() {
        let m = open_matrix();
        let mut astar = SpaceTimeAStar::default();
        astar
            .plan(
                &m,
                &ReservationTable::new(),
                None,
                Cell::new(0, 0),
                Cell::new(7, 7),
                0,
            )
            .expect("route");
        assert!(astar.stats.expansions > 0);
        assert!(astar.stats.peak_bytes > 0);
    }

    #[test]
    fn start_equals_goal() {
        let m = open_matrix();
        let mut astar = SpaceTimeAStar::default();
        let r = astar
            .plan(
                &m,
                &ReservationTable::new(),
                None,
                Cell::new(3, 3),
                Cell::new(3, 3),
                5,
            )
            .expect("route");
        assert_eq!(r.grids.len(), 1);
        assert_eq!(r.start, 5);
    }
}
