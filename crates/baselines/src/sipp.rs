//! SIPP — Safe Interval Path Planning (Phillips & Likhachev, ICRA 2011) —
//! an *extension baseline* beyond the paper's four.
//!
//! SIPP is the strongest classical acceleration of single-agent planning
//! amongst moving obstacles: instead of expanding one state per `(cell,
//! time)`, it expands one state per `(cell, safe interval)` — a maximal
//! time window during which the cell is unreserved. Congested cells have
//! few intervals, so the search space collapses from `O(HW·T)` to
//! `O(HW·k)` with small `k`. Like SAP it plans prioritized, one request at
//! a time, against all committed routes.
//!
//! Including it answers the natural reviewer question "would a better
//! grid-level planner close the gap to SRP?" — see EXPERIMENTS.md.

use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::memory;
use carp_warehouse::planner::{PlanOutcome, Planner, ReplayPlanner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time, INFINITY_TIME};
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

/// SIPP configuration.
#[derive(Debug, Clone, Copy)]
pub struct SippConfig {
    /// Cap on state expansions per request.
    pub max_expansions: usize,
    /// Maximum route duration relative to the departure.
    pub horizon: Time,
    /// How long the departure may be postponed on a contested origin.
    pub max_depart_delay: Time,
}

impl Default for SippConfig {
    fn default() -> Self {
        SippConfig {
            max_expansions: 200_000,
            horizon: 4096,
            max_depart_delay: 256,
        }
    }
}

/// Counters for the SIPP planner.
#[derive(Debug, Default, Clone, Copy)]
pub struct SippStats {
    /// Requests planned.
    pub planned: usize,
    /// State (cell, interval) expansions across all requests.
    pub expansions: usize,
}

/// The SIPP planner.
#[derive(Debug, Clone)]
pub struct SippPlanner {
    matrix: WarehouseMatrix,
    /// Reserved instants per cell. Committed routes are mutually
    /// collision-free, so each `(cell, t)` is reserved by at most one
    /// route and a plain set suffices (removal-safe).
    blocks: HashMap<Cell, BTreeSet<Time>>,
    /// Directed motions `(from, to, t)` of committed routes, for swap
    /// conflicts.
    motions: HashSet<(Cell, Cell, Time)>,
    /// Committed routes by id, for retirement and cancellation.
    routes: HashMap<RequestId, Route>,
    retire_queue: BTreeSet<(Time, RequestId)>,
    /// Configuration.
    pub config: SippConfig,
    /// Counters.
    pub stats: SippStats,
    /// High-water mark of search runtime memory (part of MC).
    pub search_peak_bytes: usize,
}

/// A maximal safe interval `[start, end]` (inclusive; `end` may be
/// `INFINITY_TIME`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    start: Time,
    end: Time,
}

#[derive(PartialEq, Eq)]
struct Node {
    f: Time,
    g: Time,
    cell: Cell,
    interval_start: Time,
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
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

impl SippPlanner {
    /// Create a SIPP planner.
    pub fn new(matrix: WarehouseMatrix, config: SippConfig) -> Self {
        SippPlanner {
            matrix,
            blocks: HashMap::new(),
            motions: HashSet::new(),
            routes: HashMap::new(),
            retire_queue: BTreeSet::new(),
            config,
            stats: SippStats::default(),
            search_peak_bytes: 0,
        }
    }

    /// Number of active committed routes.
    pub fn active_routes(&self) -> usize {
        self.routes.len()
    }

    /// The safe interval of `cell` containing `t`, or `None` when `t` is
    /// reserved.
    fn interval_at(&self, cell: Cell, t: Time) -> Option<Interval> {
        let Some(blocked) = self.blocks.get(&cell) else {
            return Some(Interval {
                start: 0,
                end: INFINITY_TIME,
            });
        };
        if blocked.contains(&t) {
            return None;
        }
        let start = blocked.range(..t).next_back().map_or(0, |&b| b + 1);
        let end = blocked.range(t..).next().map_or(INFINITY_TIME, |&b| b - 1);
        Some(Interval { start, end })
    }

    /// Whether the motion `from → to` departing at `t` swaps with a
    /// committed route.
    #[inline]
    fn swap_blocked(&self, from: Cell, to: Cell, t: Time) -> bool {
        self.motions.contains(&(to, from, t))
    }

    /// SIPP search from `start` to `goal` departing no earlier than
    /// `depart`.
    fn search(&mut self, start: Cell, goal: Cell, depart: Time) -> Option<Route> {
        // Postpone a contested departure, like the other baselines.
        let mut depart = depart;
        let deadline = depart + self.config.max_depart_delay;
        let start_interval = loop {
            match self.interval_at(start, depart) {
                Some(iv) => break iv,
                None => {
                    depart += 1;
                    if depart > deadline {
                        return None;
                    }
                }
            }
        };
        if start == goal {
            return Some(Route::stationary(depart, start));
        }

        let mut open = BinaryHeap::new();
        // Best arrival per (cell, interval-start).
        let mut best: HashMap<(Cell, Time), Time> = HashMap::new();
        // Parent: (cell, interval) → (prev cell, prev interval, departure).
        let mut parent: HashMap<(Cell, Time), (Cell, Time, Time)> = HashMap::new();
        open.push(Node {
            f: depart + start.manhattan(goal),
            g: depart,
            cell: start,
            interval_start: start_interval.start,
        });
        best.insert((start, start_interval.start), depart);
        let mut expansions = 0usize;

        while let Some(Node {
            g,
            cell,
            interval_start,
            ..
        }) = open.pop()
        {
            expansions += 1;
            if expansions > self.config.max_expansions {
                break;
            }
            if best.get(&(cell, interval_start)) != Some(&g) {
                continue; // stale
            }
            if cell == goal {
                self.stats.expansions += expansions;
                self.track_peak(&open, &best);
                return Some(self.reconstruct(&parent, start, depart, cell, interval_start, g));
            }
            if g - depart >= self.config.horizon {
                continue;
            }
            let interval_end = self.interval_at(cell, g).map_or(g, |iv| iv.end);
            for n in self.matrix.neighbors(cell) {
                if !(self.matrix.is_free(n) || n == goal) {
                    continue;
                }
                // Departure window: while we remain inside our interval and
                // the arrival (τ+1) can fall inside one of n's intervals.
                let latest_depart = interval_end.min(g + self.config.horizon);
                let mut arrive_from = g + 1;
                // Enumerate n's safe intervals overlapping the window.
                while arrive_from <= latest_depart.saturating_add(1) {
                    let Some(iv) = self.next_interval(n, arrive_from) else {
                        break;
                    };
                    if iv.start > latest_depart + 1 {
                        break;
                    }
                    let mut tau = iv.start.max(g + 1) - 1; // departure time
                                                           // Skip over swap conflicts while staying in both windows.
                    while tau <= latest_depart && tau < iv.end && self.swap_blocked(cell, n, tau) {
                        tau += 1;
                    }
                    if tau <= latest_depart && tau < iv.end && !self.swap_blocked(cell, n, tau) {
                        let arrival = tau + 1;
                        let key = (n, iv.start);
                        if best.get(&key).is_none_or(|&b| arrival < b) {
                            best.insert(key, arrival);
                            parent.insert(key, (cell, interval_start, tau));
                            open.push(Node {
                                f: arrival + n.manhattan(goal),
                                g: arrival,
                                cell: n,
                                interval_start: iv.start,
                            });
                        }
                    }
                    if iv.end == INFINITY_TIME {
                        break;
                    }
                    arrive_from = iv.end + 2; // first instant of the next interval region
                }
            }
            self.track_peak(&open, &best);
        }
        self.stats.expansions += expansions;
        None
    }

    /// First safe interval of `cell` whose end is ≥ `from` (i.e. the
    /// interval containing `from`, or the next one after it).
    fn next_interval(&self, cell: Cell, from: Time) -> Option<Interval> {
        let Some(blocked) = self.blocks.get(&cell) else {
            return Some(Interval {
                start: 0,
                end: INFINITY_TIME,
            });
        };
        let mut cur = from;
        loop {
            if !blocked.contains(&cur) {
                let start = blocked.range(..cur).next_back().map_or(0, |&b| b + 1);
                let end = blocked
                    .range(cur..)
                    .next()
                    .map_or(INFINITY_TIME, |&b| b - 1);
                return Some(Interval { start, end });
            }
            // `cur` is blocked: jump past the contiguous blocked run.
            let mut b = cur;
            for &next in blocked.range(cur..) {
                if next == b || next == b + 1 {
                    b = next;
                } else {
                    break;
                }
            }
            cur = b.checked_add(1)?;
        }
    }

    fn reconstruct(
        &self,
        parent: &HashMap<(Cell, Time), (Cell, Time, Time)>,
        start: Cell,
        depart: Time,
        goal: Cell,
        goal_interval: Time,
        arrival: Time,
    ) -> Route {
        // Walk back collecting (cell, arrival, departure) hops.
        let mut hops = vec![(goal, arrival)];
        let mut key = (goal, goal_interval);
        let mut departures = Vec::new();
        while let Some(&(pc, pi, tau)) = parent.get(&key) {
            departures.push(tau);
            let p_arrival = tau; // we waited at pc until tau, then moved
            hops.push((pc, p_arrival));
            key = (pc, pi);
            if pc == start && parent.get(&key).is_none() {
                break;
            }
        }
        hops.reverse();
        departures.reverse();
        // Expand into a per-second grid sequence.
        let mut grids = Vec::new();
        let mut t = depart;
        let mut cur = start;
        grids.push(cur);
        for (i, &(next_cell, _)) in hops.iter().enumerate().skip(1) {
            let tau = departures[i - 1];
            while t < tau {
                grids.push(cur);
                t += 1;
            }
            grids.push(next_cell);
            cur = next_cell;
            t += 1;
        }
        Route::new(depart, grids)
    }

    fn track_peak(&mut self, open: &BinaryHeap<Node>, best: &HashMap<(Cell, Time), Time>) {
        let bytes = open.len() * core::mem::size_of::<Node>() + memory::hashmap_bytes(best);
        self.search_peak_bytes = self.search_peak_bytes.max(bytes);
    }

    fn commit(&mut self, id: RequestId, route: &Route) {
        for (t, cell) in route.occupancy() {
            self.blocks.entry(cell).or_default().insert(t);
        }
        for (k, w) in route.grids.windows(2).enumerate() {
            if w[0] != w[1] {
                self.motions.insert((w[0], w[1], route.start + k as Time));
            }
        }
        self.retire_queue.insert((route.end_time(), id));
        self.routes.insert(id, route.clone());
    }

    fn release(&mut self, id: RequestId) -> bool {
        let Some(route) = self.routes.remove(&id) else {
            return false;
        };
        self.retire_queue.remove(&(route.end_time(), id));
        for (t, cell) in route.occupancy() {
            if let Some(b) = self.blocks.get_mut(&cell) {
                b.remove(&t);
                if b.is_empty() {
                    self.blocks.remove(&cell);
                }
            }
        }
        for (k, w) in route.grids.windows(2).enumerate() {
            if w[0] != w[1] {
                self.motions.remove(&(w[0], w[1], route.start + k as Time));
            }
        }
        true
    }
}

impl ReplayPlanner for SippPlanner {
    fn adopt(&mut self, id: RequestId, route: &Route) {
        self.commit(id, route);
    }
}

impl Planner for SippPlanner {
    fn name(&self) -> &'static str {
        "SIPP"
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        match self.search(req.origin, req.destination, req.t) {
            Some(route) => {
                debug_assert!(route.validate(&self.matrix).is_ok());
                self.commit(req.id, &route);
                self.stats.planned += 1;
                PlanOutcome::Planned(route)
            }
            None => PlanOutcome::Infeasible,
        }
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        while let Some(&(end, id)) = self.retire_queue.iter().next() {
            if end >= now {
                break;
            }
            self.release(id);
        }
        Vec::new()
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        self.release(id)
    }

    fn memory_bytes(&self) -> usize {
        let blocks: usize = self
            .blocks
            .values()
            .map(memory::btreeset_bytes)
            .sum::<usize>()
            + memory::hashmap_bytes(&self.blocks);
        let routes: usize = self.routes.values().map(|r| r.memory_bytes()).sum();
        blocks
            + memory::hashset_bytes(&self.motions)
            + routes
            + memory::hashmap_bytes(&self.routes)
            + memory::btreeset_bytes(&self.retire_queue)
            + self.search_peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_warehouse::collision::validate_routes;
    use carp_warehouse::layout::LayoutConfig;
    use carp_warehouse::tasks::generate_requests;
    use carp_warehouse::QueryKind;

    #[test]
    fn straight_line_when_empty() {
        let m = WarehouseMatrix::empty(5, 10);
        let mut sipp = SippPlanner::new(m.clone(), SippConfig::default());
        let r = sipp
            .plan(&Request::new(
                0,
                3,
                Cell::new(2, 0),
                Cell::new(2, 9),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("route");
        assert_eq!(r.start, 3);
        assert_eq!(r.duration(), 9);
        assert!(r.validate(&m).is_ok());
    }

    #[test]
    fn waits_out_a_crossing_sweep() {
        let m = WarehouseMatrix::empty(6, 6);
        let mut sipp = SippPlanner::new(m.clone(), SippConfig::default());
        // Sweep down column 3 during t=0..5.
        let sweep = sipp
            .plan(&Request::new(
                0,
                0,
                Cell::new(0, 3),
                Cell::new(5, 3),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("sweep");
        let crosser = sipp
            .plan(&Request::new(
                1,
                0,
                Cell::new(2, 0),
                Cell::new(2, 5),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("crosser");
        assert_eq!(validate_routes(&[sweep, crosser.clone()]), None);
        assert!(crosser.validate(&m).is_ok());
    }

    #[test]
    fn swap_conflicts_are_avoided() {
        let m = WarehouseMatrix::empty(2, 8);
        let mut sipp = SippPlanner::new(m, SippConfig::default());
        let east = sipp
            .plan(&Request::new(
                0,
                0,
                Cell::new(0, 0),
                Cell::new(0, 7),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("east");
        let west = sipp
            .plan(&Request::new(
                1,
                0,
                Cell::new(0, 7),
                Cell::new(0, 0),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("west");
        assert_eq!(validate_routes(&[east, west]), None);
    }

    #[test]
    fn dense_stream_is_collision_free() {
        let layout = LayoutConfig::small().generate();
        let mut sipp = SippPlanner::new(layout.matrix.clone(), SippConfig::default());
        let mut routes = Vec::new();
        for req in generate_requests(&layout, 90, 4.0, 2025) {
            if let PlanOutcome::Planned(r) = sipp.plan(&req) {
                assert!(r.validate(&layout.matrix).is_ok());
                routes.push(r);
            }
        }
        assert!(routes.len() >= 88, "only {} planned", routes.len());
        assert_eq!(validate_routes(&routes), None);
    }

    #[test]
    fn interval_computation_matches_blocks() {
        let m = WarehouseMatrix::empty(2, 2);
        let mut sipp = SippPlanner::new(m, SippConfig::default());
        let c = Cell::new(0, 0);
        sipp.blocks.entry(c).or_default().extend([3u32, 4, 9]);
        assert_eq!(sipp.interval_at(c, 0), Some(Interval { start: 0, end: 2 }));
        assert_eq!(sipp.interval_at(c, 3), None);
        assert_eq!(sipp.interval_at(c, 5), Some(Interval { start: 5, end: 8 }));
        assert_eq!(
            sipp.interval_at(c, 10),
            Some(Interval {
                start: 10,
                end: INFINITY_TIME
            })
        );
        assert_eq!(
            sipp.next_interval(c, 3),
            Some(Interval { start: 5, end: 8 })
        );
        assert_eq!(
            sipp.next_interval(c, 9),
            Some(Interval {
                start: 10,
                end: INFINITY_TIME
            })
        );
    }

    #[test]
    fn retirement_and_cancellation_release_blocks() {
        let m = WarehouseMatrix::empty(1, 6);
        let mut sipp = SippPlanner::new(m, SippConfig::default());
        sipp.plan(&Request::new(
            0,
            0,
            Cell::new(0, 0),
            Cell::new(0, 5),
            QueryKind::Pickup,
        ));
        assert_eq!(sipp.active_routes(), 1);
        assert!(sipp.cancel(0));
        assert!(sipp.blocks.is_empty());
        assert!(sipp.motions.is_empty());
        // And again via advance().
        sipp.plan(&Request::new(
            1,
            0,
            Cell::new(0, 0),
            Cell::new(0, 5),
            QueryKind::Pickup,
        ));
        sipp.advance(100);
        assert_eq!(sipp.active_routes(), 0);
        assert!(sipp.blocks.is_empty());
    }

    #[test]
    fn sipp_matches_sap_route_lengths() {
        use crate::sap::SapPlanner;
        use carp_spacetime::AStarConfig;
        let layout = LayoutConfig::small().generate();
        let requests = generate_requests(&layout, 50, 2.0, 404);
        let mut sipp = SippPlanner::new(layout.matrix.clone(), SippConfig::default());
        let mut sap = SapPlanner::new(layout.matrix.clone(), AStarConfig::default());
        let (mut a, mut b) = (0u64, 0u64);
        for req in &requests {
            if let (Some(x), Some(y)) = (sipp.plan(req).route(), sap.plan(req).route()) {
                a += x.finish_exclusive() as u64;
                b += y.finish_exclusive() as u64;
            }
        }
        let gap = (a as f64 - b as f64).abs() / b as f64;
        assert!(
            gap < 0.02,
            "SIPP vs SAP completion gap {gap:.4} ({a} vs {b})"
        );
    }
}
