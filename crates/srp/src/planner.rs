//! End-to-end Strip-based Route Planning (§VI, Algorithm 4).
//!
//! Planning one request runs a time-dependent Dijkstra over the strip
//! graph. Labels are `(strip, entry cell, arrival time)`; relaxing an edge
//! `u → v` prices the intra-strip leg from the current cell to the transit
//! grid adjacent to `v` (the edge weight of Definition 5), then crosses the
//! boundary. The legs out of one settled strip all start from its one
//! label, so one backtracking pass per strip and direction prices them all
//! (`crate::intra`). Collision awareness lives entirely at the intra-strip
//! level (segment stores) plus one global boundary-crossing table for
//! cross-strip swap conflicts (an engineering completion the paper leaves
//! implicit — DESIGN.md §3).
//!
//! The search restrictions (no backward intra-strip moves, greedy transit
//! pairs, one visit per strip) can rarely make a request infeasible; as the
//! paper prescribes (§VI remarks), such requests fall back to grid-level
//! space-time A\*, which reads the committed segment stores and crossing
//! set directly through `StoreView` — no reservation table is built.

use crate::convert::{compose, decompose, Decomposition};
#[cfg(debug_assertions)]
use crate::intra::plan_within_reference;
use crate::intra::{arrival_at, IntraConfig, IntraRoute, IntraSweep};
use crate::lane_cursor::{LaneCursor, LaneProbe};
use crate::mul_hash::MulHasher;
use crate::strip_graph::{EdgeGeom, StripEdge, StripGraph, StripId, StripKind};
use carp_geometry::engine::{ShardKey, StoreEngine};
use carp_geometry::store::SegmentStore;
use carp_geometry::{Segment, SlopeIndexStore};
use carp_spacetime::{AStarConfig, Occupancy, SpaceTimeAStar};
use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::memory;
use carp_warehouse::planner::{EngineMetrics, PlanOutcome, Planner, ReplayPlanner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use core::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Configuration of the SRP planner.
#[derive(Debug, Clone)]
pub struct SrpConfig {
    /// Intra-strip backtracking limits.
    pub intra: IntraConfig,
    /// How long a robot may wait at a transit cell for the boundary
    /// crossing and the entry cell of the next strip to clear.
    pub max_entry_delay: Time,
    /// How long the departure may be postponed when the origin cell is
    /// contested at the request time.
    pub max_start_delay: Time,
    /// Use the Manhattan heuristic, weighted by 17/16 (`estimate`), on
    /// the inter-strip search (turns the paper's plain Dijkstra into
    /// weighted A\*, with far fewer strip expansions). It changes routes,
    /// not just work: a strip keeps one label, so A\* can settle a strip
    /// before its earliest arrival is known, even with no traffic, and the
    /// weight lets an entry nearer the destination pop before a cheaper one
    /// farther away (DESIGN.md §6, "The heuristic is not result-neutral").
    /// Neither search is optimal under traffic, where an intra-strip leg
    /// can fail from an early label and pass from a later one. `false`
    /// runs plain Dijkstra.
    pub use_heuristic: bool,
    /// Start-time bumps retried at strip level before resorting to the
    /// grid fallback. A request whose direct traversal is blocked (e.g. a
    /// head-on meeting inside one aisle, unresolvable by forward-only
    /// backtracking) usually becomes feasible once the oncoming traffic has
    /// drained — retrying with a postponed departure keeps planning inside
    /// the fast strip framework.
    pub retry_bumps: [Time; 3],
    /// Fall back to grid-level space-time A\* when the strip-level search
    /// fails (§VI remarks).
    pub use_fallback: bool,
    /// Fallback search limits.
    pub fallback: AStarConfig,
    /// Record the Fig. 22(a) TC breakdown (adds two `Instant` reads per
    /// intra-strip call; off by default to keep TC comparisons clean).
    pub instrument: bool,
    /// Cooperative cancellation token ([`Planner::arm_cancel`]): the
    /// Phase-1 search polls it every few heap pops, abandoning the request
    /// (→ `Infeasible`, nothing committed) once it fires. `None` (the
    /// default) never cancels. The token only *stops* work — with it
    /// unfired, routes are bit-identical to an unarmed run, so the
    /// determinism contract is untouched whenever deadlines are disabled.
    pub cancel: Option<carp_warehouse::planner::CancelToken>,
}

impl Default for SrpConfig {
    fn default() -> Self {
        SrpConfig {
            intra: IntraConfig::default(),
            max_entry_delay: 48,
            max_start_delay: 128,
            retry_bumps: [8, 24, 72],
            use_heuristic: true,
            use_fallback: true,
            fallback: AStarConfig::default(),
            instrument: false,
            cancel: None,
        }
    }
}

/// Counters and the Fig. 22(a) time breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct SrpStats {
    /// Successfully planned requests.
    pub planned: usize,
    /// Requests resolved by a strip-level retry with postponed departure.
    pub retries: usize,
    /// Requests resolved by the A\* fallback.
    pub fallbacks: usize,
    /// Requests that could not be planned at all.
    pub infeasible: usize,
    /// Strip-graph nodes settled across all requests.
    pub strips_settled: usize,
    /// Intra-strip planning calls.
    pub intra_calls: usize,
    /// Backtracking nodes (stop points) visited by the search phase's
    /// intra-strip passes, one pass per settled strip and direction.
    pub intra_nodes: usize,
    /// Nanoseconds in inter-strip search bookkeeping (when instrumented).
    pub inter_ns: u64,
    /// Nanoseconds in intra-strip planning + collision queries, including
    /// the boundary-crossing scan that prices each strip edge's departure.
    pub intra_ns: u64,
    /// Nanoseconds converting between strip and grid representations.
    pub convert_ns: u64,
    /// High-water bytes of the fallback A\* search (part of MC).
    pub fallback_peak_bytes: usize,
}

/// Which internal search path produced a committed route. Recorded per
/// commit so the audit layer can trace a bad route back to the code path
/// that emitted it (conflict-provenance, DESIGN.md §"Auditing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerPath {
    /// The direct strip-level search at the request's emergence time.
    Direct,
    /// A strip-level retry with the departure postponed by `bump` steps.
    Retry {
        /// The start-time bump that made the request feasible.
        bump: Time,
    },
    /// The grid-level space-time A\* fallback (§VI remarks).
    Fallback,
    /// A route committed from outside via [`SrpPlanner::commit_route`].
    External,
}

impl core::fmt::Display for PlannerPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlannerPath::Direct => write!(f, "direct strip search"),
            PlannerPath::Retry { bump } => write!(f, "strip retry (departure +{bump})"),
            PlannerPath::Fallback => write!(f, "grid A* fallback"),
            PlannerPath::External => write!(f, "externally committed"),
        }
    }
}

/// Provenance of one committed route: the producing path plus the strip
/// chain and boundary crossings of its decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Which search path produced the route.
    pub path: PlannerPath,
    /// Strips traversed, in time order (consecutive duplicates collapsed).
    pub strips: Vec<StripId>,
    /// Directed boundary crossings `(from, to, departure time)`.
    pub crossings: Vec<(Cell, Cell, Time)>,
    /// Number of stored segments the route decomposed into.
    pub segments: usize,
}

impl core::fmt::Display for Provenance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "path={}, strips=[", self.path)?;
        for (i, s) in self.strips.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{s}")?;
        }
        write!(
            f,
            "], segments={}, crossings={}",
            self.segments,
            self.crossings.len()
        )
    }
}

/// Bookkeeping for one committed route, enough to retire it later and to
/// answer provenance queries while it is active: its decomposition names
/// every stored segment and crossing exactly.
#[derive(Debug, Clone)]
struct Committed {
    dec: Decomposition,
    path: PlannerPath,
}

/// Sentinel node id for the search goal.
const GOAL: StripId = StripId::MAX;

/// A parent-chain entry of the cost-only inter-strip search: the hop's leg
/// lives within strip `prev`, ends at `exit_cell` and waits there until
/// `depart`; the keyed node is entered at `depart + 1` (or, for the goal
/// of an aisle destination, reached at `depart` without a crossing).
#[derive(Debug, Clone, Copy)]
struct ParentLite {
    prev: StripId,
    exit_cell: Cell,
    depart: Time,
}

impl ParentLite {
    const NONE: ParentLite = ParentLite {
        prev: GOAL,
        exit_cell: Cell::new(0, 0),
        depart: 0,
    };
}

/// Heap key of the Phase-1 search: `(f, Reverse(g), strip, edge)`. Among
/// equal `f` the deepest entry wins; the trailing `(strip, edge)` pair
/// makes every live key unique — node entries carry `NO_EDGE`, deferred
/// edge entries carry the edge's adjacency index, and each `(strip, edge)`
/// is pushed at most once per search — so the pop order is a total order
/// over entries, independent of the heap's internal layout.
///
/// The four 32-bit fields are packed into one `u128`, most significant
/// first, with `g` stored as `!g`: comparing the integers compares the
/// tuples lexicographically, as one integer comparison instead of four
/// field comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SearchKey(u128);

impl SearchKey {
    #[inline]
    fn new(f: Time, g: Time, strip: StripId, edge: u32) -> Self {
        SearchKey(
            u128::from(f) << 96 | u128::from(!g) << 64 | u128::from(strip) << 32 | u128::from(edge),
        )
    }

    /// `(g, strip, edge)`.
    #[inline]
    fn entry(self) -> (Time, StripId, u32) {
        (
            !(self.0 >> 64) as Time,
            (self.0 >> 32) as StripId,
            self.0 as u32,
        )
    }
}

/// The boundary-crossing set, hashed with [`MulHasher`]: it is asked on
/// every priced edge and never iterated, so no hash order reaches a route.
type CrossingSet = HashSet<(Cell, Cell, Time), BuildHasherDefault<MulHasher>>;

/// Sentinel edge index marking a node (settle) entry.
const NO_EDGE: u32 = u32::MAX;

/// Settles of one search before its first dead-region check; later checks
/// come after twice as many settles as the one before. The cut is exact, so
/// this only trades the cost of a check against the settles it saves.
const CUT_FIRST_CHECK: usize = 256;

/// Divisor of the heuristic's weight: the estimate is `m + ⌊m / 16⌋`,
/// weight 17/16 on the Manhattan distance `m`.
const ESTIMATE_WEIGHT_DIV: Time = 16;

/// The Phase-1 search's estimate of the time left from a cell whose
/// Manhattan distance to the destination is `m`: weighted A\* (Pohl, 1970)
/// with weight 17/16, rounded down. On an open aisle mesh Manhattan is
/// nearly exact, so plain A\* ties every strip of the origin–destination
/// rectangle at `f = f_opt` and one detour or wait makes it pop that whole
/// plateau before any `f_opt + 1` entry; the weight makes entries nearer
/// the destination win those ties (DESIGN.md §6). The heap keys of
/// `plan_strips` and the lane cursors' keys both come from here, and the
/// cursors rely on it being nondecreasing in `m`.
#[inline]
pub(crate) fn estimate(m: Time) -> Time {
    m + m / ESTIMATE_WEIGHT_DIV
}

/// Request-fixed context for resolving strip edges during one search.
#[derive(Clone, Copy)]
struct ResolveCtx {
    su: StripId,
    su_kind: StripKind,
    sd: StripId,
    sd_is_rack: bool,
    o: Cell,
    d: Cell,
}

/// Resolve one edge's transit pair under all the rack rules; `None` when
/// the edge is unusable for this request. Pure in `(graph, ctx, u, k, gu)`
/// — shared by the settle step and the deferred edge evaluation so both
/// see the same edges.
fn resolve_edge(
    graph: &StripGraph,
    ctx: &ResolveCtx,
    u: StripId,
    k: usize,
    gu: Cell,
) -> Option<(StripId, bool, Cell, Cell)> {
    let edge = graph.edges(u)[k];
    let v = edge.to;
    let v_is_goal_rack = v == ctx.sd && ctx.sd_is_rack;
    if graph.strip(v).kind == StripKind::Rack && !v_is_goal_rack {
        return None;
    }
    let pair = if v_is_goal_rack {
        transit_to_cell(graph, u, &edge, ctx.d)
    } else {
        Some(graph.transition(u, &edge, gu))
    };
    let (g_u, g_v) = pair?;
    // Within a rack origin strip, no movement is possible.
    if ctx.su_kind == StripKind::Rack && u == ctx.su && g_u != ctx.o {
        return None;
    }
    Some((v, v_is_goal_rack, g_u, g_v))
}

/// Reusable per-request search state, generation-stamped so consecutive
/// plans never re-clear the dense arrays.
#[derive(Debug, Default, Clone)]
struct SearchScratch {
    gen: u32,
    stamp: Vec<u32>,
    settled_stamp: Vec<u32>,
    dist_v: Vec<Time>,
    entry: Vec<Cell>,
    parent: Vec<ParentLite>,
    /// One cursor per lane of the strip graph. A lane's cursor is written
    /// when its strip settles, so `settled_stamp` dates it: entries of the
    /// lane reach the heap only after that settle.
    cursors: Vec<LaneCursor>,
    /// The Phase-1 heap, kept between searches for its allocation.
    heap: BinaryHeap<Reverse<SearchKey>>,
    /// Per flat edge slot: stamped when the edge is consumed — popped from
    /// the heap, or refused by `resolve_edge` when its strip settles.
    consumed: Vec<u32>,
    /// Per strip: stamped with `walk_gen` when a dead-region walk adds it.
    region: Vec<u32>,
    walk_gen: u32,
    /// The dead-region walk's stack, kept for its allocation.
    walk: Vec<StripId>,
    /// Per strip and direction, slot `2 · strip + forward`: the intra pass
    /// this search ran from the strip's label.
    passes: Vec<PassSlot>,
    /// The passes' frame stack and cover arena, emptied per search.
    sweep: IntraSweep,
}

/// One intra pass of a search: when stamped with the search's generation,
/// its covers are `sweep.covers()[covers.0..covers.1]`.
#[derive(Debug, Default, Clone, Copy)]
struct PassSlot {
    gen: u32,
    covers: (u32, u32),
}

impl SearchScratch {
    /// Start a search over `n` nodes, `lanes` lanes and `slots` directed
    /// edges. The arrays grow on the first search, not when the planner is
    /// built.
    fn begin(&mut self, n: usize, lanes: usize, slots: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.settled_stamp.resize(n, 0);
            self.dist_v.resize(n, 0);
            self.entry.resize(n, Cell::new(0, 0));
            self.parent.resize(n, ParentLite::NONE);
            self.region.resize(n, 0);
            self.passes.resize(2 * n, PassSlot::default());
        }
        if self.cursors.len() < lanes {
            self.cursors.resize(lanes, LaneCursor::default());
        }
        if self.consumed.len() < slots {
            self.consumed.resize(slots, 0);
        }
        self.heap.clear();
        self.sweep.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Extremely rare wrap: hard-reset the stamps.
            self.stamp.fill(0);
            self.settled_stamp.fill(0);
            self.consumed.fill(0);
            self.passes.fill(PassSlot::default());
            self.gen = 1;
        }
    }

    #[inline]
    fn dist(&self, i: usize) -> Option<Time> {
        (self.stamp[i] == self.gen).then(|| self.dist_v[i])
    }

    #[inline]
    fn relax(&mut self, i: usize, t: Time, entry: Cell, p: ParentLite) {
        debug_assert!(!self.settled(i), "strip {i} relabeled after it settled");
        self.stamp[i] = self.gen;
        self.dist_v[i] = t;
        self.entry[i] = entry;
        self.parent[i] = p;
    }

    #[inline]
    fn settled(&self, i: usize) -> bool {
        self.settled_stamp[i] == self.gen
    }

    #[inline]
    fn settle(&mut self, i: usize) {
        self.settled_stamp[i] = self.gen;
    }

    #[inline]
    fn consume(&mut self, slot: usize) {
        self.consumed[slot] = self.gen;
    }

    /// Whether no pop of this search can label any unsettled strip of
    /// `targets`, which are not rack strips. None of them may have a label.
    /// Then walk backwards from them over in-edges `u → y`, adding each
    /// unsettled, unlabeled aisle strip `u` to the region, and give up at
    /// the first *live* in-edge: from a settled strip that has not consumed
    /// it, or from a labeled strip that has yet to settle. In-edges from
    /// rack strips are skipped: only the origin's rack strip is ever
    /// labeled, and it is labeled from the start. With no live in-edge, no
    /// strip of the region can be labeled first, so none ever is.
    fn region_is_dead(&mut self, graph: &StripGraph, targets: &[StripId]) -> bool {
        self.walk_gen = self.walk_gen.wrapping_add(1);
        if self.walk_gen == 0 {
            self.region.fill(0);
            self.walk_gen = 1;
        }
        self.walk.clear();
        for &y in targets {
            if self.settled(y as usize) {
                continue;
            }
            if self.dist(y as usize).is_some() {
                return false;
            }
            self.region[y as usize] = self.walk_gen;
            self.walk.push(y);
        }
        while let Some(y) = self.walk.pop() {
            for e in graph.edges(y) {
                let ui = e.to as usize;
                if self.settled(ui) {
                    if self.consumed[graph.in_edge_slot(y, e)] != self.gen {
                        return false;
                    }
                } else if self.dist(ui).is_some() {
                    return false;
                } else if graph.strip(e.to).kind == StripKind::Aisle
                    && self.region[ui] != self.walk_gen
                {
                    self.region[ui] = self.walk_gen;
                    self.walk.push(e.to);
                }
            }
        }
        true
    }

    /// Whether strip `i` is in the region of the last dead-region walk.
    #[inline]
    fn in_region(&self, i: usize) -> bool {
        self.region[i] == self.walk_gen
    }

    fn memory_bytes(&self) -> usize {
        memory::vec_bytes(&self.stamp)
            + memory::vec_bytes(&self.settled_stamp)
            + memory::vec_bytes(&self.dist_v)
            + memory::vec_bytes(&self.entry)
            + memory::vec_bytes(&self.parent)
            + memory::vec_bytes(&self.cursors)
            + memory::raw_bytes::<Reverse<SearchKey>>(self.heap.capacity())
            + memory::vec_bytes(&self.consumed)
            + memory::vec_bytes(&self.region)
            + memory::vec_bytes(&self.walk)
            + memory::vec_bytes(&self.passes)
            + self.sweep.memory_bytes()
    }
}

/// The Strip-based Route Planner, generic over the segment store so the
/// Fig. 22(b) ablation can swap the slope index for the naive ordered set.
#[derive(Debug, Clone)]
pub struct SrpPlanner<S: SegmentStore = SlopeIndexStore> {
    matrix: WarehouseMatrix,
    graph: StripGraph,
    /// The engine owning all per-strip segment stores.
    engine: StoreEngine<S>,
    /// Directed boundary motions of active routes.
    crossings: CrossingSet,
    committed: HashMap<RequestId, Committed>,
    retire_queue: BTreeSet<(Time, RequestId)>,
    scratch: SearchScratch,
    /// Settles of one search before its first dead-region check
    /// (`CUT_FIRST_CHECK`; unit tests lower it to reach small graphs).
    cut_first_check: usize,
    /// Configuration.
    pub config: SrpConfig,
    /// Counters and TC breakdown.
    pub stats: SrpStats,
}

impl SrpPlanner<SlopeIndexStore> {
    /// Build an SRP planner with the slope-indexed store (the full method
    /// of the paper, §V-D).
    pub fn new(matrix: WarehouseMatrix, config: SrpConfig) -> Self {
        Self::with_store(matrix, config)
    }
}

impl<S: SegmentStore + Default> SrpPlanner<S> {
    /// Build an SRP planner with a custom segment store implementation.
    pub fn with_store(matrix: WarehouseMatrix, config: SrpConfig) -> Self {
        let graph = StripGraph::build(&matrix);
        SrpPlanner {
            matrix,
            graph,
            engine: StoreEngine::new(),
            crossings: CrossingSet::default(),
            committed: HashMap::new(),
            retire_queue: BTreeSet::new(),
            scratch: SearchScratch::default(),
            cut_first_check: CUT_FIRST_CHECK,
            config,
            stats: SrpStats::default(),
        }
    }

    /// The underlying strip graph (for inspection and the Table II stats).
    pub fn graph(&self) -> &StripGraph {
        &self.graph
    }

    /// The warehouse matrix the planner operates on.
    pub fn matrix(&self) -> &WarehouseMatrix {
        &self.matrix
    }

    /// Number of currently committed (active) routes.
    pub fn active_routes(&self) -> usize {
        self.committed.len()
    }

    /// Total segments across all strip stores.
    pub fn total_segments(&self) -> usize {
        self.engine.total_segments()
    }

    /// Byte breakdown of [`Planner::memory_bytes`] for diagnostics:
    /// `(stores, committed bookkeeping, crossings, scratch, graph)`.
    pub fn memory_breakdown(&self) -> (usize, usize, usize, usize, usize) {
        let stores: usize = self.engine.memory_bytes();
        let committed: usize = self
            .committed
            .values()
            .map(|c| memory::vec_bytes(&c.dec.segments) + memory::vec_bytes(&c.dec.crossings))
            .sum::<usize>()
            + memory::hashmap_bytes(&self.committed)
            + memory::btreeset_bytes(&self.retire_queue);
        (
            stores,
            committed,
            memory::hashset_bytes(&self.crossings),
            self.scratch.memory_bytes() + self.stats.fallback_peak_bytes,
            self.graph.memory_bytes(),
        )
    }

    /// Plan a route *without committing it* — the pure strip-level search
    /// (including the retry bumps, excluding the grid fallback). Used by
    /// the competitive-ratio experiment (Theorem 1), which compares single
    /// uncommitted routes against the space-time-optimal ones.
    pub fn plan_uncommitted(&mut self, req: &Request) -> Option<Route> {
        self.plan_strip_level(req).map(|(route, _)| route)
    }

    /// Commit an externally produced route into the collision state (used
    /// by experiments that need to seed background traffic).
    pub fn commit_route(&mut self, id: RequestId, route: &Route) {
        self.commit(id, route, PlannerPath::External);
    }

    /// Provenance of a currently committed (not yet retired) route: the
    /// search path that produced it plus its strip chain and crossings.
    pub fn route_provenance(&self, id: RequestId) -> Option<Provenance> {
        self.committed.get(&id).map(|c| {
            let mut strips: Vec<StripId> = Vec::new();
            for &(sid, _) in &c.dec.segments {
                if strips.last() != Some(&sid) {
                    strips.push(sid);
                }
            }
            Provenance {
                path: c.path,
                strips,
                crossings: c.dec.crossings.clone(),
                segments: c.dec.segments.len(),
            }
        })
    }

    #[inline]
    fn now(&self) -> Option<Instant> {
        self.config.instrument.then(Instant::now)
    }

    /// Whether the armed cancellation token (if any) has fired.
    #[inline]
    fn cancelled(&self) -> bool {
        self.config.cancel.as_ref().is_some_and(|t| t.fired())
    }

    #[inline]
    fn lap(&mut self, start: Option<Instant>, bucket: fn(&mut SrpStats) -> &mut u64) {
        if let Some(s) = start {
            *bucket(&mut self.stats) += s.elapsed().as_nanos() as u64;
        }
    }

    /// Earliest `t' ∈ [t, t + limit]` at which `(t', cell)` is free in the
    /// cell's strip store, or `None`.
    fn probe_free_time(&self, cell: Cell, t: Time, limit: Time) -> Option<Time> {
        let sid = self.graph.strip_of(&self.matrix, cell);
        let off = self.graph.strip(sid).offset_of(cell);
        self.engine
            .shard(sid)
            .earliest_free_point(t, t + limit, off)
    }

    /// Plan a route at strip level; `None` means the restricted search
    /// space has no solution and the fallback should take over.
    ///
    /// The search runs in two phases for speed: a cost-only time-dependent
    /// A*/Dijkstra over strips (no segment polylines are materialized —
    /// relaxations only need edge durations), then a reconstruction pass
    /// that re-plans the few legs along the winning chain with full
    /// polylines. Both phases query the same immutable stores, so the
    /// rebuilt legs are identical to the ones the search priced.
    fn plan_strips(&mut self, req: &Request) -> Option<Route> {
        let (o, d) = (req.origin, req.destination);
        let su = self.graph.strip_of(&self.matrix, o);
        let sd = self.graph.strip_of(&self.matrix, d);
        let start_t = self.probe_free_time(o, req.t, self.config.max_start_delay)?;

        if o == d {
            return Some(Route::stationary(start_t, o));
        }
        let su_kind = self.graph.strip(su).kind;
        if su == sd && su_kind == StripKind::Rack {
            return None; // cannot move along a rack strip
        }

        // Phase 1: cost-only time-dependent Dijkstra / A* (Algorithm 4).
        let use_h = self.config.use_heuristic;
        let h = move |cell: Cell| -> Time {
            if use_h {
                estimate(cell.manhattan(d))
            } else {
                0
            }
        };
        // Honour a token that fired before the search even started (the
        // periodic poll below only triggers every 64 pops, which a short
        // search never reaches).
        if self.cancelled() {
            return None;
        }
        let n = self.graph.num_vertices();
        let goal_slot = n; // dense index of the GOAL pseudo-node
        self.scratch
            .begin(n + 1, self.graph.num_lanes(), self.graph.num_slots());
        // Min-heap on (f, Reverse(g)): among equal f the deepest entry wins,
        // so the search dives along one staircase instead of flooding the
        // whole equal-cost plateau between origin and destination. The
        // weighted estimate (`estimate`) breaks the plateau once a detour
        // or a wait has lifted the staircase above it: entries nearer the
        // destination then come first across f values too.
        //
        // Edges are evaluated LAZILY: an edge enters the heap as a cheap
        // optimistic entry (`edge_k != NO_EDGE`) carrying the admissible
        // bound `at + |gu → transit| + 1`; the expensive intra-strip +
        // crossing evaluation runs only when that bound reaches the top of
        // the heap. A long full-width aisle has O(W) edges, so even pushing
        // them all would dominate the search: its perpendicular edges into
        // aisle strips sit on two lanes, and a settle pushes only each
        // lane's first edge in heap order — popping a lane entry pushes the
        // lane's next one (`lane_cursor`). The pops come out exactly as if
        // every edge had been pushed at settle time. The remaining edges
        // are few and pushed at settle time; those into rack strips only
        // at a rack destination's feeders, the one place they resolve.
        let mut heap = core::mem::take(&mut self.scratch.heap);
        self.scratch
            .relax(su as usize, start_t, o, ParentLite::NONE);
        heap.push(Reverse(SearchKey::new(
            start_t + h(o),
            start_t,
            su,
            NO_EDGE,
        )));
        let sd_is_rack = self.graph.strip(sd).kind == StripKind::Rack;
        let ctx = ResolveCtx {
            su,
            su_kind,
            sd,
            sd_is_rack,
            o,
            d,
        };
        // Goal finality. The search ends as soon as the goal's distance can
        // no longer change, which is usually long before the heap drains —
        // a failed search would otherwise settle most of the graph.
        // * Aisle destination: only settling `sd` relaxes the goal, and
        //   `sd` settles once (the `u == sd` branch below breaks).
        // * Rack destination: only deferred edges relax the goal, and every
        //   such edge leaves a "feeder" — a strip holding an aisle cell next
        //   to `d`, or the origin strip (non-origin rack strips never
        //   settle). Once every feeder has settled and no goal edge is left
        //   on the heap, the goal's distance is final.
        // Either way the parent chain runs through settled strips only, so
        // the route Phase 2 rebuilds is the one a drained search would give.
        //
        // Dead-region cut. A search whose destination side cannot be
        // entered ends once no pop can give the goal a distance: after
        // `CUT_FIRST_CHECK`, then twice as many, … settles, the open targets
        // (`sd`, or a rack destination's unsettled feeders once no goal edge
        // is pending) are checked by `SearchScratch::region_is_dead`. The
        // cut is exact: it only ends searches that would fail anyway. Debug
        // builds drain such a search to its natural end, assert that the
        // goal stays unreached, and restore the counters of the cut.
        let mut feeders = [GOAL; 4];
        let mut n_feeders = 0;
        if sd_is_rack {
            for n in self.matrix.neighbors(d) {
                let s = self.graph.strip_of(&self.matrix, n);
                let can_settle = s == su || self.graph.strip(s).kind == StripKind::Aisle;
                if can_settle && !feeders[..n_feeders].contains(&s) {
                    feeders[n_feeders] = s;
                    n_feeders += 1;
                }
            }
        }
        let mut feeders_left = n_feeders;
        let mut goal_edges_pending = 0usize;
        let (mut settled_here, mut next_check) = (0usize, self.cut_first_check);
        let mut drain_from: Option<SrpStats> = None;
        let mut pops: u64 = 0;
        let mut cancelled = false;
        while let Some(Reverse(popped)) = heap.pop() {
            let (at, u, edge_k) = popped.entry();
            if u == GOAL || (sd_is_rack && feeders_left == 0 && goal_edges_pending == 0) {
                break;
            }
            // Cooperative cancellation: poll the armed token every 64 pops
            // (an atomic load + occasional `Instant::now`, far below the
            // cost of one edge evaluation). Bailing out mid-search commits
            // nothing — the caller sees a plain `None`.
            pops += 1;
            if pops & 63 == 0 && self.cancelled() {
                cancelled = true;
                break;
            }
            let ui = u as usize;

            if edge_k != NO_EDGE {
                // Deferred edge evaluation: `at` is the optimistic arrival.
                self.scratch.consume(self.graph.slot(u, edge_k));
                let gu = self.scratch.entry[ui];
                if let Some(lane) = self.graph.lane_of(u, edge_k) {
                    // A lane entry hands the heap its lane's next edge,
                    // whatever its own verdict below.
                    let probe = self.lane_probe(u, lane, d);
                    let cursor = self.scratch.cursors[lane as usize];
                    self.push_lane_head(&mut heap, u, lane, cursor, &probe);
                }
                let Some((v, v_is_goal_rack, g_u, g_v)) =
                    resolve_edge(&self.graph, &ctx, u, edge_k as usize, gu)
                else {
                    continue;
                };
                if v_is_goal_rack {
                    goal_edges_pending -= 1;
                }
                let vi = if v_is_goal_rack {
                    goal_slot
                } else {
                    v as usize
                };
                // `settled` and `dist` only tighten, so an edge skipped here
                // would have been skipped at any earlier time too.
                if self.scratch.settled(vi) || self.scratch.dist(vi).is_some_and(|dv| dv <= at) {
                    continue;
                }
                let Some(arrival) = self.eval_edge(u, g_u, g_v) else {
                    continue;
                };
                let depart = arrival - 1;
                if self.scratch.dist(vi).is_none_or(|dv| arrival < dv) {
                    debug_assert!(
                        drain_from.is_none() || !self.scratch.in_region(vi),
                        "dead-region cut: strip {vi} of the region got a label"
                    );
                    let parent = ParentLite {
                        prev: u,
                        exit_cell: g_u,
                        depart,
                    };
                    self.scratch
                        .relax(vi, arrival, if v_is_goal_rack { d } else { g_v }, parent);
                    let key = if v_is_goal_rack {
                        arrival
                    } else {
                        arrival + h(g_v)
                    };
                    let node = if v_is_goal_rack { GOAL } else { v };
                    heap.push(Reverse(SearchKey::new(key, arrival, node, NO_EDGE)));
                }
                continue;
            }

            if self.scratch.settled(ui) || self.scratch.dist(ui) != Some(at) {
                continue;
            }
            self.scratch.settle(ui);
            self.stats.strips_settled += 1;
            settled_here += 1;
            let is_feeder = feeders[..n_feeders].contains(&u);
            if is_feeder {
                feeders_left -= 1;
            }
            let gu = self.scratch.entry[ui];

            // Final leg when the destination strip is an aisle.
            if u == sd {
                if let Some(total) = self.intra_cost(u, d) {
                    if self.scratch.dist(goal_slot).is_none_or(|g| total < g) {
                        self.scratch.relax(
                            goal_slot,
                            total,
                            d,
                            ParentLite {
                                prev: u,
                                exit_cell: d,
                                depart: total,
                            },
                        );
                        heap.push(Reverse(SearchKey::new(total, total, GOAL, NO_EDGE)));
                    }
                }
                // Never expand beyond the destination strip; the goal's
                // distance is final now.
                break;
            }

            let strip_u = *self.graph.strip(u);
            for lane in self.graph.lanes(u) {
                let probe = self.lane_probe(u, lane, d);
                let cursor = LaneCursor::start(self.graph.lane_edges(lane), &probe);
                self.push_lane_head(&mut heap, u, lane, cursor, &probe);
            }
            for &k in self.graph.settle_edges(u, is_feeder) {
                let Some((v, v_is_goal_rack, g_u, g_v)) =
                    resolve_edge(&self.graph, &ctx, u, k as usize, gu)
                else {
                    self.scratch.consume(self.graph.slot(u, k));
                    continue;
                };
                let vi = if v_is_goal_rack {
                    goal_slot
                } else {
                    v as usize
                };
                if self.scratch.settled(vi) {
                    continue;
                }
                // Admissible bound: straight-line leg + one crossing step.
                let lb = at + strip_u.offset_of(gu).abs_diff(strip_u.offset_of(g_u)) + 1;
                if self.scratch.dist(vi).is_some_and(|dv| dv <= lb) {
                    continue;
                }
                let key = if v_is_goal_rack {
                    debug_assert!(is_feeder, "goal edge from a feeder");
                    goal_edges_pending += 1;
                    lb
                } else {
                    lb + h(g_v)
                };
                heap.push(Reverse(SearchKey::new(key, lb, u, k)));
            }
            if settled_here == next_check && drain_from.is_none() {
                next_check *= 2;
                // Settled targets are skipped: a feeder that settled has
                // handed its goal edges to the heap, which holds none now.
                let targets = if sd_is_rack {
                    &feeders[..n_feeders]
                } else {
                    core::slice::from_ref(&sd)
                };
                let dead = self.scratch.dist(goal_slot).is_none()
                    && goal_edges_pending == 0
                    && self.scratch.region_is_dead(&self.graph, targets);
                if dead {
                    if !cfg!(debug_assertions) {
                        break;
                    }
                    drain_from = Some(self.stats);
                }
            }
        }
        self.scratch.heap = heap;
        if let Some(stats) = drain_from {
            debug_assert!(
                self.scratch.dist(goal_slot).is_none(),
                "dead-region cut ended a search that reaches its goal"
            );
            self.stats = stats;
        }
        if cancelled {
            return None;
        }

        let total = self.scratch.dist(goal_slot)?;
        // Phase 2: reconstruct the leg chain (line 24 of Algorithm 4) by
        // walking the parent pointers and re-planning each leg in full.
        let convert_t = self.now();
        let mut hops: Vec<ParentLite> = Vec::new();
        let mut node = goal_slot;
        loop {
            let p = self.scratch.parent[node];
            debug_assert!(p.prev != GOAL, "goal is connected to the origin");
            hops.push(p);
            if p.prev == su {
                break;
            }
            node = p.prev as usize;
        }
        hops.reverse();
        self.lap(convert_t, |s| &mut s.convert_ns);

        let mut legs: Vec<(StripId, IntraRoute)> = Vec::with_capacity(hops.len() + 1);
        for hop in &hops {
            let u = hop.prev;
            let strip = *self.graph.strip(u);
            let enter_t = self.scratch.dist(u as usize).expect("on chain");
            let gu = self.scratch.entry[u as usize];
            let mut leg = self
                .intra_full(
                    u,
                    enter_t,
                    strip.offset_of(gu),
                    strip.offset_of(hop.exit_cell),
                )
                .expect("cost phase succeeded on this leg");
            debug_assert!(leg.arrive <= hop.depart);
            if leg.arrive < hop.depart {
                let off = strip.offset_of(hop.exit_cell);
                leg.segments
                    .push(Segment::wait(leg.arrive, hop.depart, off));
                leg.arrive = hop.depart;
            }
            legs.push((u, leg));
        }
        if sd_is_rack {
            // The rack destination is entered by the final crossing; it
            // contributes a single point of occupancy.
            legs.push((
                sd,
                IntraRoute {
                    segments: vec![Segment::point(total, self.graph.strip(sd).offset_of(d))],
                    enter: total,
                    arrive: total,
                },
            ));
        }

        let convert_t = self.now();
        let route = compose(&self.graph, &legs);
        self.lap(convert_t, |s| &mut s.convert_ns);
        debug_assert_eq!(route.destination(), d);
        debug_assert_eq!(route.end_time(), total);
        Some(route)
    }

    /// The key inputs of lane `lane` of the settled strip `u`.
    fn lane_probe(&self, u: StripId, lane: u32, d: Cell) -> LaneProbe {
        let ui = u as usize;
        LaneProbe::new(
            self.graph.strip(u),
            self.graph.lane(lane),
            self.scratch.dist_v[ui],
            self.scratch.entry[ui],
            d,
            self.config.use_heuristic,
        )
    }

    /// Advance `cursor` on lane `lane` of the settled strip `u` to the next
    /// edge that can still relax its target, push that edge and store the
    /// cursor. An edge whose target is settled, or already reached by its
    /// bound, would be skipped when popped — both facts only tighten — so
    /// it is dropped here instead, as the eager loop dropped it at settle
    /// time.
    fn push_lane_head(
        &mut self,
        heap: &mut BinaryHeap<Reverse<SearchKey>>,
        u: StripId,
        lane: u32,
        mut cursor: LaneCursor,
        probe: &LaneProbe,
    ) {
        debug_assert!(self.scratch.settled(u as usize), "lane of a settled strip");
        let (graph, scratch) = (&self.graph, &self.scratch);
        let edges = graph.edges(u);
        let next = cursor.next(graph.lane_edges(lane), probe, |k, lb| {
            let v = edges[k as usize].to as usize;
            scratch.settled(v) || scratch.dist(v).is_some_and(|dv| dv <= lb)
        });
        self.scratch.cursors[lane as usize] = cursor;
        if let Some((key, lb, k)) = next {
            heap.push(Reverse(SearchKey::new(key, lb, u, k)));
        }
    }

    /// Instrumented cost-only intra-strip query (search phase): the
    /// arrival at `exit` of the leg from the settled strip's label.
    ///
    /// A strip settles once, and a settled strip is never relabeled, so
    /// every query of it in one search starts from the same `(t, entry)`.
    /// The first query in each direction runs one intra pass toward the
    /// strip's end, and every query in that direction is answered from the
    /// pass's covers, exactly as a search per exit would answer it (`intra`
    /// module docs).
    fn intra_cost(&mut self, strip: StripId, exit: Cell) -> Option<Time> {
        let started = self.now();
        self.stats.intra_calls += 1;
        let si = strip as usize;
        debug_assert!(self.scratch.settled(si), "strip {strip} priced unsettled");
        let geom = *self.graph.strip(strip);
        let t = self.scratch.dist_v[si];
        let (from, to) = (geom.offset_of(self.scratch.entry[si]), geom.offset_of(exit));
        let store = self.engine.shard(strip);
        let arrive = if from == to || store.is_empty() {
            Some(t + from.abs_diff(to))
        } else {
            let forward = to > from;
            let slot = 2 * si + usize::from(forward);
            let scratch = &mut self.scratch;
            let pass = scratch.passes[slot];
            let (lo, hi) = if pass.gen == scratch.gen {
                pass.covers
            } else {
                let end = if forward { geom.len() as i32 - 1 } else { 0 };
                let lo = scratch.sweep.covers().len() as u32;
                self.stats.intra_nodes +=
                    scratch.sweep.run(store, t, from, end, &self.config.intra);
                let covers = (lo, scratch.sweep.covers().len() as u32);
                scratch.passes[slot] = PassSlot {
                    gen: scratch.gen,
                    covers,
                };
                covers
            };
            arrival_at(&scratch.sweep.covers()[lo as usize..hi as usize], from, to)
        };
        #[cfg(debug_assertions)]
        {
            let (reference, _) = plan_within_reference(store, t, from, to, &self.config.intra);
            debug_assert_eq!(
                arrive,
                reference.map(|r| r.arrive),
                "intra pass and reference disagree: strip {strip}, ({t}, {from}) → {to}"
            );
        }
        self.lap(started, |s| &mut s.intra_ns);
        arrive
    }

    /// Instrumented full intra-strip planning (reconstruction phase).
    fn intra_full(&mut self, strip: StripId, t: Time, from: i32, to: i32) -> Option<IntraRoute> {
        let started = self.now();
        let store = self.engine.shard(strip);
        let leg = self
            .scratch
            .sweep
            .route(store, t, from, to, &self.config.intra);
        self.lap(started, |s| &mut s.intra_ns);
        leg
    }

    /// Find the earliest boundary departure `>= arrive` for the motion
    /// `g_u -> g_v` (cost phase: no leg materialization). A departure is
    /// valid when nobody crosses the other way at that instant, the entry
    /// point `(depart + 1, v_off)` of the next strip is free, and the robot
    /// can wait at the transit cell until then.
    ///
    /// The wait check is lazy: the first departure passing the other two
    /// tests over the full `max_entry_delay` window is the answer exactly
    /// when waiting at `exit_off` over `[arrive, depart]` is collision-free,
    /// so the transit cell is probed only when the departure waits, and
    /// only over that span. Debug builds recompute the eager answer, which
    /// first bounds the window by the transit cell's first collision.
    fn cross_cost(
        &mut self,
        u: StripId,
        arrive: Time,
        exit_off: i32,
        g_u: Cell,
        g_v: Cell,
    ) -> Option<Time> {
        let started = self.now();
        let found = self
            .first_departure(arrive, arrive + self.config.max_entry_delay, g_u, g_v)
            .filter(|&depart| {
                depart == arrive
                    || self
                        .engine
                        .shard(u)
                        .earliest_collision(&Segment::wait(arrive, depart, exit_off))
                        .is_none()
            });
        #[cfg(debug_assertions)]
        {
            let max_entry_delay = self.config.max_entry_delay;
            let probe = Segment::wait(arrive, arrive + max_entry_delay, exit_off);
            let wait_limit = match self.engine.shard(u).earliest_collision(&probe) {
                Some(c) => {
                    debug_assert!(c.time > arrive, "transit cell reached collision-free");
                    (c.time - 1 - arrive).min(max_entry_delay)
                }
                None => max_entry_delay,
            };
            let eager = self.first_departure(arrive, arrive + wait_limit, g_u, g_v);
            debug_assert_eq!(found, eager, "lazy and eager transit waits disagree");
        }
        self.lap(started, |s| &mut s.intra_ns);
        found
    }

    /// The earliest departure in `[arrive, deadline]` whose entry point in
    /// `g_v`'s strip is free and that no one crosses the other way.
    fn first_departure(&self, arrive: Time, deadline: Time, g_u: Cell, g_v: Cell) -> Option<Time> {
        let v = self.graph.strip_of(&self.matrix, g_v);
        let v_off = self.graph.strip(v).offset_of(g_v);
        let store_v = self.engine.shard(v);
        let mut depart = arrive;
        while depart <= deadline {
            // Earliest free entry instant in the next strip ≥ depart + 1; the
            // single-pass store override replaces one point probe per delta.
            let entry = store_v.earliest_free_point(depart + 1, deadline + 1, v_off)?;
            let candidate = entry - 1;
            // Cross-strip swap: someone crossing the other way at `candidate`.
            if !self.crossings.contains(&(g_v, g_u, candidate)) {
                return Some(candidate);
            }
            depart = candidate + 1;
        }
        None
    }

    /// Price one edge of the settled strip `u`: intra-strip leg from its
    /// label to the transit cell, then the boundary-crossing scan. Returns
    /// the arrival time in the next strip (`depart + 1`), or `None` when the
    /// edge is infeasible at this settle time.
    fn eval_edge(&mut self, u: StripId, g_u: Cell, g_v: Cell) -> Option<Time> {
        let arrive = self.intra_cost(u, g_u)?;
        let exit_off = self.graph.strip(u).offset_of(g_u);
        let depart = self.cross_cost(u, arrive, exit_off, g_u, g_v)?;
        Some(depart + 1)
    }

    /// The committed traffic as the fallback A\* sees it.
    fn store_view(&self) -> StoreView<'_, S> {
        StoreView {
            matrix: &self.matrix,
            graph: &self.graph,
            engine: &self.engine,
            crossings: &self.crossings,
        }
    }

    /// Grid-level fallback (§VI remarks): space-time A\* over the committed
    /// segment stores and crossings, read in place through [`StoreView`].
    fn plan_fallback(&mut self, req: &Request) -> Option<Route> {
        let mut astar = SpaceTimeAStar::new(self.config.fallback);
        let r = astar.plan(
            &self.matrix,
            &self.store_view(),
            None,
            req.origin,
            req.destination,
            req.t,
        );
        self.stats.fallback_peak_bytes = self.stats.fallback_peak_bytes.max(astar.stats.peak_bytes);
        r
    }

    /// The strip-level part of [`Planner::plan`]: the direct search, then
    /// the postponed departures of `SrpConfig::retry_bumps`, stopping at
    /// the first success. A fired cancellation token skips the remaining
    /// bumps — the request is being abandoned, not rescued. Commits
    /// nothing and counts nothing but search work.
    fn plan_strip_level(&mut self, req: &Request) -> Option<(Route, PlannerPath)> {
        if let Some(route) = self.plan_strips(req) {
            return Some((route, PlannerPath::Direct));
        }
        for bump in self.config.retry_bumps {
            if self.cancelled() {
                return None;
            }
            let mut delayed = *req;
            delayed.t = req.t + bump;
            if let Some(route) = self.plan_strips(&delayed) {
                return Some((route, PlannerPath::Retry { bump }));
            }
        }
        None
    }

    /// Commit a planned route: decompose it and insert its segments and
    /// crossings into the collision state, tagged with the search path that
    /// produced it.
    fn commit(&mut self, id: RequestId, route: &Route, path: PlannerPath) {
        let started = self.now();
        let mut dec = decompose(&self.matrix, &self.graph, route);
        // Pre-commit validation of every segment against its strip's
        // store. The check is always on: a colliding commit means a planner
        // bug, and one probe per segment is noise next to the search that
        // produced the route.
        for &(sid, seg) in &dec.segments {
            assert!(
                self.engine.earliest_collision(sid, &seg).is_none(),
                "committing colliding segment {seg} in strip {sid}"
            );
        }
        for &(sid, seg) in &dec.segments {
            self.engine.insert(sid, seg);
        }
        for &c in &dec.crossings {
            self.crossings.insert(c);
        }
        // The segment list lives as long as the route: trim its growth slack.
        dec.segments.shrink_to_fit();
        self.committed.insert(id, Committed { dec, path });
        self.retire_queue.insert((route.end_time(), id));
        self.lap(started, |s| &mut s.convert_ns);
    }

    /// Remove a batch of committed routes from the collision state. All
    /// their segments are retired through one [`StoreEngine::remove_batch`]
    /// call — one removal list per shard — instead of one map traversal
    /// per segment. Ids with no committed route (already retired,
    /// cancelled) are skipped.
    fn retire_batch(&mut self, ids: &[RequestId]) {
        let mut removals: Vec<(ShardKey, Segment)> = Vec::new();
        for id in ids {
            if let Some(c) = self.committed.remove(id) {
                removals.extend(c.dec.segments);
                for key in c.dec.crossings {
                    self.crossings.remove(&key);
                }
            }
        }
        if removals.is_empty() {
            return;
        }
        let removed = self.engine.remove_batch(&removals);
        debug_assert_eq!(removed, removals.len(), "segment missing on retire");
    }
}

impl<S: SegmentStore + Default> ReplayPlanner for SrpPlanner<S> {
    fn adopt(&mut self, id: RequestId, route: &Route) {
        self.commit_route(id, route);
    }
}

/// Read-only view of the committed traffic that answers the fallback A\*'s
/// [`Occupancy`] questions straight from the segment stores and the
/// boundary-crossing set — the same facts a reservation table rebuilt from
/// the committed routes would hold, without building one.
struct StoreView<'a, S: SegmentStore> {
    matrix: &'a WarehouseMatrix,
    graph: &'a StripGraph,
    engine: &'a StoreEngine<S>,
    crossings: &'a CrossingSet,
}

impl<S: SegmentStore + Default> StoreView<'_, S> {
    /// The strip holding `cell` and the cell's offset along it.
    #[inline]
    fn locate(&self, cell: Cell) -> (StripId, i32) {
        let sid = self.graph.strip_of(self.matrix, cell);
        (sid, self.graph.strip(sid).offset_of(cell))
    }
}

impl<S: SegmentStore + Default> Occupancy for StoreView<'_, S> {
    fn vertex_free(&self, cell: Cell, t: Time) -> bool {
        let (sid, off) = self.locate(cell);
        self.engine.shard(sid).earliest_free_point(t, t, off) == Some(t)
    }

    fn move_free(&self, from: Cell, to: Cell, t: Time) -> bool {
        if !self.vertex_free(to, t + 1) {
            return false;
        }
        let (sid, from_off) = self.locate(from);
        let (to_sid, to_off) = self.locate(to);
        if sid == to_sid {
            // A same-strip swap is a crossing of opposite unit slopes. The
            // one-step probe's endpoints are free (`(from, t)` by the
            // caller's contract, `(to, t + 1)` just checked), so any
            // collision it reports is the swap.
            let step = Segment::travel(t, from_off, to_off);
            self.engine.shard(sid).earliest_collision(&step).is_none()
        } else {
            !self.crossings.contains(&(to, from, t))
        }
    }
}

/// The transit pair of `edge` whose target-strip cell is exactly `target`
/// (used for rack destinations), or `None` when this edge cannot deliver
/// the robot adjacent to `target`.
fn transit_to_cell(
    graph: &StripGraph,
    u: StripId,
    edge: &StripEdge,
    target: Cell,
) -> Option<(Cell, Cell)> {
    match edge.geom {
        EdgeGeom::Perpendicular { u_cell, v_cell } | EdgeGeom::Collinear { u_cell, v_cell } => {
            (v_cell == target).then_some((u_cell, v_cell))
        }
        EdgeGeom::Lateral { lo, hi } => {
            let su = graph.strip(u);
            let sv = graph.strip(edge.to);
            debug_assert!(sv.contains(target));
            let coord = match sv.dir {
                crate::strip_graph::StripDir::Latitudinal => target.col,
                crate::strip_graph::StripDir::Longitudinal => target.row,
            };
            if !(lo..=hi).contains(&coord) {
                return None;
            }
            let u_cell = match su.dir {
                crate::strip_graph::StripDir::Latitudinal => Cell::new(su.alpha.row, coord),
                crate::strip_graph::StripDir::Longitudinal => Cell::new(coord, su.alpha.col),
            };
            Some((u_cell, target))
        }
    }
}

impl<S: SegmentStore + Default> Planner for SrpPlanner<S> {
    fn name(&self) -> &'static str {
        "SRP"
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        // inter_ns is the strip-level search time *excluding* the intra and
        // conversion buckets, so the three Fig. 22(a) components add up to
        // the whole.
        let inter_t = self.now();
        let sub_before = self.stats.intra_ns + self.stats.convert_ns;
        let strip_level = self.plan_strip_level(req);
        if let Some(started) = inter_t {
            let sub = (self.stats.intra_ns + self.stats.convert_ns) - sub_before;
            self.stats.inter_ns += (started.elapsed().as_nanos() as u64).saturating_sub(sub);
        }
        if let Some((_, PlannerPath::Retry { .. })) = strip_level {
            self.stats.retries += 1;
        }
        let planned = match strip_level {
            None if self.config.use_fallback && !self.cancelled() => {
                let r = self.plan_fallback(req);
                if r.is_some() {
                    self.stats.fallbacks += 1;
                }
                r.map(|route| (route, PlannerPath::Fallback))
            }
            planned => planned,
        };
        match planned {
            Some((route, path)) => {
                debug_assert!(
                    route.validate(&self.matrix).is_ok(),
                    "invalid route planned"
                );
                self.commit(req.id, &route, path);
                self.stats.planned += 1;
                PlanOutcome::Planned(route)
            }
            None => {
                self.stats.infeasible += 1;
                PlanOutcome::Infeasible
            }
        }
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        // Retire routes that finished strictly before `now`; their segments
        // can no longer collide with requests emerging at `t ≥ now`. The
        // whole batch of expirations goes through one engine removal pass.
        let mut expired: Vec<RequestId> = Vec::new();
        while let Some(&(end, id)) = self.retire_queue.iter().next() {
            if end >= now {
                break;
            }
            self.retire_queue.remove(&(end, id));
            expired.push(id);
        }
        self.retire_batch(&expired);
        Vec::new()
    }

    fn provenance(&self, id: RequestId) -> Option<String> {
        self.route_provenance(id).map(|p| p.to_string())
    }

    fn arm_cancel(&mut self, token: Option<carp_warehouse::planner::CancelToken>) {
        self.config.cancel = token;
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        if self.committed.contains_key(&id) {
            self.retire_queue.retain(|&(_, rid)| rid != id);
            self.retire_batch(&[id]);
            true
        } else {
            false
        }
    }

    fn engine_metrics(&self) -> Option<EngineMetrics> {
        let stats = self.engine.stats();
        Some(EngineMetrics {
            probe_queries: stats.probe_queries,
            retire_batch_size: stats.mean_retire_batch(),
            soft_bookings: 0,
            window_debt: 0,
        })
    }

    fn memory_bytes(&self) -> usize {
        let (stores, committed, crossings, scratch, graph) = self.memory_breakdown();
        stores + committed + crossings + scratch + graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_spacetime::ReservationTable;
    use carp_warehouse::layout::LayoutConfig;
    use carp_warehouse::request::QueryKind;
    use carp_warehouse::tasks::generate_requests;

    /// The packed heap key orders exactly as the tuple
    /// `(f, Reverse(g), strip, edge)` it replaces, field extremes included,
    /// and hands back the fields it packed.
    #[test]
    fn search_key_packs_in_tuple_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let field = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => 0,
            1 => u32::MAX,
            _ => rng.gen_range(0..6u32),
        };
        let keys: Vec<(Time, Time, StripId, u32)> = (0..400)
            .map(|_| {
                (
                    field(&mut rng),
                    field(&mut rng),
                    field(&mut rng),
                    field(&mut rng),
                )
            })
            .collect();
        for a in &keys {
            let packed = SearchKey::new(a.0, a.1, a.2, a.3);
            assert_eq!(packed.entry(), (a.1, a.2, a.3));
            for b in &keys {
                let tuple = (a.0, Reverse(a.1), a.2, a.3).cmp(&(b.0, Reverse(b.1), b.2, b.3));
                assert_eq!(packed.cmp(&SearchKey::new(b.0, b.1, b.2, b.3)), tuple);
            }
        }
    }

    /// Under `shadow-store` the oracle reads the slope index and the naive
    /// store side by side, each query asserting they agree.
    #[cfg(feature = "shadow-store")]
    type TestStore = carp_geometry::ShadowStore;
    #[cfg(not(feature = "shadow-store"))]
    type TestStore = SlopeIndexStore;

    /// The reservation table the fallback used to rebuild from the
    /// committed routes on every call — the reference [`StoreView`] must
    /// reproduce answer for answer.
    fn rebuilt_table<S: SegmentStore + Default>(p: &SrpPlanner<S>) -> ReservationTable {
        let mut rt = ReservationTable::new();
        for (id, c) in &p.committed {
            for &(sid, seg) in &c.dec.segments {
                let strip = p.graph.strip(sid);
                let mut prev: Option<(Time, Cell)> = None;
                for (t, off) in seg.occupancy() {
                    let cell = strip.cell_at(off);
                    rt.reserve(&Route::stationary(t, cell), *id);
                    if let Some((pt, pc)) = prev {
                        if pc != cell {
                            rt.reserve(&Route::new(pt, vec![pc, cell]), *id);
                        }
                    }
                    prev = Some((t, cell));
                }
            }
            for &(from, to, t) in &c.dec.crossings {
                rt.reserve(&Route::new(t, vec![from, to]), *id);
            }
        }
        rt
    }

    /// Check the store-backed oracle against the rebuilt table over
    /// `[req.t, req.t + window)`: every cell's vertex answer, every move out
    /// of a free `(cell, t)`, and the fallback A\* run on both. Returns the
    /// number of occupied `(cell, t)` seen, so callers can tell the window
    /// was not empty.
    fn assert_oracles_agree<S: SegmentStore + Default>(
        p: &SrpPlanner<S>,
        req: &Request,
        window: Time,
    ) -> usize {
        let rt = rebuilt_table(p);
        let view = p.store_view();
        let m = &p.matrix;
        let mut occupied = 0;
        for t in req.t..req.t + window {
            for cell in m.cells() {
                let free = rt.vertex_free(cell, t);
                assert_eq!(view.vertex_free(cell, t), free, "vertex {cell:?} at t={t}");
                if !free {
                    occupied += 1;
                    continue;
                }
                for n in m.neighbors(cell) {
                    assert_eq!(
                        view.move_free(cell, n, t),
                        rt.move_free(cell, n, t),
                        "move {cell:?} -> {n:?} at t={t}"
                    );
                }
            }
        }
        let mut on_table = SpaceTimeAStar::new(p.config.fallback);
        let mut on_stores = SpaceTimeAStar::new(p.config.fallback);
        let a = on_table.plan(m, &rt, None, req.origin, req.destination, req.t);
        let b = on_stores.plan(m, &view, None, req.origin, req.destination, req.t);
        assert_eq!(a, b, "fallback routes differ for {req:?}");
        assert_eq!(on_table.stats.expansions, on_stores.stats.expansions);
        assert_eq!(on_table.stats.peak_bytes, on_stores.stats.peak_bytes);
        occupied
    }

    #[test]
    fn store_view_matches_rebuilt_reservation_table() {
        // A head-on meeting in a one-aisle corridor: forward-only strip
        // search cannot resolve it, so without retries it falls back.
        let corridor = WarehouseMatrix::from_ascii(
            "######\n\
             ......\n\
             ###.##",
        );
        let config = SrpConfig {
            retry_bumps: [0, 0, 0],
            ..SrpConfig::default()
        };
        let mut srp = SrpPlanner::<TestStore>::with_store(corridor, config.clone());
        let east = Request::new(0, 0, Cell::new(1, 0), Cell::new(1, 5), QueryKind::Pickup);
        let west = Request::new(1, 0, Cell::new(1, 5), Cell::new(1, 0), QueryKind::Pickup);
        assert!(srp.plan(&east).route().is_some());
        assert!(srp.plan_strip_level(&west).is_none(), "dead end");
        assert!(assert_oracles_agree(&srp, &west, 200) > 0);
        assert!(srp.plan(&west).route().is_some());
        assert_eq!(srp.stats.fallbacks, 1);

        // A congested small-warehouse stream: check the oracles in the
        // first states where the strip level gives up — exactly the states
        // the fallback searches.
        let layout = LayoutConfig::small().generate();
        let mut srp = SrpPlanner::<TestStore>::with_store(layout.matrix.clone(), config);
        let mut checked = 0;
        for req in &generate_requests(&layout, 150, 8.0, 11) {
            srp.advance(req.t);
            if checked < 2 && srp.plan_strip_level(req).is_none() {
                assert!(assert_oracles_agree(&srp, req, 200) > 0);
                checked += 1;
            }
            srp.plan(req);
        }
        assert_eq!(checked, 2, "the stream must reach the fallback");
    }

    /// Three bands of alternating rack and aisle columns between four
    /// full-width aisles: 37 aisle strips, 27 rack strips.
    fn comb_matrix() -> WarehouseMatrix {
        let band = ".#.#.#.#.#.#.#.#.#..\n";
        let aisle = "....................\n";
        let text = [aisle, band, band].repeat(3).concat() + aisle;
        WarehouseMatrix::from_ascii(text.trim_end())
    }

    /// A planner on `comb_matrix()` with a robot parked on each of `cells`
    /// for the first 20000 steps.
    fn comb_with_parked(cells: &[Cell], config: SrpConfig) -> SrpPlanner {
        let mut srp = SrpPlanner::new(comb_matrix(), config);
        assert_eq!(srp.graph().num_vertices(), 64);
        for (id, &c) in cells.iter().enumerate() {
            srp.commit_route(100 + id as RequestId, &Route::new(0, vec![c; 20_001]));
        }
        srp
    }

    /// Park a robot on each of `cells`, then run the direct strip search
    /// from `o` to `d`, with the first dead-region check after
    /// `first_check` settles. Returns the strips the (failing) search
    /// settled; a search that drains its heap settles every aisle strip it
    /// can reach, at most 37.
    fn settled_by_failing_search_from(
        cells: &[Cell],
        o: Cell,
        d: Cell,
        first_check: usize,
    ) -> usize {
        let mut srp = comb_with_parked(cells, SrpConfig::default());
        srp.cut_first_check = first_check;
        let req = Request::new(0, 0, o, d, QueryKind::Pickup);
        let before = srp.stats.strips_settled;
        assert!(
            srp.plan_strips(&req).is_none(),
            "the direct search must fail"
        );
        srp.stats.strips_settled - before
    }

    /// [`settled_by_failing_search_from`] the top aisle.
    fn settled_by_failing_search_with(cells: &[Cell], d: Cell, first_check: usize) -> usize {
        settled_by_failing_search_from(cells, Cell::new(0, 9), d, first_check)
    }

    fn settled_by_failing_search(cells: &[Cell], d: Cell) -> usize {
        settled_by_failing_search_with(cells, d, CUT_FIRST_CHECK)
    }

    #[test]
    fn failed_search_to_a_blocked_aisle_stops_at_the_destination_strip() {
        // The destination cell is parked on: settling its strip is the end.
        let settled = settled_by_failing_search(&[Cell::new(1, 2)], Cell::new(1, 2));
        assert!(settled <= 8, "settled {settled} of 37 aisle strips");
    }

    #[test]
    fn failed_search_to_a_walled_in_rack_stops_once_its_feeders_settle() {
        // Every aisle cell next to the rack is parked on; once the three
        // strips holding them have settled, the goal cannot be reached.
        let parked = [Cell::new(0, 1), Cell::new(1, 0), Cell::new(1, 2)];
        let settled = settled_by_failing_search(&parked, Cell::new(1, 1));
        assert!(settled <= 8, "settled {settled} of 37 aisle strips");
    }

    #[test]
    fn dead_region_cut_stops_a_search_to_an_aisle_that_cannot_be_entered() {
        // Both cells of the destination's two-cell strip are parked on, so
        // every entry fails, however long the robot waits: `sd` is never
        // labeled. Without the cut the search settles every other aisle
        // strip; with a check after 1, 2, 4, … settles it ends once the
        // strip's entries from the two full-width aisles are consumed.
        let parked = [Cell::new(1, 4), Cell::new(2, 4)];
        let drained = settled_by_failing_search_with(&parked, Cell::new(1, 4), usize::MAX);
        assert_eq!(drained, 36);
        let settled = settled_by_failing_search_with(&parked, Cell::new(1, 4), 1);
        assert!(settled <= 8, "settled {settled} of {drained}");
    }

    #[test]
    fn dead_region_cut_stops_a_search_to_a_rack_whose_feeders_cannot_be_entered() {
        // The rack cell (1, 17) has three feeders: the top aisle (the
        // origin's strip; its goal edge fails on the parked (0, 17)) and the
        // two-cell strips beside it, whose cells are all parked on. Those
        // two are never labeled, so the goal-finality cut, which waits for
        // every feeder to settle, never fires.
        let parked = [
            Cell::new(0, 17),
            Cell::new(1, 16),
            Cell::new(2, 16),
            Cell::new(1, 18),
            Cell::new(2, 18),
        ];
        let d = Cell::new(1, 17);
        let drained = settled_by_failing_search_with(&parked, d, usize::MAX);
        assert!(drained >= 30, "drained {drained}");
        let settled = settled_by_failing_search_with(&parked, d, 1);
        assert!(settled * 2 <= drained, "settled {settled} of {drained}");
    }

    #[test]
    fn dead_region_bookkeeping_consumes_edges_refused_at_the_origin() {
        // From the rack cell (2, 5) a robot can only leave downwards or
        // sideways: the origin strip's edge into the top aisle leaves from
        // (1, 5), so `resolve_edge` refuses it when the origin settles, and
        // the refusal consumes it: it can never label the top aisle.
        let mut srp = comb_with_parked(&[], SrpConfig::default());
        let (o, d) = (Cell::new(2, 5), Cell::new(5, 4));
        assert!(srp
            .plan_strips(&Request::new(0, 0, o, d, QueryKind::Pickup))
            .is_some());
        let (m, g) = (&srp.matrix, &srp.graph);
        let su = g.strip_of(m, o);
        let top = g.strip_of(m, Cell::new(0, 5));
        let k = g.edges(su).iter().position(|e| e.to == top).expect("edge");
        let slot = g.slot(su, k as u32);
        assert_eq!(srp.scratch.consumed[slot], srp.scratch.gen);
    }

    #[test]
    fn dead_region_check_keeps_edges_waiting_in_a_lane_cursor_live() {
        // Plain Dijkstra from the east end of the top aisle to the west
        // end of the first band: when the first check runs, right after the
        // origin strip settles, the top aisle's edge into the destination
        // strip still waits in its lane cursor — the lane's head is the edge
        // at the origin's own column. That pending edge is the first
        // in-edge the walk meets, and it keeps the search alive.
        let config = SrpConfig {
            use_heuristic: false,
            ..SrpConfig::default()
        };
        let req = Request::new(0, 0, Cell::new(0, 19), Cell::new(2, 0), QueryKind::Pickup);
        let mut uncut = comb_with_parked(&[], config.clone());
        uncut.cut_first_check = usize::MAX;
        let want = uncut.plan_strips(&req).expect("route");
        for first_check in [1, 2, 3] {
            let mut srp = comb_with_parked(&[], config.clone());
            srp.cut_first_check = first_check;
            assert_eq!(srp.plan_strips(&req).as_ref(), Some(&want));
            assert_eq!(srp.stats.strips_settled, uncut.stats.strips_settled);
            assert_eq!(srp.stats.intra_calls, uncut.stats.intra_calls);
        }
    }
}
