//! Per-strip segment-store engine.
//!
//! [`StoreEngine`] owns the segment stores of the SRP planner, one per
//! strip that currently carries traffic, in a dense table indexed by strip
//! id — no hashing on the query path. Shards are allocated on first insert
//! and dropped once their last segment leaves, so an idle strip costs one
//! empty slot; queries against it are answered by one shared empty store.
//! A route reaches the engine as its time-ordered `(shard, segment)` list,
//! and the engine works on it one *run* at a time: a maximal stretch of
//! one shard's segments. [`StoreEngine::insert_route`] looks each run's
//! shard up once, validates the run against it and inserts it;
//! [`StoreEngine::remove_routes`] retires a batch of routes, handing each
//! run to [`SegmentStore::remove_batch`] in one call. A stored segment is
//! its own key, so removal names the segment and the engine hands out no
//! handles.

use crate::segment::Segment;
use crate::store::SegmentStore;
use carp_warehouse::memory;

/// Key of one shard. This is the planner's `StripId`; the engine lives one
/// layer below the strip graph and only needs a dense index.
pub type ShardKey = u32;

/// Cumulative operation counters of an engine (monotone; never reset).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Commit-validation probes: `earliest_collision` calls made by
    /// `insert_route`.
    pub probe_queries: u64,
    /// `remove_routes` calls that listed at least one segment.
    pub retire_batches: u64,
    /// Segments removed across all `remove_routes` calls.
    pub retired_segments: u64,
}

impl EngineStats {
    /// Mean segments retired per removal batch.
    pub fn mean_retire_batch(&self) -> f64 {
        if self.retire_batches == 0 {
            0.0
        } else {
            self.retired_segments as f64 / self.retire_batches as f64
        }
    }
}

/// The per-strip segment-store engine (see module docs).
#[derive(Debug, Clone, Default)]
pub struct StoreEngine<S: SegmentStore> {
    /// Shard table indexed by key, grown to the largest key inserted;
    /// `None` for a shard with no segments. Shards are boxed: most strips
    /// carry no traffic at any given moment, and inline store shells in
    /// the slots would dominate the engine's memory footprint.
    shards: Vec<Option<Box<S>>>,
    /// Shared empty store handed out for shards with no segments.
    empty: S,
    stats: EngineStats,
}

impl<S: SegmentStore + Default> StoreEngine<S> {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// `key`'s live shard, if any.
    fn live_shard(&self, key: ShardKey) -> Option<&S> {
        self.shards.get(key as usize)?.as_deref()
    }

    /// Validate and insert one route, given as its time-ordered
    /// `(shard, segment)` list. Each run of one shard's segments is checked
    /// against that shard (one `probe_queries` per segment probed) and then
    /// inserted, with one shard lookup per run. On the first colliding
    /// segment the run is left uninserted and that segment is returned;
    /// runs before it stay inserted.
    ///
    /// Checking run by run equals checking the whole route before inserting
    /// any of it whenever two runs of one shard never share an instant,
    /// which holds for a strip route: leaving a strip and coming back takes
    /// at least one step in another.
    pub fn insert_route(
        &mut self,
        route: &[(ShardKey, Segment)],
    ) -> Result<(), (ShardKey, Segment)> {
        for run in route.chunk_by(|a, b| a.0 == b.0) {
            let key = run[0].0;
            let slot = key as usize;
            if slot >= self.shards.len() {
                self.shards.resize_with(slot + 1, || None);
            }
            let store = self.shards[slot].get_or_insert_default();
            let probes = &mut self.stats.probe_queries;
            if let Some(&(_, seg)) = run.iter().find(|(_, seg)| {
                *probes += 1;
                store.earliest_collision(seg).is_some()
            }) {
                return Err((key, seg));
            }
            for &(_, seg) in run {
                store.insert(seg);
            }
        }
        Ok(())
    }

    /// Retire a batch of routes, each given as its time-ordered
    /// `(shard, segment)` list: each run of one shard's segments goes to
    /// that shard's [`SegmentStore::remove_batch`], which drops one copy
    /// per listed segment, with one shard lookup per run. Emptied shards
    /// are dropped. A call that lists any segment counts as one retirement
    /// batch. Returns how many segments were actually removed.
    pub fn remove_routes<R>(&mut self, routes: impl IntoIterator<Item = R>) -> usize
    where
        R: AsRef<[(ShardKey, Segment)]>,
    {
        let (mut listed, mut removed) = (false, 0usize);
        for route in routes {
            for run in route.as_ref().chunk_by(|a, b| a.0 == b.0) {
                listed = true;
                let Some(slot) = self.shards.get_mut(run[0].0 as usize) else {
                    continue;
                };
                let Some(store) = slot.as_deref_mut() else {
                    continue;
                };
                removed += store.remove_batch(run.iter().map(|(_, seg)| seg));
                if store.is_empty() {
                    *slot = None;
                }
            }
        }
        if listed {
            self.stats.retire_batches += 1;
            self.stats.retired_segments += removed as u64;
        }
        removed
    }

    /// `key`'s store (the shared empty stand-in when the shard was never
    /// touched). This is how the intra-strip planner reads a store for the
    /// duration of one leg.
    pub fn shard(&self, key: ShardKey) -> &S {
        self.live_shard(key).unwrap_or(&self.empty)
    }

    /// Number of segments in `key`'s shard.
    pub fn shard_len(&self, key: ShardKey) -> usize {
        self.shard(key).len()
    }

    /// Snapshot of `key`'s shard, for tests and debugging.
    pub fn snapshot(&self, key: ShardKey) -> Vec<Segment> {
        self.shard(key).snapshot()
    }

    /// Total segments across all shards.
    pub fn total_segments(&self) -> usize {
        self.shards.iter().flatten().map(|s| s.len()).sum()
    }

    /// Number of live (non-empty) shards.
    pub fn active_shards(&self) -> usize {
        self.shards.iter().flatten().count()
    }

    /// Estimated heap bytes of the engine (MC metric): shard stores plus
    /// the shard table.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|s| s.memory_bytes() + core::mem::size_of::<S>())
            .sum::<usize>()
            + memory::vec_bytes(&self.shards)
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SlopeIndexStore;
    use crate::store::NaiveStore;

    fn seg(t0: u32, s: i32) -> Segment {
        Segment::wait(t0, t0 + 2, s)
    }

    #[test]
    fn insert_probe_remove_roundtrip() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let route: Vec<(ShardKey, Segment)> =
            (0..32u32).map(|key| (key, seg(0, key as i32))).collect();
        engine.insert_route(&route).expect("no collision");
        assert_eq!(engine.total_segments(), 32);
        assert_eq!(engine.active_shards(), 32);
        for key in 0..32u32 {
            let shard = engine.shard(key);
            assert!(shard.earliest_collision(&seg(1, key as i32)).is_some());
            assert!(shard.earliest_collision(&seg(10, key as i32)).is_none());
        }
        assert_eq!(engine.remove_routes([&route]), 32);
        assert_eq!(engine.total_segments(), 0);
        assert_eq!(engine.active_shards(), 0, "empty shards must be dropped");
    }

    #[test]
    fn remove_routes_drops_empty_shards_and_refuses_unknown() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let s = seg(0, 3);
        engine.insert_route(&[(7, s)]).expect("empty shard");
        assert_eq!(engine.remove_routes([[(9, s)]]), 0, "wrong shard refused");
        assert_eq!(engine.active_shards(), 1);
        assert_eq!(
            engine.remove_routes([[(7, s), (7, s)]]),
            1,
            "double remove refused"
        );
        assert_eq!(engine.active_shards(), 0);
        assert_eq!(engine.remove_routes([[(7, s)]]), 0, "dropped shard refused");
        // The same double removal split across two routes of one batch.
        engine.insert_route(&[(7, s)]).expect("empty shard");
        assert_eq!(engine.remove_routes([[(7, s)], [(7, s)]]), 1);
        assert_eq!(engine.active_shards(), 0);
    }

    #[test]
    fn remove_routes_takes_each_run_of_a_route_that_revisits_a_shard() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        let route = [(1, seg(0, 0)), (2, seg(3, 0)), (1, seg(6, 0))];
        engine.insert_route(&route).expect("no collision");
        assert_eq!(engine.shard_len(1), 2);
        engine
            .insert_route(&[(1, seg(20, 0))])
            .expect("no collision");
        assert_eq!(engine.remove_routes([&route[..]]), 3);
        assert_eq!(engine.snapshot(1), vec![seg(20, 0)]);
        assert_eq!(engine.active_shards(), 1, "shard 2 dropped, shard 1 kept");
    }

    #[test]
    fn insert_route_validates_each_run_before_inserting_it() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        engine
            .insert_route(&[(4, seg(10, 2))])
            .expect("empty shard");
        let route = [
            (3, seg(0, 0)),
            (4, seg(9, 5)),
            (4, seg(11, 2)),
            (4, seg(20, 2)),
        ];
        assert_eq!(engine.insert_route(&route), Err((4, seg(11, 2))));
        assert_eq!(
            engine.stats().probe_queries,
            4,
            "one probe per checked segment"
        );
        assert_eq!(engine.shard_len(3), 1, "runs before the collision stay");
        assert_eq!(engine.shard_len(4), 1, "the colliding run is not inserted");
        engine.remove_routes([&route[..1]]);
        assert_eq!(engine.insert_route(&route[..2]), Ok(()));
        assert_eq!(engine.snapshot(4), vec![seg(9, 5), seg(10, 2)]);
    }

    #[test]
    fn untouched_shards_read_as_empty() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        engine.insert_route(&[(0, seg(0, 0))]).expect("empty shard");
        assert_eq!(engine.shard_len(0), 1);
        assert_eq!(engine.shard_len(99), 0);
        assert!(engine.snapshot(99).is_empty());
        assert!(engine.shard(99).earliest_collision(&seg(0, 0)).is_none());
    }

    #[test]
    fn stats_track_probes_and_retire_batches() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        let routes: Vec<[(ShardKey, Segment); 1]> =
            (0..8u32).map(|key| [(key, seg(0, 0))]).collect();
        for route in &routes {
            engine.insert_route(route).expect("empty shard");
        }
        engine.remove_routes(&routes);
        engine.remove_routes(core::iter::empty::<&[(ShardKey, Segment)]>());
        let stats = engine.stats();
        assert_eq!(stats.probe_queries, 8);
        assert_eq!(stats.retire_batches, 1, "an empty call is no batch");
        assert_eq!(stats.retired_segments, 8);
        assert!((stats.mean_retire_batch() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn clone_preserves_contents_and_counters() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        engine
            .insert_route(&[(1, seg(0, 0)), (2, seg(5, 1))])
            .expect("no collision");
        let clone = engine.clone();
        assert_eq!(clone.total_segments(), 2);
        assert_eq!(clone.snapshot(1), engine.snapshot(1));
        assert_eq!(clone.stats(), engine.stats());
    }

    #[test]
    fn memory_shrinks_after_batch_retirement() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let empty = engine.memory_bytes();
        let route: Vec<(ShardKey, Segment)> =
            (0..16u32).map(|key| (key, seg(key, key as i32))).collect();
        engine.insert_route(&route).expect("no collision");
        let peak = engine.memory_bytes();
        assert!(peak > empty);
        engine.remove_routes([&route]);
        // The shard table keeps its slots, so the floor is not exactly the
        // empty baseline — but dropping the stores must reclaim the bulk.
        assert!(engine.memory_bytes() < peak);
    }
}
