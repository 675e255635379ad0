//! Per-strip segment-store engine.
//!
//! [`StoreEngine`] owns the segment stores of the SRP planner, one per
//! strip that currently carries traffic, in a dense table indexed by strip
//! id — no hashing on the query path. Shards are allocated on first insert
//! and dropped once their last segment leaves, so an idle strip costs one
//! empty slot; queries against it are answered by one shared empty store.
//! Route retirement is batched: [`StoreEngine::remove_batch`] groups the
//! drained retire queue into per-shard removal lists and hands each list to
//! [`SegmentStore::remove_batch`] in one call, instead of one shard lookup
//! per segment.

use crate::intersect::SegCollision;
use crate::segment::Segment;
use crate::store::{SegmentId, SegmentStore};
use carp_warehouse::memory;

/// Key of one shard. This is the planner's `StripId`; the engine lives one
/// layer below the strip graph and only needs a dense index.
pub type ShardKey = u32;

/// Cumulative operation counters of an engine (monotone; never reset).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// `earliest_collision` probes.
    pub probe_queries: u64,
    /// `remove_batch` calls.
    pub retire_batches: u64,
    /// Segments removed across all `remove_batch` calls.
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

    /// Insert a segment into `key`'s shard (allocated on first use).
    /// Returns the removal handle.
    pub fn insert(&mut self, key: ShardKey, seg: Segment) -> SegmentId {
        let slot = key as usize;
        if slot >= self.shards.len() {
            self.shards.resize_with(slot + 1, || None);
        }
        self.shards[slot].get_or_insert_default().insert(seg)
    }

    /// `key`'s live shard, if any.
    fn live_shard(&self, key: ShardKey) -> Option<&S> {
        self.shards.get(key as usize)?.as_deref()
    }

    /// `key`'s live shard, if any, for mutation.
    fn live_shard_mut(&mut self, key: ShardKey) -> Option<&mut S> {
        self.shards.get_mut(key as usize)?.as_deref_mut()
    }

    /// Drop `key`'s shard once it has no segments left.
    fn drop_if_empty(&mut self, key: ShardKey) {
        let slot = &mut self.shards[key as usize];
        if slot.as_ref().is_some_and(|s| s.is_empty()) {
            *slot = None;
        }
    }

    /// Remove one segment. Empty shards are dropped. Prefer
    /// [`StoreEngine::remove_batch`] for retirement.
    pub fn remove(&mut self, key: ShardKey, id: SegmentId, seg: &Segment) -> bool {
        let Some(store) = self.live_shard_mut(key) else {
            return false;
        };
        let removed = store.remove(id, seg);
        if removed {
            self.drop_if_empty(key);
        }
        removed
    }

    /// Apply a whole retirement batch: removals are grouped per shard and
    /// each shard's list lands in one [`SegmentStore::remove_batch`] call.
    /// Returns how many segments were actually removed.
    pub fn remove_batch(&mut self, removals: &[(ShardKey, SegmentId, Segment)]) -> usize {
        if removals.is_empty() {
            return 0;
        }
        // A stable sort groups the batch by shard, keeping each shard's
        // removals in batch order.
        let mut sorted = removals.to_vec();
        sorted.sort_by_key(|&(key, _, _)| key);
        let mut list: Vec<(SegmentId, Segment)> = Vec::new();
        let mut removed = 0usize;
        for group in sorted.chunk_by(|a, b| a.0 == b.0) {
            let key = group[0].0;
            let Some(store) = self.live_shard_mut(key) else {
                continue;
            };
            list.clear();
            list.extend(group.iter().map(|&(_, id, seg)| (id, seg)));
            removed += store.remove_batch(&list);
            self.drop_if_empty(key);
        }
        self.stats.retire_batches += 1;
        self.stats.retired_segments += removed as u64;
        removed
    }

    /// Earliest collision of one candidate segment against `key`'s shard.
    pub fn earliest_collision(&mut self, key: ShardKey, seg: &Segment) -> Option<SegCollision> {
        self.stats.probe_queries += 1;
        self.live_shard(key)?.earliest_collision(seg)
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
        let mut removals = Vec::new();
        for key in 0..32u32 {
            let s = seg(0, key as i32);
            removals.push((key, engine.insert(key, s), s));
        }
        assert_eq!(engine.total_segments(), 32);
        assert_eq!(engine.active_shards(), 32);
        for key in 0..32u32 {
            assert!(engine
                .earliest_collision(key, &seg(1, key as i32))
                .is_some());
            assert!(engine
                .earliest_collision(key, &seg(10, key as i32))
                .is_none());
        }
        assert_eq!(engine.remove_batch(&removals), 32);
        assert_eq!(engine.total_segments(), 0);
        assert_eq!(engine.active_shards(), 0, "empty shards must be dropped");
    }

    #[test]
    fn single_remove_drops_empty_shards_and_refuses_unknown() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let s = seg(0, 3);
        let id = engine.insert(7, s);
        assert!(!engine.remove(9, id, &s), "wrong shard refused");
        assert!(engine.remove(7, id, &s));
        assert!(!engine.remove(7, id, &s), "double remove refused");
        assert_eq!(engine.active_shards(), 0);
    }

    #[test]
    fn untouched_shards_read_as_empty() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        engine.insert(0, seg(0, 0));
        assert_eq!(engine.shard_len(0), 1);
        assert_eq!(engine.shard_len(99), 0);
        assert!(engine.snapshot(99).is_empty());
        assert!(engine.earliest_collision(99, &seg(0, 0)).is_none());
    }

    #[test]
    fn stats_track_probes_and_retire_batches() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        let mut removals = Vec::new();
        for key in 0..8u32 {
            let s = seg(0, 0);
            removals.push((key, engine.insert(key, s), s));
        }
        for key in 0..8u32 {
            assert!(engine.earliest_collision(key, &seg(1, 0)).is_some());
        }
        engine.remove_batch(&removals);
        let stats = engine.stats();
        assert_eq!(stats.probe_queries, 8);
        assert_eq!(stats.retire_batches, 1);
        assert_eq!(stats.retired_segments, 8);
        assert!((stats.mean_retire_batch() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn clone_preserves_contents_and_counters() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        engine.insert(1, seg(0, 0));
        engine.insert(2, seg(5, 1));
        let _ = engine.earliest_collision(1, &seg(1, 0));
        let clone = engine.clone();
        assert_eq!(clone.total_segments(), 2);
        assert_eq!(clone.snapshot(1), engine.snapshot(1));
        assert_eq!(clone.stats(), engine.stats());
    }

    #[test]
    fn memory_shrinks_after_batch_retirement() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let empty = engine.memory_bytes();
        let mut removals = Vec::new();
        for key in 0..16u32 {
            let s = seg(key, key as i32);
            removals.push((key, engine.insert(key, s), s));
        }
        let peak = engine.memory_bytes();
        assert!(peak > empty);
        engine.remove_batch(&removals);
        // The shard table keeps its slots, so the floor is not exactly the
        // empty baseline — but dropping the stores must reclaim the bulk.
        assert!(engine.memory_bytes() < peak);
    }
}
