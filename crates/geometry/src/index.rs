//! The slope-based segment index of §V-D (Algorithm 3).
//!
//! Segments are partitioned by slope into three classes. Within a class,
//! segments are grouped by the rotated coordinate of Eq. (4) — implemented
//! as the exact integer line intercept, see [`Segment::index_key`] — so two
//! *parallel* segments can only collide when they share a key (they lie on
//! the same space-time line) and their time spans overlap.
//!
//! A collision query for a segment of slope `k` therefore:
//!
//! 1. looks up only its own key bucket within class `k` (the `M_k.get(s\[0\])`
//!    of Algorithm 3) — `O(log m + m)` with `m` the bucket size, which the
//!    rotation keeps tiny because the projected time component makes keys
//!    almost unique (§V-D remarks);
//! 2. binary searches the two *unparallel* classes by time overlap and
//!    judges the survivors one by one — the `S_1^*, S_2^*` step.
//!
//! Compared to [`NaiveStore`](crate::store::NaiveStore)'s `O(2 log n + n)`,
//! this reduces the same-slope work from linear to near-constant; Fig. 22(b)
//! measures the effect end-to-end.

use crate::intersect::{earliest_collision, CollisionKind, SegCollision};
use crate::segment::Segment;
use crate::store::{SegmentId, SegmentStore};
use carp_warehouse::memory;
use carp_warehouse::types::Time;
use std::collections::{BTreeMap, HashMap};

/// One slope class: the global time-ordered set (for unparallel queries)
/// plus the key → bucket map (for parallel queries).
///
/// Buckets hold only `(t0, t1)` spans: two segments with the same key lie
/// on the same space-time line, so they collide **iff** their time spans
/// overlap, with the vertex conflict starting at the first shared instant.
/// The rotation keeps buckets tiny (§V-D remarks), so a flat vector beats
/// any tree.
#[derive(Debug, Default, Clone)]
struct SlopeClass {
    /// Ordered set over start time — the `S_k` of Algorithm 3.
    by_start: BTreeMap<(Time, SegmentId), Segment>,
    /// Rotated-coordinate map — the `M_k` of Algorithm 3.
    by_key: HashMap<i64, Vec<(Time, Time)>>,
    /// High-water mark of segment durations, bounding the overlap window.
    max_duration: Time,
}

impl SlopeClass {
    fn insert(&mut self, id: SegmentId, seg: Segment) {
        self.max_duration = self.max_duration.max(seg.duration());
        self.by_start.insert((seg.t0, id), seg);
        self.by_key
            .entry(seg.index_key())
            .or_default()
            .push((seg.t0, seg.t1));
    }

    fn remove(&mut self, id: SegmentId, seg: &Segment) -> bool {
        let removed = self.by_start.remove(&(seg.t0, id)).is_some();
        if removed {
            if let Some(bucket) = self.by_key.get_mut(&seg.index_key()) {
                if let Some(pos) = bucket.iter().position(|&s| s == (seg.t0, seg.t1)) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    self.by_key.remove(&seg.index_key());
                }
            }
        }
        removed
    }

    /// Remove a batch within this class. Bucket edits are grouped by key
    /// (one map lookup per distinct key instead of one per segment) and the
    /// duration high-water mark is re-tightened once at the end — the batch
    /// bookkeeping single `remove` cannot afford.
    fn remove_batch(&mut self, removals: &[(SegmentId, Segment)]) -> usize {
        let mut removed: Vec<Segment> = Vec::with_capacity(removals.len());
        for (id, seg) in removals {
            if self.by_start.remove(&(seg.t0, *id)).is_some() {
                removed.push(*seg);
            }
        }
        // Group bucket removals by rotated key.
        removed.sort_unstable_by_key(|s| s.index_key());
        let mut i = 0;
        while i < removed.len() {
            let key = removed[i].index_key();
            let mut j = i;
            if let Some(bucket) = self.by_key.get_mut(&key) {
                while j < removed.len() && removed[j].index_key() == key {
                    let span = (removed[j].t0, removed[j].t1);
                    if let Some(pos) = bucket.iter().position(|&s| s == span) {
                        bucket.swap_remove(pos);
                    }
                    j += 1;
                }
                if bucket.is_empty() {
                    self.by_key.remove(&key);
                }
            } else {
                while j < removed.len() && removed[j].index_key() == key {
                    j += 1;
                }
            }
            i = j;
        }
        if !removed.is_empty() {
            self.max_duration = self
                .by_start
                .values()
                .map(|s| s.duration())
                .max()
                .unwrap_or(0);
        }
        removed.len()
    }

    /// Earliest collision with segments *parallel* to `seg` (same class):
    /// only the same-key bucket can collide; any time overlap there is a
    /// vertex conflict starting at the first shared instant.
    fn parallel_collision(&self, seg: &Segment) -> Option<SegCollision> {
        let bucket = self.by_key.get(&seg.index_key())?;
        let mut best: Option<SegCollision> = None;
        for &(t0, t1) in bucket {
            if t0 <= seg.t1 && t1 >= seg.t0 {
                let hit = SegCollision {
                    time: seg.t0.max(t0),
                    kind: CollisionKind::Vertex,
                };
                best = SegCollision::min_opt(best, Some(hit));
            }
        }
        best
    }

    /// Earliest collision with segments in this class for a query of a
    /// *different* slope, or `best` when none is earlier: binary search by
    /// time overlap, judge one by one. A collision with a segment happens no
    /// earlier than its start, so the scan stops at start times past
    /// `best`.
    fn unparallel_collision(
        &self,
        seg: &Segment,
        mut best: Option<SegCollision>,
    ) -> Option<SegCollision> {
        let lo = seg.t0.saturating_sub(self.max_duration);
        for (_, other) in self.by_start.range((lo, 0)..=(seg.t1, SegmentId::MAX)) {
            if best.is_some_and(|b| other.t0 > b.time) {
                break;
            }
            if other.t1 < seg.t0 {
                continue;
            }
            best = SegCollision::min_opt(best, earliest_collision(seg, other));
        }
        best
    }

    fn memory_bytes(&self) -> usize {
        let buckets: usize = self.by_key.values().map(memory::vec_bytes).sum();
        memory::btreemap_bytes(&self.by_start) + memory::hashmap_bytes(&self.by_key) + buckets
    }
}

/// Slope-indexed segment store (Algorithm 3).
#[derive(Debug, Default, Clone)]
pub struct SlopeIndexStore {
    /// Classes for slopes −1, 0, 1 at indices 0, 1, 2.
    classes: [SlopeClass; 3],
    next_id: SegmentId,
    len: usize,
}

impl SlopeIndexStore {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn class_of(slope: i8) -> usize {
        (slope + 1) as usize
    }
}

impl SegmentStore for SlopeIndexStore {
    fn insert(&mut self, seg: Segment) -> SegmentId {
        debug_assert!(seg.validate(), "invalid segment {seg}");
        let id = self.next_id;
        self.next_id += 1;
        self.classes[Self::class_of(seg.slope())].insert(id, seg);
        self.len += 1;
        id
    }

    fn remove(&mut self, id: SegmentId, seg: &Segment) -> bool {
        let removed = self.classes[Self::class_of(seg.slope())].remove(id, seg);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_batch(&mut self, removals: &[(SegmentId, Segment)]) -> usize {
        // Partition the batch by slope class, then let each class apply its
        // list with grouped bucket edits and one high-water re-tighten.
        let mut by_class: [Vec<(SegmentId, Segment)>; 3] = Default::default();
        for &(id, seg) in removals {
            by_class[Self::class_of(seg.slope())].push((id, seg));
        }
        let mut removed = 0usize;
        for (class, list) in self.classes.iter_mut().zip(by_class) {
            if !list.is_empty() {
                removed += class.remove_batch(&list);
            }
        }
        self.len -= removed;
        removed
    }

    fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision> {
        let own = Self::class_of(seg.slope());
        let mut best = self.classes[own].parallel_collision(seg);
        for (i, class) in self.classes.iter().enumerate() {
            if i != own {
                best = class.unparallel_collision(seg, best);
            }
        }
        best
    }

    /// Single-pass override exploiting the slope partition: the waiters
    /// that can block `(·, s)` all live in the slope-0 bucket keyed by `s`
    /// itself (their [`Segment::index_key`] is the spatial coordinate), so
    /// that class needs one bucket lookup instead of a window scan. The two
    /// moving classes are window-scanned for their single-instant
    /// crossings of coordinate `s`, then one sweep finds the first
    /// uncovered instant.
    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        let mut blocked: Vec<(Time, Time)> = Vec::new();
        if let Some(bucket) = self.classes[Self::class_of(0)].by_key.get(&(s as i64)) {
            for &(b0, b1) in bucket {
                if b1 >= t0 && b0 <= t1 {
                    blocked.push((b0.max(t0), b1.min(t1)));
                }
            }
        }
        for slope in [-1i8, 1] {
            let class = &self.classes[Self::class_of(slope)];
            let lo = t0.saturating_sub(class.max_duration);
            for (_, other) in class.by_start.range((lo, 0)..=(t1, SegmentId::MAX)) {
                if other.t1 < t0 {
                    continue;
                }
                if let Some((b0, b1)) = other.occupancy_span_at(s) {
                    if b1 >= t0 && b0 <= t1 {
                        blocked.push((b0.max(t0), b1.min(t1)));
                    }
                }
            }
        }
        crate::store::earliest_uncovered(&mut blocked, t0, t1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.memory_bytes()).sum::<usize>() + core::mem::size_of::<Self>()
    }

    fn snapshot(&self) -> Vec<Segment> {
        let mut out: Vec<Segment> = self
            .classes
            .iter()
            .flat_map(|c| c.by_start.values().copied())
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::CollisionKind;
    use crate::store::NaiveStore;

    /// The Fig. 9 scenario: a slope-0 query against a mixed population.
    #[test]
    fn fig9_slope0_query() {
        let mut idx = SlopeIndexStore::new();
        // Leftmost slope-1 segment of Fig. 9: ⟨0,8⟩ → ⟨5,13⟩.
        idx.insert(Segment {
            t0: 0,
            t1: 5,
            s0: 8,
            s1: 13,
        });
        // A parallel waiter at the same spatial coordinate 13.
        idx.insert(Segment::wait(10, 12, 13));
        // A waiter at a different coordinate — same-slope, different key.
        idx.insert(Segment::wait(11, 16, 4));
        // Query: wait at 13 over t = 11..16 (the red segment of Fig. 9).
        let q = Segment::wait(11, 16, 13);
        let c = idx
            .earliest_collision(&q)
            .expect("collides with the waiter at 13");
        assert_eq!(
            c,
            SegCollision {
                time: 11,
                kind: CollisionKind::Vertex
            }
        );
    }

    #[test]
    fn same_slope_different_key_is_filtered_out() {
        let mut idx = SlopeIndexStore::new();
        for s in 0..50 {
            idx.insert(Segment::wait(0, 100, s));
        }
        // Parallel query at a fresh coordinate: no collision.
        assert_eq!(idx.earliest_collision(&Segment::wait(0, 100, 99)), None);
        // At an occupied coordinate: collision.
        assert!(idx.earliest_collision(&Segment::wait(5, 6, 25)).is_some());
    }

    #[test]
    fn cross_slope_collisions_found() {
        let mut idx = SlopeIndexStore::new();
        idx.insert(Segment::travel(0, 0, 9)); // slope 1
        let back = Segment::travel(0, 9, 0); // slope -1
        let c = idx.earliest_collision(&back).expect("swap");
        assert_eq!(c.kind, CollisionKind::Swap);
        assert_eq!(c.time, 4);
    }

    #[test]
    fn remove_clears_buckets() {
        let mut idx = SlopeIndexStore::new();
        let seg = Segment::travel(3, 1, 6);
        let id = idx.insert(seg);
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(id, &seg));
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.earliest_collision(&Segment::travel(3, 6, 1)), None);
        // Internal bucket map must not leak empty buckets.
        assert!(idx.classes[2].by_key.is_empty());
    }

    #[test]
    fn agrees_with_naive_store_on_dense_population() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut naive = NaiveStore::new();
        let mut idx = SlopeIndexStore::new();
        let random_seg = |rng: &mut StdRng| -> Segment {
            let t0 = rng.gen_range(0..60u32);
            let s0 = rng.gen_range(0..20i32);
            match rng.gen_range(0..3) {
                0 => Segment::wait(t0, t0 + rng.gen_range(0..8u32), s0),
                1 => Segment::travel(t0, s0, rng.gen_range(s0..20)),
                _ => Segment::travel(t0, s0, rng.gen_range(0..=s0)),
            }
        };
        for _ in 0..300 {
            let seg = random_seg(&mut rng);
            naive.insert(seg);
            idx.insert(seg);
        }
        for _ in 0..300 {
            let q = random_seg(&mut rng);
            assert_eq!(
                naive.earliest_collision(&q),
                idx.earliest_collision(&q),
                "divergence on query {q}"
            );
        }
        let mut a = naive.snapshot();
        a.sort();
        assert_eq!(a, idx.snapshot());
    }

    #[test]
    fn memory_accounts_all_classes() {
        let mut idx = SlopeIndexStore::new();
        let base = idx.memory_bytes();
        idx.insert(Segment::travel(0, 0, 5));
        idx.insert(Segment::travel(0, 5, 0));
        idx.insert(Segment::wait(0, 5, 2));
        assert!(idx.memory_bytes() > base);
    }
}
