//! Differential shadow store (feature `shadow-store`).
//!
//! [`ShadowStore`] runs the slope-based index of §V-D and the naive
//! ordered-set store of §V-B-2 side by side behind one [`SegmentStore`]
//! facade and asserts that both return **identical collision answers for
//! every query**. Plugged into the SRP planner
//! (`SrpPlanner::<ShadowStore>::with_store`), it turns every planning run
//! into a differential test of the slope index against the reference store
//! — the audit layer's tool for localizing collision regressions to the
//! index (store divergence) versus the planner (both stores agree, the
//! route is still bad).
//!
//! A stored segment is its own key in both inner stores, so every
//! operation forwards the same segment to both; removals are compared
//! too, since both must hold the same multiset of segments.
//!
//! Asserting equality of full [`SegCollision`] values is sound because a
//! collision answer is only `(time, kind)`: both stores report the earliest
//! collision under the same half-step `order_key` ordering, so ties between
//! different stored segments yield equal answers.

use crate::index::SlopeIndexStore;
use crate::intersect::SegCollision;
use crate::segment::Segment;
use crate::store::{NaiveStore, SegmentStore};
use carp_warehouse::types::Time;

/// A [`SegmentStore`] that mirrors every operation into both a
/// [`SlopeIndexStore`] and a [`NaiveStore`] and panics on any divergence.
#[derive(Debug, Default, Clone)]
pub struct ShadowStore {
    fast: SlopeIndexStore,
    naive: NaiveStore,
}

impl ShadowStore {
    /// Create an empty shadow store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slope-indexed inner store.
    pub fn fast(&self) -> &SlopeIndexStore {
        &self.fast
    }

    /// The naive ordered-set inner store.
    pub fn naive(&self) -> &NaiveStore {
        &self.naive
    }
}

impl SegmentStore for ShadowStore {
    fn insert(&mut self, seg: Segment) {
        self.fast.insert(seg);
        self.naive.insert(seg);
    }

    fn remove(&mut self, seg: &Segment) -> bool {
        let rf = self.fast.remove(seg);
        let rn = self.naive.remove(seg);
        assert_eq!(
            rf, rn,
            "shadow-store divergence removing {seg}: slope-index {rf}, naive {rn}"
        );
        rf
    }

    fn remove_batch(&mut self, segs: &[Segment]) -> usize {
        let rf = self.fast.remove_batch(segs);
        let rn = self.naive.remove_batch(segs);
        assert_eq!(
            rf, rn,
            "shadow-store divergence in remove_batch: slope-index removed {rf}, naive removed {rn}"
        );
        rf
    }

    fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision> {
        let a = self.fast.earliest_collision(seg);
        let b = self.naive.earliest_collision(seg);
        assert_eq!(
            a, b,
            "shadow-store divergence querying {seg}: slope-index {a:?}, naive {b:?}"
        );
        a
    }

    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        let a = self.fast.earliest_free_point(t0, t1, s);
        let b = self.naive.earliest_free_point(t0, t1, s);
        assert_eq!(
            a, b,
            "shadow-store divergence in earliest_free_point([{t0},{t1}], {s}): \
             slope-index {a:?}, naive {b:?}"
        );
        a
    }

    fn len(&self) -> usize {
        let a = self.fast.len();
        let b = self.naive.len();
        assert_eq!(
            a, b,
            "shadow-store divergence in len: slope-index {a}, naive {b}"
        );
        a
    }

    fn memory_bytes(&self) -> usize {
        self.fast.memory_bytes() + self.naive.memory_bytes()
    }

    fn snapshot(&self) -> Vec<Segment> {
        let mut a = self.fast.snapshot();
        let mut b = self.naive.snapshot();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "shadow-store divergence in snapshot");
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::CollisionKind;

    #[test]
    fn mirrors_insert_query_remove() {
        let mut store = ShadowStore::new();
        let seg = Segment::travel(0, 0, 5);
        store.insert(seg);
        assert_eq!(store.len(), 1);
        let c = store
            .earliest_collision(&Segment::travel(0, 5, 0))
            .expect("swap");
        assert_eq!(c.kind, CollisionKind::Swap);
        assert!(store.remove(&seg));
        assert!(store.is_empty());
        assert!(
            !store.remove(&seg),
            "a segment with no copy left is refused"
        );
    }

    #[test]
    fn agrees_over_a_random_workload() {
        // Deterministic mixed workload: inserts, queries, removals.
        let mut store = ShadowStore::new();
        let mut live: Vec<Segment> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400 {
            let t0 = (rng() % 64) as u32;
            let len = (rng() % 9) as u32;
            let s0 = (rng() % 24) as i32;
            let seg = match rng() % 3 {
                0 => Segment::wait(t0, t0 + len, s0),
                1 => Segment::travel(t0, s0, s0 + len as i32),
                _ => Segment::travel(t0, s0 + len as i32, s0),
            };
            match rng() % 4 {
                // Queries exercise the divergence assertion on every call.
                0 => {
                    let _ = store.earliest_collision(&seg);
                }
                1 if !live.is_empty() => {
                    let old = live.swap_remove((rng() % live.len() as u64) as usize);
                    assert!(store.remove(&old));
                }
                _ => {
                    store.insert(seg);
                    live.push(seg);
                }
            }
            if step % 50 == 0 {
                let _ = store.snapshot();
            }
        }
        assert_eq!(store.len(), live.len());
    }
}
