//! Segment stores: collections of committed segments within one strip that
//! answer *earliest-collision* queries for candidate segments.
//!
//! A store is a multiset of [`Segment`]s: a stored segment is its own key,
//! so removal names the segment itself and drops one copy of it. Every
//! query answer is a minimum over `(time, kind)`, so it depends only on
//! which segments are stored, not on the order they arrived in.
//!
//! [`NaiveStore`] is the ordered-set scheme of §V-B-2: all segments in one
//! red-black tree (std's `BTreeMap`) ordered by start time; a query binary
//! searches the time-overlap window and judges the survivors one by one —
//! `O(2·log n + n)`.
//!
//! The accelerated slope-based index of §V-D lives in [`crate::index`];
//! both implement [`SegmentStore`], which is what lets the SRP planner (and
//! the Fig. 22 ablation) swap them freely.

use crate::intersect::{earliest_collision, SegCollision};
use crate::segment::Segment;
use carp_warehouse::memory;
use carp_warehouse::types::Time;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A multiset of segments supporting insertion, removal and
/// earliest-collision queries (the operations of Algorithm 3).
///
/// Stores are `Send + Sync` so a planner owning them can move to a service
/// worker thread. All stores here are plain owned data structures, so the
/// bound is free.
pub trait SegmentStore: Send + Sync {
    /// Insert one copy of a segment. Duplicates are legal.
    fn insert(&mut self, seg: Segment);

    /// Remove one copy of `seg`. Returns `false` when no copy is stored.
    fn remove(&mut self, seg: &Segment) -> bool;

    /// Remove one copy of each segment of a batch in one call, returning
    /// how many copies were actually present. The default loops over
    /// [`SegmentStore::remove`]; stores override it when a batch admits
    /// cheaper bookkeeping (e.g. re-tightening duration high-water marks
    /// once per batch instead of never).
    fn remove_batch(&mut self, segs: &[Segment]) -> usize {
        segs.iter().filter(|seg| self.remove(seg)).count()
    }

    /// Earliest collision of a candidate segment against every stored
    /// segment (exact discrete semantics), or `None` when the candidate is
    /// compatible with all of them.
    fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision>;

    /// Earliest integer time `t ∈ [t0, t1]` at which grid number `s` is
    /// unoccupied — i.e. the point probe `Segment::point(t, s)` reports no
    /// collision — or `None` when every instant of the window is blocked.
    ///
    /// This is the primitive behind the planner's wait-probe loops (finding
    /// the first free departure instant at a crossing, or the first free
    /// start instant on a rack cell). A point only ever suffers *vertex*
    /// collisions (a swap needs both segments moving), so "free" is exactly
    /// "no stored segment occupies `(t, s)`".
    ///
    /// The default steps through the window with wait probes: query the
    /// remaining window as one waiting segment; if the earliest collision
    /// is strictly after the window start, the start is free, otherwise
    /// skip past the blocked instant. Stores override this when their
    /// layout admits a single-pass sweep.
    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        let mut t = t0;
        while t <= t1 {
            match self.earliest_collision(&Segment::wait(t, t1, s)) {
                None => return Some(t),
                Some(c) if c.time > t => return Some(t),
                Some(_) => t += 1,
            }
        }
        None
    }

    /// Number of stored segments.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated heap bytes of the store (MC metric).
    fn memory_bytes(&self) -> usize;

    /// Snapshot of all stored segments, for tests and debugging.
    fn snapshot(&self) -> Vec<Segment>;
}

/// Sweep a list of blocked closed intervals (already clipped to
/// `[t0, t1]`) and return the earliest instant of the window not covered
/// by any of them. Shared by the single-pass `earliest_free_point`
/// overrides of [`NaiveStore`] and [`crate::index::SlopeIndexStore`].
pub(crate) fn earliest_uncovered(blocked: &mut [(Time, Time)], t0: Time, t1: Time) -> Option<Time> {
    blocked.sort_unstable();
    let mut t = t0;
    for &(b0, b1) in blocked.iter() {
        if b0 > t {
            return Some(t);
        }
        if b1 >= t {
            t = b1 + 1;
            if t > t1 {
                return None;
            }
        }
    }
    (t <= t1).then_some(t)
}

/// The naive ordered-set store of §V-B-2.
///
/// Segments are kept in a `BTreeMap` in [`Segment`] order, which leads with
/// the start time, each with its number of copies. Queries scan the window
/// `[q.t0 − max_duration, q.t1]` of start times — every segment whose span
/// can overlap the query — and judge each with the exact intersection test.
/// `max_duration` is a high-water mark (single removals do not lower it),
/// which is conservative but always correct.
#[derive(Debug, Default, Clone)]
pub struct NaiveStore {
    by_start: BTreeMap<Segment, u32>,
    len: usize,
    max_duration: Time,
}

impl NaiveStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stored segments that start in `[lo, hi]`, one per distinct
    /// segment, in start-time order.
    fn starting_in(&self, lo: Time, hi: Time) -> impl Iterator<Item = &Segment> {
        self.by_start
            .range(Segment::point(lo, i32::MIN)..)
            .map(|(seg, _)| seg)
            .take_while(move |seg| seg.t0 <= hi)
    }
}

impl SegmentStore for NaiveStore {
    fn insert(&mut self, seg: Segment) {
        debug_assert!(seg.validate(), "invalid segment {seg}");
        self.max_duration = self.max_duration.max(seg.duration());
        *self.by_start.entry(seg).or_default() += 1;
        self.len += 1;
    }

    fn remove(&mut self, seg: &Segment) -> bool {
        let Entry::Occupied(mut copies) = self.by_start.entry(*seg) else {
            return false;
        };
        *copies.get_mut() -= 1;
        if *copies.get() == 0 {
            copies.remove();
        }
        self.len -= 1;
        true
    }

    fn remove_batch(&mut self, segs: &[Segment]) -> usize {
        let removed = segs.iter().filter(|seg| self.remove(seg)).count();
        // A batch is the one moment where re-tightening the duration
        // high-water mark pays for itself: one pass over the survivors
        // narrows every later query window back to the true maximum
        // (single `remove` keeps the conservative mark untouched).
        // Narrowing is sound: the window only needs to cover segments that
        // can still overlap a query, and those all have duration ≤ the
        // recomputed maximum.
        if removed > 0 {
            self.max_duration = self
                .by_start
                .keys()
                .map(|s| s.duration())
                .max()
                .unwrap_or(0);
        }
        removed
    }

    fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision> {
        let lo = seg.t0.saturating_sub(self.max_duration);
        let mut best: Option<SegCollision> = None;
        for other in self.starting_in(lo, seg.t1) {
            if other.t1 < seg.t0 {
                continue;
            }
            best = SegCollision::min_opt(best, earliest_collision(seg, other));
        }
        best
    }

    /// Single-pass override: one window scan collects, per stored segment,
    /// the closed interval during which it occupies `s` (whole span for a
    /// waiter, a single instant for a mover), then a sweep finds the first
    /// uncovered instant — versus the default's repeated wait probes, each
    /// of which rescans the window.
    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        let lo = t0.saturating_sub(self.max_duration);
        let mut blocked: Vec<(Time, Time)> = Vec::new();
        for other in self.starting_in(lo, t1) {
            if other.t1 < t0 {
                continue;
            }
            if let Some((b0, b1)) = other.occupancy_span_at(s) {
                if b1 >= t0 && b0 <= t1 {
                    blocked.push((b0.max(t0), b1.min(t1)));
                }
            }
        }
        earliest_uncovered(&mut blocked, t0, t1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        memory::btreemap_bytes(&self.by_start) + core::mem::size_of::<Self>()
    }

    fn snapshot(&self) -> Vec<Segment> {
        self.by_start
            .iter()
            .flat_map(|(&seg, &copies)| std::iter::repeat_n(seg, copies as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::CollisionKind;

    #[test]
    fn insert_query_remove_cycle() {
        let mut store = NaiveStore::new();
        let seg = Segment::travel(0, 0, 5);
        store.insert(seg);
        assert_eq!(store.len(), 1);

        let head_on = Segment::travel(0, 5, 0);
        let c = store.earliest_collision(&head_on).expect("collide");
        assert_eq!(c.kind, CollisionKind::Swap);

        assert!(store.remove(&seg));
        assert!(store.is_empty());
        assert_eq!(store.earliest_collision(&head_on), None);
        assert!(!store.remove(&seg), "double remove must fail");
    }

    #[test]
    fn earliest_among_many() {
        let mut store = NaiveStore::new();
        store.insert(Segment::wait(8, 12, 3)); // vertex at 8 for a 0→9 mover
        store.insert(Segment::wait(4, 12, 7)); // vertex at 7
        store.insert(Segment::wait(0, 2, 1)); // vertex at 1
        let mover = Segment::travel(0, 0, 9);
        let c = store.earliest_collision(&mover).expect("collide");
        assert_eq!(c.time, 1);
    }

    #[test]
    fn long_early_segment_is_not_missed() {
        let mut store = NaiveStore::new();
        // Starts long before the query but still overlaps it.
        store.insert(Segment::wait(0, 100, 5));
        let q = Segment::travel(50, 0, 9);
        let c = store.earliest_collision(&q).expect("collide");
        assert_eq!(c.time, 55);
    }

    #[test]
    fn no_false_positives_outside_window() {
        let mut store = NaiveStore::new();
        store.insert(Segment::travel(0, 0, 5));
        let later = Segment::travel(100, 5, 0);
        assert_eq!(store.earliest_collision(&later), None);
    }

    #[test]
    fn memory_grows_and_shrinks() {
        let mut store = NaiveStore::new();
        let base = store.memory_bytes();
        let seg = Segment::wait(0, 1, 0);
        store.insert(seg);
        assert!(store.memory_bytes() > base);
        store.remove(&seg);
        assert_eq!(store.memory_bytes(), base);
    }

    #[test]
    fn snapshot_returns_all() {
        let mut store = NaiveStore::new();
        store.insert(Segment::wait(3, 4, 1));
        store.insert(Segment::travel(0, 0, 2));
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.contains(&Segment::wait(3, 4, 1)));
    }
}
