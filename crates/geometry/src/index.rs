//! The slope-based segment index of §V-D (Algorithm 3).
//!
//! Segments are partitioned by slope into three classes. Within a class,
//! segments are grouped by the rotated coordinate of Eq. (4) — implemented
//! as the exact integer line intercept, see [`Segment::index_key`] — so two
//! *parallel* segments can only collide when they share a key (they lie on
//! the same space-time line) and their time spans overlap.
//!
//! Each class keeps Algorithm 3's two structures as sorted flat arrays
//! rather than a tree and a hash map: `S_k` is a `Vec` in `(t0, id)` order
//! and `M_k` is a `Vec` of `(key, t0, t1)` triples in that order. A query
//! binary-searches and then walks contiguous memory, with the same order
//! and therefore the same answers as the ordered-set formulation. An
//! insert or remove is a binary search plus an `O(n)` memmove, with `n` a
//! few hundred per class on the presets (DESIGN.md §3).
//!
//! A collision query for a segment of slope `k` therefore:
//!
//! 1. scans only its own key's equal range within class `k` (the
//!    `M_k.get(s\[0\])` of Algorithm 3) — `O(log m + r)` with `r` the number
//!    of segments on the same line, which the rotation keeps tiny because
//!    the projected time component makes keys almost unique (§V-D
//!    remarks);
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

/// One slope class: the time-ordered array (for unparallel queries) plus
/// the key-ordered array (for parallel queries).
///
/// `by_key` holds only `(key, t0, t1)`: two segments with the same key lie
/// on the same space-time line, so they collide **iff** their time spans
/// overlap, with the vertex conflict starting at the first shared instant.
#[derive(Debug, Default, Clone)]
struct SlopeClass {
    /// Segments in `(t0, id)` order — the `S_k` of Algorithm 3.
    by_start: Vec<(SegmentId, Segment)>,
    /// Spans in `(key, t0, t1)` order — the `M_k` of Algorithm 3.
    by_key: Vec<(i64, Time, Time)>,
    /// High-water mark of segment durations, bounding the overlap window.
    max_duration: Time,
}

impl SlopeClass {
    fn insert(&mut self, id: SegmentId, seg: Segment) {
        self.max_duration = self.max_duration.max(seg.duration());
        let at = self
            .by_start
            .partition_point(|&(i, s)| (s.t0, i) < (seg.t0, id));
        self.by_start.insert(at, (id, seg));
        let entry = (seg.index_key(), seg.t0, seg.t1);
        let at = self.by_key.partition_point(|&e| e < entry);
        self.by_key.insert(at, entry);
    }

    /// Remove the segment stored under `(t0, id)`. Its `by_key` entry is
    /// taken from the stored segment, so the two arrays stay in step.
    fn remove(&mut self, id: SegmentId, t0: Time) -> bool {
        let Ok(at) = self
            .by_start
            .binary_search_by(|&(i, s)| (s.t0, i).cmp(&(t0, id)))
        else {
            return false;
        };
        let (_, seg) = self.by_start.remove(at);
        let entry = (seg.index_key(), seg.t0, seg.t1);
        let at = self
            .by_key
            .binary_search(&entry)
            .expect("every stored segment has its key entry");
        self.by_key.remove(at);
        true
    }

    /// Re-tighten the duration high-water mark to the stored maximum.
    fn retighten(&mut self) {
        self.max_duration = self
            .by_start
            .iter()
            .map(|(_, s)| s.duration())
            .max()
            .unwrap_or(0);
    }

    /// The `by_key` entries of the line with rotated coordinate `key`, in
    /// `(t0, t1)` order.
    fn line(&self, key: i64) -> &[(i64, Time, Time)] {
        let from = self.by_key.partition_point(|&(k, _, _)| k < key);
        let len = self.by_key[from..].partition_point(|&(k, _, _)| k == key);
        &self.by_key[from..from + len]
    }

    /// The stored segments whose start time lies in `[lo, hi]`, in
    /// `(t0, id)` order.
    fn starting_in(&self, lo: Time, hi: Time) -> impl Iterator<Item = &Segment> {
        let from = self.by_start.partition_point(|(_, s)| s.t0 < lo);
        self.by_start[from..]
            .iter()
            .map(|(_, s)| s)
            .take_while(move |s| s.t0 <= hi)
    }

    /// Earliest collision with segments *parallel* to `seg` (same class):
    /// only the same-key line can collide; any time overlap there is a
    /// vertex conflict starting at the first shared instant. The line is
    /// in start-time order, so the first overlapping span is the earliest.
    fn parallel_collision(&self, seg: &Segment) -> Option<SegCollision> {
        self.line(seg.index_key())
            .iter()
            .take_while(|&&(_, t0, _)| t0 <= seg.t1)
            .find(|&&(_, _, t1)| t1 >= seg.t0)
            .map(|&(_, t0, _)| SegCollision {
                time: seg.t0.max(t0),
                kind: CollisionKind::Vertex,
            })
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
        for other in self.starting_in(lo, seg.t1) {
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
        memory::vec_bytes(&self.by_start) + memory::vec_bytes(&self.by_key)
    }
}

/// Blocked spans gathered by one free-point query: an inline buffer that
/// spills to the heap only when a query meets more than [`Spans::INLINE`]
/// spans, so the common query allocates nothing.
struct Spans {
    inline: [(Time, Time); Spans::INLINE],
    len: usize,
    spill: Vec<(Time, Time)>,
}

impl Spans {
    const INLINE: usize = 32;

    fn new() -> Self {
        Spans {
            inline: [(0, 0); Spans::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, span: (Time, Time)) {
        if self.len < Spans::INLINE {
            self.inline[self.len] = span;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(span);
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Time, Time)] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
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
        let removed = self.classes[Self::class_of(seg.slope())].remove(id, seg.t0);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Removes one by one, then re-tightens the duration high-water mark
    /// of every class that lost a segment — the batch bookkeeping single
    /// `remove` cannot afford.
    fn remove_batch(&mut self, removals: &[(SegmentId, Segment)]) -> usize {
        let mut touched = [false; 3];
        let mut removed = 0usize;
        for (id, seg) in removals {
            let c = Self::class_of(seg.slope());
            if self.classes[c].remove(*id, seg.t0) {
                touched[c] = true;
                removed += 1;
            }
        }
        for (class, touched) in self.classes.iter_mut().zip(touched) {
            if touched {
                class.retighten();
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
    /// that can block `(·, s)` all lie on the slope-0 line keyed by `s`
    /// itself (their [`Segment::index_key`] is the spatial coordinate), so
    /// that class needs one equal-range scan instead of a window scan. The
    /// two moving classes are window-scanned for their single-instant
    /// crossings of coordinate `s`, then one sweep finds the first
    /// uncovered instant.
    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        let mut blocked = Spans::new();
        for &(_, b0, b1) in self.classes[Self::class_of(0)].line(s as i64) {
            if b0 > t1 {
                break;
            }
            if b1 >= t0 {
                blocked.push((b0.max(t0), b1.min(t1)));
            }
        }
        for slope in [-1i8, 1] {
            let class = &self.classes[Self::class_of(slope)];
            let lo = t0.saturating_sub(class.max_duration);
            for other in class.starting_in(lo, t1) {
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
        crate::store::earliest_uncovered(blocked.as_mut_slice(), t0, t1)
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
            .flat_map(|c| c.by_start.iter().map(|&(_, s)| s))
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
    fn remove_clears_both_arrays() {
        let mut idx = SlopeIndexStore::new();
        let seg = Segment::travel(3, 1, 6);
        let id = idx.insert(seg);
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(id, &seg));
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.earliest_collision(&Segment::travel(3, 6, 1)), None);
        // Neither array keeps an entry for the removed segment.
        assert!(idx.classes[2].by_start.is_empty());
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
    fn free_point_spills_past_the_inline_buffer() {
        // More blocked spans than the inline buffer holds, from waiters and
        // from movers of both slopes; the only free instant is t = 50.
        let mut idx = SlopeIndexStore::new();
        let mut naive = NaiveStore::new();
        for t in (0..60u32).filter(|&t| t != 50) {
            let seg = match t % 3 {
                0 => Segment::wait(t, t, 7),
                1 => Segment::travel(t - 1, 6, 8),
                _ => Segment::travel(t - 2, 9, 5),
            };
            idx.insert(seg);
            naive.insert(seg);
        }
        assert_eq!(idx.earliest_free_point(0, 70, 7), Some(50));
        assert_eq!(naive.earliest_free_point(0, 70, 7), Some(50));
        assert_eq!(idx.earliest_free_point(0, 49, 7), None);
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
