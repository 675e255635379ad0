//! The slope-based segment index of §V-D (Algorithm 3).
//!
//! Segments are partitioned by slope into three classes. Within a class,
//! segments are grouped by the rotated coordinate of Eq. (4) — implemented
//! as the exact integer line intercept, see [`Segment::index_key`] — so a
//! key pins one space-time line: slope `+1` gives `s = t + b` with key
//! `b = s0 − t0`, slope `−1` gives `s = c − t` with key `c = s0 + t0`, and
//! slope `0` keys a waiter by its cell.
//!
//! Every class keeps Algorithm 3's `M_k` as a sorted flat array of
//! `(key, t0, t1)` entries — an entry pins its segment exactly, so a
//! stored segment needs no other name and removal finds it by its entry.
//! The waiting class also keeps `S_k`, its segments in [`Segment`] order
//! (which leads with `t0`), for the one query that needs a time window: a
//! mover asking about waiters. A query binary-searches and then walks
//! contiguous memory; an insert or remove is a binary search plus an
//! `O(n)` memmove, with `n` a few hundred per class on the presets
//! (DESIGN.md §3). Equal segments are stored as equal entries, one per
//! copy.
//!
//! A collision query for a segment `q` of slope `k` over `[t0, t1]`:
//!
//! 1. scans its own key's equal range within class `k` (the
//!    `M_k.get(s\[0\])` of Algorithm 3): parallel segments collide only on
//!    a shared line, where any time overlap is a vertex conflict;
//! 2. reads the *unparallel moving* classes by one contiguous key range
//!    each ([`key_range`]), because a mover that `q` can meet during its
//!    span lies on a line that crosses `q` in that span:
//!    * slope-0 `q` at `s`: keys `[s − t1, s − t0]` in class `+1` and
//!      `[s + t0, s + t1]` in class `−1`; a mover crosses `s` once, at
//!      `s − b` or `c − s`, so each candidate is judged in closed form;
//!    * slope `+1` `q` with key `b`, against class `−1`: keys
//!      `[b + 2·t0, b + 2·t1]` — a vertex meeting at `t` has `c = b + 2t`,
//!      a swap between `t` and `t + 1` has `c = b + 2t + 1`;
//!    * slope `−1` `q` with key `c`, against class `+1`:
//!      `[c − 2·t1, c − 2·t0]`;
//!
//!    every candidate overlapping `q` in time then goes through the exact
//!    pairwise test;
//! 3. for a moving `q`, window-scans the waiters by start time: `q` passes
//!    cell `x` once, at `t0 + |x − s0|`, and a waiter at `x` collides
//!    exactly when it covers that instant.
//!
//! Compared to [`NaiveStore`](crate::store::NaiveStore)'s `O(2 log n + n)`,
//! steps 1–2 cost `O(log m + r)` with `r` the entries in the key range,
//! which the rotation keeps small because the projected time component
//! makes keys almost unique (§V-D remarks); Fig. 22(b) measures the effect
//! end-to-end.

use crate::intersect::{earliest_collision, CollisionKind, SegCollision};
use crate::segment::Segment;
use crate::store::SegmentStore;
use carp_warehouse::memory;
use carp_warehouse::types::Time;

/// The `M_k` key range of slope class `class` that holds every stored
/// segment the query `q` can meet during its span, or `None` for a moving
/// query against the waiting class, which is window-scanned instead (see
/// the module docs for the derivation).
///
/// This is a superset: every collision of `q` with a segment of `class`
/// involves a segment whose [`Segment::index_key`] lies in the range,
/// but not every segment in the range collides.
pub fn key_range(q: &Segment, class: i8) -> Option<(i64, i64)> {
    let (t0, t1) = (i64::from(q.t0), i64::from(q.t1));
    let k = q.index_key();
    match (q.slope(), class) {
        (own, class) if own == class => Some((k, k)),
        (0, 1) => Some((k - t1, k - t0)),
        (0, -1) => Some((k + t0, k + t1)),
        (1, -1) => Some((k + 2 * t0, k + 2 * t1)),
        (-1, 1) => Some((k - 2 * t1, k - 2 * t0)),
        _ => None,
    }
}

/// One `M_k` entry: `(key, t0, t1)`, which with the class's slope pins
/// the segment. Two segments with the same key lie on the same space-time
/// line, so they collide **iff** their time spans overlap, with the vertex
/// conflict starting at the first shared instant.
type LineEntry = (i64, Time, Time);

/// The `M_k` entry of segment `seg`.
fn line_entry(seg: &Segment) -> LineEntry {
    (seg.index_key(), seg.t0, seg.t1)
}

/// The rotated-coordinate array `M_k` of one slope class, in
/// `(key, t0, t1)` order.
#[derive(Debug, Default, Clone)]
struct Lines(Vec<LineEntry>);

impl Lines {
    fn insert(&mut self, entry: LineEntry) {
        let at = self.0.partition_point(|e| *e < entry);
        self.0.insert(at, entry);
    }

    fn remove(&mut self, entry: LineEntry) -> bool {
        let Ok(at) = self.0.binary_search(&entry) else {
            return false;
        };
        self.0.remove(at);
        true
    }

    /// The entries with keys in `[lo, hi]`, in `(key, t0, t1)` order.
    /// A range holds few entries, so its end is found by walking, not by
    /// a second binary search.
    fn range(&self, lo: i64, hi: i64) -> impl Iterator<Item = &LineEntry> {
        let from = self.0.partition_point(|e| e.0 < lo);
        self.0[from..].iter().take_while(move |e| e.0 <= hi)
    }

    /// Earliest collision with segments *parallel* to `seg` (this class):
    /// only the same-key line can collide; any time overlap there is a
    /// vertex conflict starting at the first shared instant. The line is
    /// in start-time order, so the first overlapping span is the earliest.
    fn parallel_collision(&self, seg: &Segment) -> Option<SegCollision> {
        let key = seg.index_key();
        self.range(key, key)
            .take_while(|e| e.1 <= seg.t1)
            .find(|e| e.2 >= seg.t0)
            .map(|e| vertex(seg.t0.max(e.1)))
    }

    /// The instants in `[t0, t1]` at which the movers of this class, of
    /// slope `slope`, occupy cell `s`: a mover crosses `s` once, at
    /// `s − b` (slope `+1`) or `c − s` (slope `−1`), and only if that
    /// instant lies in its span. The key range puts the instant in
    /// `[t0, t1]`.
    fn crossings_at(
        &self,
        slope: i8,
        t0: Time,
        t1: Time,
        s: i32,
    ) -> impl Iterator<Item = Time> + '_ {
        let (lo, hi) = key_range(&Segment::wait(t0, t1, s), slope).expect("a moving class");
        let s = i64::from(s);
        self.range(lo, hi).filter_map(move |&(key, m0, m1)| {
            let t = (if slope == 1 { s - key } else { key - s }) as Time;
            (m0 <= t && t <= m1).then_some(t)
        })
    }

    fn memory_bytes(&self) -> usize {
        memory::vec_bytes(&self.0)
    }
}

/// The waiting class: `M_0` plus `S_0`, the segments in start-time order
/// that a moving query window-scans.
#[derive(Debug, Default, Clone)]
struct WaitClass {
    lines: Lines,
    /// Segments in [`Segment`] order, which leads with `t0` — the `S_0` of
    /// Algorithm 3.
    by_start: Vec<Segment>,
    /// High-water mark of waiter durations, bounding the overlap window.
    max_duration: Time,
}

impl WaitClass {
    fn insert(&mut self, seg: Segment) {
        self.max_duration = self.max_duration.max(seg.duration());
        let at = self.by_start.partition_point(|s| *s < seg);
        self.by_start.insert(at, seg);
        self.lines.insert(line_entry(&seg));
    }

    fn remove(&mut self, seg: &Segment) -> bool {
        if !self.lines.remove(line_entry(seg)) {
            return false;
        }
        let at = self
            .by_start
            .binary_search(seg)
            .expect("every key entry has its start entry");
        self.by_start.remove(at);
        true
    }

    /// Re-tighten the duration high-water mark to the stored maximum.
    fn retighten(&mut self) {
        self.max_duration = self
            .by_start
            .iter()
            .map(|s| s.duration())
            .max()
            .unwrap_or(0);
    }

    /// Earliest collision of the *moving* `seg` with a waiter, or `best`
    /// when none is earlier. `seg` passes cell `x` once, at
    /// `t0 + |x − s0|`, and a waiter at `x` collides exactly when it covers
    /// that instant. A collision happens no earlier than the waiter's
    /// start, so the start-time scan stops past `best`.
    fn mover_collision(
        &self,
        seg: &Segment,
        mut best: Option<SegCollision>,
    ) -> Option<SegCollision> {
        let (lo_s, hi_s) = (seg.s_min(), seg.s_max());
        let from = self
            .by_start
            .partition_point(|s| s.t0 < seg.t0.saturating_sub(self.max_duration));
        for w in &self.by_start[from..] {
            if w.t0 > seg.t1 || best.is_some_and(|b| w.t0 > b.time) {
                break;
            }
            if w.s0 < lo_s || w.s0 > hi_s {
                continue;
            }
            let t = seg.t0 + w.s0.abs_diff(seg.s0);
            if w.t0 <= t && t <= w.t1 {
                best = SegCollision::min_opt(best, Some(vertex(t)));
            }
        }
        best
    }

    fn memory_bytes(&self) -> usize {
        self.lines.memory_bytes() + memory::vec_bytes(&self.by_start)
    }
}

/// A vertex collision at `time`.
fn vertex(time: Time) -> SegCollision {
    SegCollision {
        time,
        kind: CollisionKind::Vertex,
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
    /// Slope 0.
    waiters: WaitClass,
    /// Slope +1, keyed by `b = s0 − t0`.
    rising: Lines,
    /// Slope −1, keyed by `c = s0 + t0`.
    falling: Lines,
    len: usize,
}

impl SlopeIndexStore {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `M_k` of moving class `slope` (±1).
    #[inline]
    fn movers(&self, slope: i8) -> &Lines {
        if slope > 0 {
            &self.rising
        } else {
            &self.falling
        }
    }
}

impl SegmentStore for SlopeIndexStore {
    fn insert(&mut self, seg: Segment) {
        debug_assert!(seg.validate(), "invalid segment {seg}");
        match seg.slope() {
            0 => self.waiters.insert(seg),
            1 => self.rising.insert(line_entry(&seg)),
            _ => self.falling.insert(line_entry(&seg)),
        }
        self.len += 1;
    }

    /// Removes one copy of `seg`, found by its `M_k` entry.
    fn remove(&mut self, seg: &Segment) -> bool {
        let removed = match seg.slope() {
            0 => self.waiters.remove(seg),
            1 => self.rising.remove(line_entry(seg)),
            _ => self.falling.remove(line_entry(seg)),
        };
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Removes one by one, then re-tightens the waiters' duration
    /// high-water mark when the batch removed a waiter — the batch
    /// bookkeeping single `remove` cannot afford.
    fn remove_batch(&mut self, segs: &[Segment]) -> usize {
        let mut removed = 0usize;
        let mut waiter_gone = false;
        for seg in segs {
            if self.remove(seg) {
                removed += 1;
                waiter_gone |= seg.slope() == 0;
            }
        }
        if waiter_gone {
            self.waiters.retighten();
        }
        removed
    }

    fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision> {
        match seg.slope() {
            0 => {
                let best = self.waiters.lines.parallel_collision(seg);
                let crossing = [1, -1]
                    .into_iter()
                    .flat_map(|k| self.movers(k).crossings_at(k, seg.t0, seg.t1, seg.s0))
                    .min();
                SegCollision::min_opt(best, crossing.map(vertex))
            }
            k => {
                let mut best = self.movers(k).parallel_collision(seg);
                let (lo, hi) = key_range(seg, -k).expect("opposite moving class");
                for &(key, t0, t1) in self.movers(-k).range(lo, hi) {
                    if t1 < seg.t0 || t0 > seg.t1 || best.is_some_and(|b| t0 > b.time) {
                        continue;
                    }
                    let other = mover(-k, key, t0, t1);
                    best = SegCollision::min_opt(best, earliest_collision(seg, &other));
                }
                self.waiters.mover_collision(seg, best)
            }
        }
    }

    /// Single-pass override exploiting the slope partition: the waiters
    /// that can block `(·, s)` all lie on the slope-0 line keyed by `s`
    /// itself, and the movers that cross `s` inside the window lie in one
    /// key range per moving class ([`key_range`] of the window as a wait
    /// at `s`). Then one sweep finds the first uncovered instant.
    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        if t0 > t1 {
            return None;
        }
        let mut blocked = Spans::new();
        let key = i64::from(s);
        for &(_, b0, b1) in self.waiters.lines.range(key, key) {
            if b0 > t1 {
                break;
            }
            if b1 >= t0 {
                blocked.push((b0.max(t0), b1.min(t1)));
            }
        }
        for k in [-1i8, 1] {
            for t in self.movers(k).crossings_at(k, t0, t1, s) {
                blocked.push((t, t));
            }
        }
        crate::store::earliest_uncovered(blocked.as_mut_slice(), t0, t1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        self.waiters.memory_bytes()
            + self.rising.memory_bytes()
            + self.falling.memory_bytes()
            + core::mem::size_of::<Self>()
    }

    fn snapshot(&self) -> Vec<Segment> {
        let movers = [1i8, -1].into_iter().flat_map(|k| {
            self.movers(k)
                .0
                .iter()
                .map(move |&(key, t0, t1)| mover(k, key, t0, t1))
        });
        let mut out: Vec<Segment> = self
            .waiters
            .by_start
            .iter()
            .copied()
            .chain(movers)
            .collect();
        out.sort();
        out
    }
}

/// The slope-`k` (±1) segment on line `key` over `[t0, t1]`.
fn mover(k: i8, key: i64, t0: Time, t1: Time) -> Segment {
    let at = |t: Time| (key + i64::from(k) * i64::from(t)) as i32;
    Segment {
        t0,
        t1,
        s0: at(t0),
        s1: at(t1),
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
    fn remove_clears_every_array() {
        let mut idx = SlopeIndexStore::new();
        let seg = Segment::travel(3, 1, 6);
        idx.insert(seg);
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(&seg));
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.earliest_collision(&Segment::travel(3, 6, 1)), None);
        // No class keeps an entry for the removed segment.
        assert!(idx.rising.0.is_empty());
        let wait = Segment::wait(2, 4, 5);
        idx.insert(wait);
        idx.insert(wait);
        assert!(
            !idx.remove(&Segment::wait(2, 5, 5)),
            "a different span is unknown"
        );
        assert_eq!(idx.remove_batch(&[wait, wait, wait]), 2, "two copies held");
        assert!(!idx.remove(&wait), "no copy left");
        assert!(idx.waiters.by_start.is_empty());
        assert!(idx.waiters.lines.0.is_empty());
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

    /// Crafted mover cases at the edges of the key ranges — points,
    /// negative keys, swaps on the first and on the last half-step of the
    /// overlap, spans that only touch — answered as the naive store
    /// answers them.
    #[test]
    fn key_range_edges_match_naive_store() {
        let stored = [
            Segment::travel(10, 0, 6), // rising, key −10, span [10, 16]
            Segment::travel(28, 0, 4), // rising, key −28
            Segment::travel(0, 9, 5),  // falling, key 9, span [0, 4]
            Segment::point(13, 11),
            Segment::wait(20, 24, 2),
        ];
        let mut idx = SlopeIndexStore::new();
        let mut naive = NaiveStore::new();
        for seg in stored {
            idx.insert(seg);
            naive.insert(seg);
        }
        let swap = |time| {
            Some(SegCollision {
                time,
                kind: CollisionKind::Swap,
            })
        };
        let cases = [
            // Swap on the first half-step of the overlap [10, 11].
            (Segment::travel(10, 1, 0), swap(10)),
            // Swap on the last half-step of the overlap [12, 16].
            (Segment::travel(12, 9, 5), swap(15)),
            // Touching the rising mover's last instant, then just after.
            (Segment::wait(16, 20, 6), Some(vertex(16))),
            (Segment::wait(17, 19, 6), None),
            // Points on and next to a mover and on a point waiter.
            (Segment::point(13, 3), Some(vertex(13))),
            (Segment::point(13, 4), None),
            (Segment::point(13, 11), Some(vertex(13))),
            // A falling query whose key range ends at the stored key −28.
            (Segment::travel(30, 2, 0), Some(vertex(30))),
            // A rising query meeting the falling mover at its first instant.
            (Segment::travel(0, 9, 12), Some(vertex(0))),
            // A rising query touching a waiter's last instant.
            (Segment::travel(20, -2, 2), Some(vertex(24))),
        ];
        for (q, expected) in cases {
            assert_eq!(idx.earliest_collision(&q), expected, "query {q}");
            assert_eq!(naive.earliest_collision(&q), expected, "query {q}");
        }
        for (t0, t1, s) in [(13, 13, 3), (12, 16, 3), (0, 4, 9), (4, 8, 5), (30, 31, 2)] {
            assert_eq!(
                idx.earliest_free_point(t0, t1, s),
                naive.earliest_free_point(t0, t1, s),
                "window [{t0}, {t1}] at {s}"
            );
        }
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
