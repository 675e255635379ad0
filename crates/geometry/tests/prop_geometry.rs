//! Property-based tests pinning the segment geometry to the discrete
//! ground truth of Definition 3.

use carp_geometry::index::key_range;
use carp_geometry::{
    collide_paper, earliest_collision, earliest_collision_reference, CollisionKind, NaiveStore,
    SegCollision, Segment, SegmentStore, SlopeIndexStore,
};
use proptest::prelude::*;

/// Arbitrary valid segment: random start, random slope, bounded span.
fn arb_segment() -> impl Strategy<Value = Segment> {
    (0u32..80, 0i32..30, 0usize..3, 0u32..15).prop_map(|(t0, s0, kind, span)| match kind {
        0 => Segment::wait(t0, t0 + span, s0),
        1 => Segment::travel(t0, s0, s0 + span as i32),
        _ => Segment::travel(t0, s0, s0 - span as i32),
    })
}

proptest! {
    /// The exact closed-form collision test agrees with brute-force
    /// discrete expansion on every segment pair.
    #[test]
    fn exact_matches_brute_force(a in arb_segment(), b in arb_segment()) {
        prop_assert_eq!(earliest_collision(&a, &b), earliest_collision_reference(&a, &b));
    }

    /// Collision detection is symmetric in its arguments.
    #[test]
    fn collision_is_symmetric(a in arb_segment(), b in arb_segment()) {
        prop_assert_eq!(earliest_collision(&a, &b), earliest_collision(&b, &a));
    }

    /// Every segment collides with itself at its start time (vertex).
    #[test]
    fn self_collision_at_start(a in arb_segment()) {
        prop_assert_eq!(
            earliest_collision(&a, &a),
            Some(SegCollision { time: a.t0, kind: CollisionKind::Vertex })
        );
    }

    /// The paper's Eq. (2) never reports a collision the exact test does
    /// not (it is strictly weaker: proper crossings only).
    #[test]
    fn paper_test_is_sound_subset(a in arb_segment(), b in arb_segment()) {
        if collide_paper(&a, &b) {
            prop_assert!(earliest_collision(&a, &b).is_some(),
                "Eq.(2) reported a phantom collision for {} vs {}", a, b);
        }
    }

    /// Both stores return the same earliest collision as a linear scan with
    /// the exact pairwise test.
    #[test]
    fn stores_match_linear_scan(
        segs in prop::collection::vec(arb_segment(), 0..60),
        q in arb_segment(),
    ) {
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        let mut expected: Option<SegCollision> = None;
        for s in &segs {
            naive.insert(*s);
            index.insert(*s);
            expected = SegCollision::min_opt(expected, earliest_collision(&q, s));
        }
        prop_assert_eq!(naive.earliest_collision(&q), expected);
        prop_assert_eq!(index.earliest_collision(&q), expected);
    }

    /// Removal really removes: after deleting every inserted segment the
    /// stores report no collisions and zero length.
    #[test]
    fn removal_restores_emptiness(segs in prop::collection::vec(arb_segment(), 1..40)) {
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        for s in &segs {
            naive.insert(*s);
            index.insert(*s);
        }
        for s in &segs {
            prop_assert!(naive.remove(s));
            prop_assert!(index.remove(s));
        }
        prop_assert!(naive.is_empty());
        prop_assert!(index.is_empty());
        for s in &segs {
            prop_assert_eq!(naive.earliest_collision(s), None);
            prop_assert_eq!(index.earliest_collision(s), None);
        }
    }

    /// A reported collision time always lies within both segments' spans
    /// (for swaps, within [t0, t1) of both).
    #[test]
    fn collision_time_within_overlap(a in arb_segment(), b in arb_segment()) {
        if let Some(c) = earliest_collision(&a, &b) {
            let lo = a.t0.max(b.t0);
            let hi = a.t1.min(b.t1);
            match c.kind {
                CollisionKind::Vertex => prop_assert!((lo..=hi).contains(&c.time)),
                CollisionKind::Swap => prop_assert!(c.time >= lo && c.time < hi),
            }
        }
    }

    /// Eq. (3) gives the exact collision time whenever the exact test finds
    /// a collision between genuinely opposite-slope segments.
    #[test]
    fn eq3_matches_exact_on_opposite_slopes(a in arb_segment(), b in arb_segment()) {
        if a.slope() == 1 && b.slope() == -1 {
            if let Some(c) = earliest_collision(&a, &b) {
                // Eq. (3) assumes the crossing lies within both segments —
                // the exact test guarantees it here.
                prop_assert_eq!(carp_geometry::collision_time_paper(&a, &b), c.time);
            }
        }
    }

    /// `earliest_free_point` agrees with the brute-force definition —
    /// the first instant of the window at which a point probe reports no
    /// collision — for the trait default (exercised through a store-trait
    /// object... here simply via repeated point probes), the NaiveStore
    /// single-pass override and the SlopeIndexStore equal-range override.
    #[test]
    fn earliest_free_point_matches_point_probes(
        segs in prop::collection::vec(arb_segment(), 0..60),
        t0 in 0u32..90,
        span in 0u32..20,
        s in 0i32..30,
    ) {
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        for seg in &segs {
            naive.insert(*seg);
            index.insert(*seg);
        }
        let t1 = t0 + span;
        // Ground truth: scan the window with single point probes.
        let expected = (t0..=t1)
            .find(|&t| naive.earliest_collision(&Segment::point(t, s)).is_none());
        prop_assert_eq!(naive.earliest_free_point(t0, t1, s), expected);
        prop_assert_eq!(index.earliest_free_point(t0, t1, s), expected);
        // The trait default (wait-probe stepping) must agree too; call it
        // through a minimal wrapper store that inherits the default.
        struct DefaultOnly(NaiveStore);
        impl SegmentStore for DefaultOnly {
            fn insert(&mut self, seg: Segment) { self.0.insert(seg) }
            fn remove(&mut self, seg: &Segment) -> bool { self.0.remove(seg) }
            fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision> {
                self.0.earliest_collision(seg)
            }
            fn len(&self) -> usize { self.0.len() }
            fn memory_bytes(&self) -> usize { self.0.memory_bytes() }
            fn snapshot(&self) -> Vec<Segment> { self.0.snapshot() }
        }
        let mut plain = DefaultOnly(NaiveStore::new());
        for seg in &segs {
            plain.insert(*seg);
        }
        prop_assert_eq!(plain.earliest_free_point(t0, t1, s), expected);
    }

    /// Snapshots of both stores agree after identical workloads.
    #[test]
    fn snapshots_agree(segs in prop::collection::vec(arb_segment(), 0..50)) {
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        for s in &segs {
            naive.insert(*s);
            index.insert(*s);
        }
        let mut a = naive.snapshot();
        let mut b = index.snapshot();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Random interleavings of every store operation leave the slope index
    /// and the naive store in agreement with an explicit multiset model
    /// after each step: a removal succeeds exactly when the model held a
    /// copy, a batch removes exactly the copies the model drops (repeats
    /// within the batch included), and queries, `len` and snapshot agree.
    /// Removals include segments with no live copy, repeats within one
    /// batch, and one copy of a segment inserted twice.
    #[test]
    fn slope_index_matches_naive_store_under_interleavings(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        // The model: one entry per stored copy. `dead` holds every segment
        // a removal has named, live copies left or not.
        let mut model: Vec<Segment> = Vec::new();
        let mut dead: Vec<Segment> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(seg) => {
                    naive.insert(seg);
                    index.insert(seg);
                    model.push(seg);
                }
                Op::InsertCopy(k) => {
                    if let Some(&seg) = pick(&model, k) {
                        naive.insert(seg);
                        index.insert(seg);
                        model.push(seg);
                    }
                }
                Op::Remove(k) => {
                    if let Some(&seg) = pick(&model, k) {
                        prop_assert!(drop_copy(&mut model, &seg));
                        prop_assert!(naive.remove(&seg));
                        prop_assert!(index.remove(&seg));
                        dead.push(seg);
                    }
                }
                Op::RemoveUnknown(k, seg) => {
                    // A removed segment with no live copy left, else the
                    // fresh one when it has none.
                    let gone: Vec<Segment> =
                        dead.iter().chain([&seg]).copied().filter(|s| !model.contains(s)).collect();
                    if let Some(seg) = pick(&gone, k) {
                        prop_assert!(!naive.remove(seg));
                        prop_assert!(!index.remove(seg));
                    }
                }
                Op::RemoveBatch(picks) => {
                    // Every fifth pick names a removed segment; the rest
                    // name live ones, possibly the same one twice.
                    let batch: Vec<Segment> = picks
                        .iter()
                        .filter_map(|&k| if k % 5 == 0 { pick(&dead, k) } else { pick(&model, k) })
                        .copied()
                        .collect();
                    let dropped = batch.iter().filter(|seg| drop_copy(&mut model, seg)).count();
                    prop_assert_eq!(naive.remove_batch(&batch), dropped);
                    prop_assert_eq!(index.remove_batch(&batch), dropped);
                    dead.extend(batch);
                }
                Op::Collide(q) => {
                    prop_assert_eq!(index.earliest_collision(&q), naive.earliest_collision(&q), "query {}", q);
                }
                Op::FreePoint(t0, span, s) => {
                    prop_assert_eq!(
                        index.earliest_free_point(t0, t0 + span, s),
                        naive.earliest_free_point(t0, t0 + span, s)
                    );
                }
            }
            prop_assert_eq!(index.len(), model.len());
            prop_assert_eq!(naive.len(), model.len());
            let mut expected = model.clone();
            expected.sort();
            for mut snapshot in [naive.snapshot(), index.snapshot()] {
                snapshot.sort();
                prop_assert_eq!(&snapshot, &expected);
            }
        }
    }
}

proptest! {
    /// The key ranges the slope index reads are supersets: whenever a
    /// query collides with a stored segment, the stored segment's key lies
    /// in the range [`key_range`] computes for the query against its class
    /// (or the class is the waiters, window-scanned for a moving query);
    /// and every mover that occupies cell `x` inside a free-point window
    /// lies in the window's range. Pairs cover every slope pairing,
    /// points, negative keys and touching spans, plus crafted swaps on
    /// the first and on the last half-step of the overlap.
    #[test]
    fn key_ranges_cover_every_collision(
        q in arb_dense_segment(),
        other in arb_dense_segment(),
        swap in arb_swap_pair(),
        at in (0u32..48, 0u32..12, -1i32..13),
    ) {
        let ((a, b), (w0, span, x)) = (swap, at);
        prop_assert_eq!(
            earliest_collision(&a, &b).map(|c| c.kind),
            Some(CollisionKind::Swap),
            "crafted pair {} / {}", a, b
        );
        for (q, s) in [(q, other), (other, q), (a, b), (b, a)] {
            if earliest_collision(&q, &s).is_some() {
                match key_range(&q, s.slope()) {
                    Some((lo, hi)) => prop_assert!(
                        (lo..=hi).contains(&s.index_key()),
                        "{} collides with {} outside [{}, {}]", q, s, lo, hi
                    ),
                    None => prop_assert!(q.slope() != 0 && s.slope() == 0),
                }
            }
        }
        let window = Segment::wait(w0, w0 + span, x);
        for s in [q, other, a, b] {
            let Some((t, _)) = s.occupancy_span_at(x) else { continue };
            if s.slope() != 0 && window.time_overlaps(t, t) {
                let (lo, hi) = key_range(&window, s.slope()).expect("moving class");
                prop_assert!((lo..=hi).contains(&s.index_key()), "{} at {} in {}", s, x, window);
            }
        }
        // Store level: the same segments answer as the naive store does.
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        for s in [other, a, b] {
            naive.insert(s);
            index.insert(s);
        }
        for q in [q, a, b, window] {
            prop_assert_eq!(index.earliest_collision(&q), naive.earliest_collision(&q), "query {}", q);
        }
        prop_assert_eq!(
            index.earliest_free_point(w0, w0 + span, x),
            naive.earliest_free_point(w0, w0 + span, x)
        );
    }
}

/// A rising and a falling segment that swap between `t + j` and
/// `t + j + 1`, with `j` the first or the last half-step of the rising
/// segment (or one in between), and the falling segment reaching up to
/// two steps past either end of the swap.
fn arb_swap_pair() -> impl Strategy<Value = (Segment, Segment)> {
    (
        (0u32..40, -4i32..12, 1u32..8),
        (0usize..3, 0u32..8),
        (0u32..3, 0u32..3),
    )
        .prop_map(|((t, s, len), (at, mid), (before, after))| {
            let j = match at {
                0 => 0,
                1 => len - 1,
                _ => mid % len,
            };
            let rising = Segment::travel(t, s, s + len as i32);
            // The falling segment is at s + j + 1 at t + j, at s + j at t + j + 1.
            let start = (t + j).saturating_sub(before);
            let pos = s + j as i32 + 1 + (t + j - start) as i32;
            let falling = Segment::travel(start, pos, pos - (t + j - start + 1 + after) as i32);
            (rising, falling)
        })
}

/// One step of the interleaving test; `usize` fields pick a segment modulo
/// the list they index.
#[derive(Debug, Clone)]
enum Op {
    Insert(Segment),
    InsertCopy(usize),
    Remove(usize),
    RemoveUnknown(usize, Segment),
    RemoveBatch(Vec<usize>),
    Collide(Segment),
    FreePoint(u32, u32, i32),
}

/// Segments on a small space-time patch, so that collisions, shared lines
/// and identical spans are common.
fn arb_dense_segment() -> impl Strategy<Value = Segment> {
    (0u32..40, 0i32..12, 0usize..3, 0u32..8).prop_map(|(t0, s0, kind, span)| match kind {
        0 => Segment::wait(t0, t0 + span, s0),
        1 => Segment::travel(t0, s0, s0 + span as i32),
        _ => Segment::travel(t0, s0, s0 - span as i32),
    })
}

/// One operation, weighted: inserts 4, copies 1, removals 2, unknown
/// removals 1, batches 1, collision queries 3, free-point queries 2.
fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u32..14,
        arb_dense_segment(),
        0usize..1 << 16,
        prop::collection::vec(0usize..1 << 16, 0..6),
        (0u32..48, 0u32..12, -1i32..13),
    )
        .prop_map(|(kind, seg, k, picks, (t, n, s))| match kind {
            0..=3 => Op::Insert(seg),
            4 => Op::InsertCopy(k),
            5..=6 => Op::Remove(k),
            7 => Op::RemoveUnknown(k, seg),
            8 => Op::RemoveBatch(picks),
            9..=11 => Op::Collide(seg),
            _ => Op::FreePoint(t, n, s),
        })
}

fn pick<T>(list: &[T], k: usize) -> Option<&T> {
    (!list.is_empty()).then(|| &list[k % list.len()])
}

/// Drop one copy of `seg` from the multiset model; `false` when it holds
/// none.
fn drop_copy(model: &mut Vec<Segment>, seg: &Segment) -> bool {
    let Some(at) = model.iter().position(|s| s == seg) else {
        return false;
    };
    model.swap_remove(at);
    true
}
