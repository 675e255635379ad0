//! Segment collision tests.
//!
//! Two implementations live here:
//!
//! * [`collide_paper`] / [`collision_time_paper`] — the paper's Eq. (2)
//!   cross-product intersection test and Eq. (3) collision-time formula,
//!   kept verbatim for fidelity and benchmarked against the exact test;
//! * [`earliest_collision`] — an **exact integer** test of the discrete
//!   collision semantics (Definition 3) on the segment representation. The
//!   continuous Eq. (2) uses strict inequalities and therefore misses
//!   endpoint-touching and collinear-overlap cases that *are* vertex
//!   conflicts in the discrete model; the planner uses the exact test (see
//!   DESIGN.md §3).
//!
//! Exactness argument: restricted to one strip, robots are linear motions
//! with slopes in {−1, 0, 1}. For segments `φ, ψ` overlapping in time on
//! `[lo, hi]`, the difference `d(t) = φ(t) − ψ(t)` is linear with slope
//! `k_φ − k_ψ ∈ {−2..2}`. A **vertex conflict** is an integer root of
//! `d(t) = 0` in `[lo, hi]`; a **swap conflict** requires opposite unit
//! slopes and an integer `t ∈ [lo, hi−1]` with `d(t) = k_ψ` (the robots
//! cross between `t` and `t+1`). Both reduce to exact integer divisions,
//! and both are skipped when the linear function has the same strict sign
//! at both ends of its interval — then it has no real root there, let
//! alone an integer one.

use crate::segment::Segment;
use carp_warehouse::types::Time;

/// Kind of a segment-level collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollisionKind {
    /// Same grid number at the same integer time (Fig. 6(a)).
    Vertex,
    /// Opposite-slope segments crossing between integer times (Fig. 6(b));
    /// the reported time is the floor, as in Eq. (3).
    Swap,
}

/// A collision between two segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegCollision {
    /// Collision time (floored for swaps, per Eq. (3)).
    pub time: Time,
    /// Vertex or swap.
    pub kind: CollisionKind,
}

impl SegCollision {
    /// Ordering key: a swap at `t` happens at `t + ½`, strictly after a
    /// vertex at `t` and strictly before one at `t + 1`.
    #[inline]
    fn order_key(&self) -> u64 {
        (self.time as u64) << 1 | matches!(self.kind, CollisionKind::Swap) as u64
    }

    /// The earlier of two optional collisions.
    pub fn min_opt(a: Option<SegCollision>, b: Option<SegCollision>) -> Option<SegCollision> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if x.order_key() <= y.order_key() { x } else { y }),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// Exact earliest collision between two segments under the discrete
/// semantics of Definition 3, or `None` when they are compatible.
pub fn earliest_collision(phi: &Segment, psi: &Segment) -> Option<SegCollision> {
    let lo = phi.t0.max(psi.t0);
    let hi = phi.t1.min(psi.t1);
    if lo > hi {
        return None;
    }
    let kp = phi.slope() as i64;
    let kq = psi.slope() as i64;
    // d(t) = phi(t) - psi(t); evaluate at lo, which lies in both spans.
    let d_lo =
        (phi.s0 as i64 + kp * (lo - phi.t0) as i64) - (psi.s0 as i64 + kq * (lo - psi.t0) as i64);
    let dd = kp - kq;
    let span = (hi - lo) as i64;

    // d is linear on the overlap, so a root needs a sign change (or a zero)
    // between the interval's ends. Rejecting on the endpoint signs is exact
    // and spares the far-apart majority the division of `linear_root`.
    let d_hi = d_lo + dd * span;
    let vertex = if d_lo.signum() * d_hi.signum() > 0 {
        None
    } else {
        linear_root(d_lo, dd, 0, span).map(|off| SegCollision {
            time: lo + off as Time,
            kind: CollisionKind::Vertex,
        })
    };

    // A swap is a root of d − k_ψ on [lo, hi − 1]; same reject.
    let swap = if kp == -kq && kp != 0 && hi > lo {
        let (e_lo, e_end) = (d_lo - kq, d_hi - dd - kq);
        if e_lo.signum() * e_end.signum() > 0 {
            None
        } else {
            linear_root(d_lo, dd, kq, span - 1).map(|off| SegCollision {
                time: lo + off as Time,
                kind: CollisionKind::Swap,
            })
        }
    } else {
        None
    };

    SegCollision::min_opt(vertex, swap)
}

/// Smallest integer `x ∈ [0, max_off]` with `d_lo + dd·x = target`.
#[inline]
fn linear_root(d_lo: i64, dd: i64, target: i64, max_off: i64) -> Option<i64> {
    if max_off < 0 {
        return None;
    }
    let num = target - d_lo;
    if dd == 0 {
        return (num == 0).then_some(0);
    }
    (num % dd == 0)
        .then(|| num / dd)
        .filter(|&x| (0..=max_off).contains(&x))
}

/// `true` when the two segments collide (exact test).
pub fn collide_exact(phi: &Segment, psi: &Segment) -> bool {
    earliest_collision(phi, psi).is_some()
}

/// The paper's Eq. (2): proper-crossing test via cross products, applied
/// after the time-range overlap prefilter. Strict inequalities — endpoint
/// touching and collinear overlap report `false` (see module docs).
pub fn collide_paper(phi: &Segment, psi: &Segment) -> bool {
    if phi.t0.max(psi.t0) > phi.t1.min(psi.t1) {
        return false;
    }
    let (ps, pf) = (
        (phi.t0 as i64, phi.s0 as i64),
        (phi.t1 as i64, phi.s1 as i64),
    );
    let (qs, qf) = (
        (psi.t0 as i64, psi.s0 as i64),
        (psi.t1 as i64, psi.s1 as i64),
    );
    let cross = |a: (i64, i64), b: (i64, i64)| a.0 * b.1 - a.1 * b.0;
    let sub = |a: (i64, i64), b: (i64, i64)| (a.0 - b.0, a.1 - b.1);
    // ((s_φ−f_ψ)×(s_ψ−f_ψ)) · ((f_φ−f_ψ)×(s_ψ−f_ψ)) < 0
    let side_a = cross(sub(ps, qf), sub(qs, qf)) * cross(sub(pf, qf), sub(qs, qf)) < 0;
    // ((f_ψ−f_φ)×(s_φ−f_φ)) · ((s_ψ−f_φ)×(s_φ−f_φ)) < 0
    let side_b = cross(sub(qf, pf), sub(ps, pf)) * cross(sub(qs, pf), sub(ps, pf)) < 0;
    side_a && side_b
}

/// The paper's Eq. (3): collision time of two opposite-slope segments,
/// `⌊(s_φ\[0\] + s_ψ\[0\] + |s_φ\[1\] − s_ψ\[1\]|) / 2⌋`.
///
/// Valid for slopes (1, −1) in either order; the floor returns the earlier
/// integer time for swap conflicts (Fig. 6(b)).
pub fn collision_time_paper(phi: &Segment, psi: &Segment) -> Time {
    let sum = phi.t0 as i64 + psi.t0 as i64 + (phi.s0 as i64 - psi.s0 as i64).abs();
    (sum / 2) as Time
}

/// Brute-force reference implementation: expand both segments to their
/// discrete `(time, grid)` occupancy and apply Definition 3 directly.
/// Exposed for property tests across the workspace; never used on hot paths.
pub fn earliest_collision_reference(phi: &Segment, psi: &Segment) -> Option<SegCollision> {
    let lo = phi.t0.max(psi.t0);
    let hi = phi.t1.min(psi.t1);
    if lo > hi {
        return None;
    }
    let mut best: Option<SegCollision> = None;
    for t in lo..=hi {
        let (a, b) = (phi.pos_at(t).unwrap(), psi.pos_at(t).unwrap());
        if a == b {
            best = SegCollision::min_opt(
                best,
                Some(SegCollision {
                    time: t,
                    kind: CollisionKind::Vertex,
                }),
            );
        }
        if t < hi {
            let (na, nb) = (phi.pos_at(t + 1).unwrap(), psi.pos_at(t + 1).unwrap());
            if a == nb && b == na && a != na {
                best = SegCollision::min_opt(
                    best,
                    Some(SegCollision {
                        time: t,
                        kind: CollisionKind::Swap,
                    }),
                );
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_on_crossing_is_swap_at_half_time() {
        // φ: forward 0→3 over t=0..3; ψ: backward 3→0 — cross at t=1.5.
        let phi = Segment::travel(0, 0, 3);
        let psi = Segment::travel(0, 3, 0);
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(c.kind, CollisionKind::Swap);
        assert_eq!(c.time, 1);
        assert_eq!(collision_time_paper(&phi, &psi), 1);
        assert!(collide_paper(&phi, &psi));
    }

    #[test]
    fn head_on_meeting_is_vertex_at_integer_time() {
        // φ: 0→4, ψ: 4→0 — meet exactly at (t=2, s=2).
        let phi = Segment::travel(0, 0, 4);
        let psi = Segment::travel(0, 4, 0);
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(c.kind, CollisionKind::Vertex);
        assert_eq!(c.time, 2);
        assert_eq!(collision_time_paper(&phi, &psi), 2);
        assert!(collide_paper(&phi, &psi));
    }

    #[test]
    fn mover_hits_waiter() {
        // ψ waits at s=5 over t=0..10; φ moves 0→9 reaching s=5 at t=5.
        let phi = Segment::travel(0, 0, 9);
        let psi = Segment::wait(0, 10, 5);
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(
            c,
            SegCollision {
                time: 5,
                kind: CollisionKind::Vertex
            }
        );
    }

    #[test]
    fn parallel_same_line_overlap_is_vertex() {
        // Both move forward on the same line, overlapping in time: the
        // follower occupies the leader's cells at the same instants.
        let phi = Segment::travel(0, 0, 5);
        let psi = Segment::travel(2, 2, 7); // same line s = t
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(c.kind, CollisionKind::Vertex);
        assert_eq!(c.time, 2);
        // Eq. (2) misses collinear overlap (documented limitation).
        assert!(!collide_paper(&phi, &psi));
    }

    #[test]
    fn parallel_shifted_lines_never_collide() {
        let phi = Segment::travel(0, 0, 5);
        let psi = Segment::travel(0, 1, 6); // one cell ahead, same slope
        assert_eq!(earliest_collision(&phi, &psi), None);
        assert!(!collide_paper(&phi, &psi));
    }

    #[test]
    fn endpoint_touch_is_vertex_conflict() {
        // φ ends at (t=3, s=3); ψ starts at (t=3, s=3): both robots occupy
        // grid 3 at time 3 — a real vertex conflict the strict Eq. (2) misses.
        let phi = Segment::travel(0, 0, 3);
        let psi = Segment::travel(3, 3, 6);
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(
            c,
            SegCollision {
                time: 3,
                kind: CollisionKind::Vertex
            }
        );
        assert!(!collide_paper(&phi, &psi));
    }

    #[test]
    fn disjoint_times_no_collision() {
        let phi = Segment::travel(0, 0, 3);
        let psi = Segment::travel(10, 3, 0);
        assert_eq!(earliest_collision(&phi, &psi), None);
        assert!(!collide_paper(&phi, &psi));
    }

    #[test]
    fn two_waiters_same_cell_collide() {
        let phi = Segment::wait(0, 5, 2);
        let psi = Segment::wait(3, 8, 2);
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(
            c,
            SegCollision {
                time: 3,
                kind: CollisionKind::Vertex
            }
        );
    }

    #[test]
    fn two_waiters_different_cells_do_not() {
        let phi = Segment::wait(0, 5, 2);
        let psi = Segment::wait(0, 5, 3);
        assert_eq!(earliest_collision(&phi, &psi), None);
    }

    #[test]
    fn point_segment_on_path_collides() {
        let phi = Segment::travel(0, 0, 5);
        let psi = Segment::point(3, 3);
        assert_eq!(
            earliest_collision(&phi, &psi),
            Some(SegCollision {
                time: 3,
                kind: CollisionKind::Vertex
            })
        );
    }

    #[test]
    fn adjacent_cells_opposite_slopes_swap() {
        // φ at s=0 moving to 1 at t=0..1; ψ at s=1 moving to 0 — pure swap.
        let phi = Segment::travel(0, 0, 1);
        let psi = Segment::travel(0, 1, 0);
        let c = earliest_collision(&phi, &psi).expect("collide");
        assert_eq!(
            c,
            SegCollision {
                time: 0,
                kind: CollisionKind::Swap
            }
        );
    }

    #[test]
    fn exact_matches_reference_on_crafted_cases() {
        let cases = [
            (Segment::travel(0, 0, 8), Segment::travel(2, 8, 0)),
            (Segment::travel(5, 3, 9), Segment::wait(0, 20, 7)),
            (Segment::wait(0, 3, 1), Segment::travel(0, 4, 0)),
            (Segment::point(2, 2), Segment::point(2, 2)),
            (Segment::point(2, 2), Segment::point(3, 2)),
            (Segment::travel(0, 0, 6), Segment::travel(1, 0, 6)),
            // Touching endpoints: d = 0 at the start, at the end, or both.
            (Segment::travel(0, 2, 6), Segment::wait(0, 9, 2)),
            (Segment::travel(0, 0, 4), Segment::wait(0, 4, 4)),
            (Segment::travel(0, 0, 3), Segment::travel(3, 3, 0)),
            (Segment::travel(0, 0, 3), Segment::wait(3, 5, 3)),
            // A swap on the last step of the overlap (d − k_ψ = 0 at hi − 1).
            (Segment::travel(0, 0, 4), Segment::travel(1, 6, 3)),
            (Segment::travel(1, 6, 3), Segment::travel(0, 0, 4)),
            // A swap on the first step (d − k_ψ = 0 at lo).
            (Segment::travel(0, 0, 5), Segment::travel(2, 3, 0)),
            // Collinear overlap (dd = 0): same line, and one cell apart.
            (Segment::travel(0, 0, 6), Segment::travel(2, 2, 8)),
            (Segment::travel(0, 6, 0), Segment::travel(3, 3, 0)),
            (Segment::travel(0, 0, 6), Segment::travel(0, 1, 7)),
            (Segment::wait(0, 5, 2), Segment::wait(5, 9, 2)),
            // Point against point, and point against a waiter.
            (Segment::point(4, 1), Segment::point(4, 2)),
            (Segment::point(4, 1), Segment::wait(0, 4, 1)),
            (Segment::point(4, 1), Segment::travel(0, 5, 1)),
            // Opposite slopes that would meet between integer times just
            // past the overlap, or just before it.
            (Segment::travel(0, 0, 2), Segment::travel(1, 4, 1)),
            (Segment::travel(0, 0, 2), Segment::travel(1, 3, 0)),
            (Segment::travel(2, 0, 3), Segment::travel(0, 4, 0)),
        ];
        for (a, b) in cases {
            assert_eq!(
                earliest_collision(&a, &b),
                earliest_collision_reference(&a, &b),
                "mismatch for {a} vs {b}"
            );
        }
    }

    #[test]
    fn collision_is_symmetric() {
        let phi = Segment::travel(0, 0, 8);
        let psi = Segment::travel(2, 8, 0);
        assert_eq!(
            earliest_collision(&phi, &psi),
            earliest_collision(&psi, &phi)
        );
    }

    #[test]
    fn eq3_matches_fig6_floor_convention() {
        // Fig. 6(b): swap between t and t+1 must report the earlier time.
        let phi = Segment::travel(0, 0, 1);
        let psi = Segment::travel(0, 1, 0);
        assert_eq!(collision_time_paper(&phi, &psi), 0);
    }
}
