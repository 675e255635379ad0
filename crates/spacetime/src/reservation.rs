//! Reservation tables: the grid-level collision state of the baseline
//! planners.
//!
//! A committed route reserves every `(cell, time)` it occupies (vertex
//! conflicts, Fig. 1(a)) and every directed `(from, to, time)` motion it
//! performs (swap conflicts, Fig. 1(b)). This is the 3-D structure whose
//! size — `O(route length)` entries per route — explains the memory gap to
//! SRP's two-endpoints-per-segment representation (§VIII-B).
//!
//! # Two layers: hard and soft
//!
//! The table is split along the *commitment horizon* of windowed planners
//! (TWP's RHCR scheme \[5\]; the same invariant Hvězda et al. keep in
//! context-aware reservation planning):
//!
//! * the **hard layer** holds reservations at `t < hard_until` of the
//!   booking call. These were verified free by the search that produced
//!   the route, so they are *exclusive by construction*: a cross-owner
//!   overwrite is a planner bug and is asserted on, never counted.
//! * the **soft layer** holds the optimistic beyond-window tail
//!   (`t >= hard_until`). It is an owner-keyed multimap: several owners may
//!   deliberately book the same `(cell, t)` or motion — exactly the
//!   deferred conflicts a later window slide repairs — and releasing one
//!   owner never drops a peer's booking. Each slide *promotes* soft
//!   bookings into the hard layer by replanning the route under the new
//!   window (withdraw + windowed re-commit), so promotion inherits the
//!   hard layer's by-construction exclusivity.
//!
//! Queries ([`ReservationTable::vertex_free`],
//! [`ReservationTable::move_free`]) consult *both* layers, so a search
//! bounded by its collision horizon avoids peers' optimistic tails inside
//! its own window — the behaviour that keeps within-window planning
//! consistent while beyond-window bookings stay deliberately overlapping.
//!
//! Non-windowed planners (SAP, SIPP, ACP, RP) book with
//! `hard_until = Time::MAX`: everything is hard and any double booking
//! trips the assert immediately.

use carp_warehouse::memory;
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::collections::HashMap;

/// Tag identifying the owner of a reservation (the request id).
pub type Tag = u64;

/// The two questions space-time A\* asks of the committed traffic. A
/// [`ReservationTable`] answers them from its own keys; SRP's fallback
/// answers them straight from its segment stores and crossing set.
pub trait Occupancy {
    /// Whether `cell` is unoccupied at time `t`.
    fn vertex_free(&self, cell: Cell, t: Time) -> bool;

    /// Whether moving `from → to` departing at `t` is free of both the
    /// target-vertex conflict (at `t + 1`) and the swap conflict (someone
    /// moving `to → from` at `t`). Callers only ask from a free `(from, t)`.
    fn move_free(&self, from: Cell, to: Cell, t: Time) -> bool;
}

/// Space-time reservation table with a hard (exclusive, within-window) and
/// a soft (multi-owner, beyond-window) layer.
#[derive(Debug, Default, Clone)]
pub struct ReservationTable {
    /// Hard `(cell, t)` → owner. Exclusive by construction.
    vertices: HashMap<(Cell, Time), Tag>,
    /// Hard directed motions `(from, to, t)` → owner, where the owner moves
    /// from `from` at `t` to `to` at `t + 1`. Exclusive by construction.
    edges: HashMap<(Cell, Cell, Time), Tag>,
    /// Soft `(cell, t)` → owners: optimistic beyond-window bookings, where
    /// multi-owner overlap is legal (deferred conflicts).
    soft_vertices: HashMap<(Cell, Time), Vec<Tag>>,
    /// Soft motions → owners.
    soft_edges: HashMap<(Cell, Cell, Time), Vec<Tag>>,
    /// Cumulative soft-layer bookings (see
    /// [`ReservationTable::soft_bookings`]).
    soft_bookings: u64,
}

impl Occupancy for ReservationTable {
    #[inline]
    fn vertex_free(&self, cell: Cell, t: Time) -> bool {
        ReservationTable::vertex_free(self, cell, t)
    }

    #[inline]
    fn move_free(&self, from: Cell, to: Cell, t: Time) -> bool {
        ReservationTable::move_free(self, from, to, t)
    }
}

impl ReservationTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `cell` is free at time `t` in *both* layers.
    #[inline]
    pub fn vertex_free(&self, cell: Cell, t: Time) -> bool {
        !self.vertices.contains_key(&(cell, t)) && !self.soft_vertices.contains_key(&(cell, t))
    }

    /// Whether moving `from → to` departing at time `t` is free of both the
    /// target-vertex conflict (at `t + 1`) and the swap conflict (someone
    /// moving `to → from` at `t`), in both layers.
    #[inline]
    pub fn move_free(&self, from: Cell, to: Cell, t: Time) -> bool {
        self.vertex_free(to, t + 1)
            && !self.edges.contains_key(&(to, from, t))
            && !self.soft_edges.contains_key(&(to, from, t))
    }

    /// Hard-layer owner of the reservation at `(cell, t)`, if any.
    pub fn vertex_owner(&self, cell: Cell, t: Time) -> Option<Tag> {
        self.vertices.get(&(cell, t)).copied()
    }

    /// Soft-layer owners booked at `(cell, t)` (empty when none).
    pub fn soft_vertex_owners(&self, cell: Cell, t: Time) -> &[Tag] {
        self.soft_vertices
            .get(&(cell, t))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Reserve every vertex and motion of `route` for `tag`, entirely in
    /// the hard layer (`hard_until = Time::MAX`) — the contract of every
    /// planner that pre-checks its commits against the table.
    pub fn reserve(&mut self, route: &Route, tag: Tag) {
        self.reserve_windowed(route, tag, 0, Time::MAX);
    }

    /// Reserve `route` for `tag` with the window split at `hard_until`
    /// (exclusive): keys at `t < hard_until` go to the hard layer and must
    /// be free (the search verified them — a cross-owner occupant is a bug
    /// and asserts); keys at `t >= hard_until` are optimistic and go to the
    /// soft multimap, where overlap with other owners is legal.
    ///
    /// Keys at `t < active_from` are *history* and are not booked at all:
    /// when a windowed planner recommits a repaired route, its travelled
    /// prefix describes motion that already happened. No search ever
    /// queries the past, and hard-layer exclusivity cannot be enforced
    /// retroactively — under sparse `advance` schedules a deferred soft
    /// conflict can come due with no repair opportunity, and the execution
    /// collision (the audit's to count, not this table's) would put the
    /// same past key in two routes' prefixes. Booking only `t >=
    /// active_from` keeps the table a statement about the *future* and
    /// prunes dead keys as a side effect.
    pub fn reserve_windowed(
        &mut self,
        route: &Route,
        tag: Tag,
        active_from: Time,
        hard_until: Time,
    ) {
        self.insert(route, tag, active_from, hard_until, true);
    }

    /// Re-book a withdrawn route exactly as it was held before (same
    /// `hard_until`), without counting its soft keys as new bookings. This
    /// is the failed-repair path of windowed planners: the route's state
    /// does not change, so the optimism metrics must not inflate. History
    /// (`t < active_from`) is dropped, as in
    /// [`ReservationTable::reserve_windowed`].
    pub fn restore_windowed(
        &mut self,
        route: &Route,
        tag: Tag,
        active_from: Time,
        hard_until: Time,
    ) {
        self.insert(route, tag, active_from, hard_until, false);
    }

    fn insert(
        &mut self,
        route: &Route,
        tag: Tag,
        active_from: Time,
        hard_until: Time,
        count: bool,
    ) {
        for (t, cell) in route.occupancy() {
            if t < active_from {
                continue;
            }
            if t < hard_until {
                let prev = self.vertices.insert((cell, t), tag);
                assert!(
                    prev.is_none() || prev == Some(tag),
                    "hard-layer vertex double booking at {cell:?} t={t}: \
                     owned by {prev:?}, incoming owner {tag}"
                );
            } else {
                let owners = self.soft_vertices.entry((cell, t)).or_default();
                if !owners.contains(&tag) {
                    owners.push(tag);
                    if count {
                        self.soft_bookings += 1;
                    }
                }
            }
        }
        for (k, w) in route.grids.windows(2).enumerate() {
            if w[0] == w[1] {
                continue;
            }
            let t = route.start + k as Time;
            if t < active_from {
                // A motion departing before `active_from` already happened.
                continue;
            }
            if t < hard_until {
                let prev = self.edges.insert((w[0], w[1], t), tag);
                assert!(
                    prev.is_none() || prev == Some(tag),
                    "hard-layer edge double booking {:?}->{:?} t={t}: \
                     owned by {prev:?}, incoming owner {tag}",
                    w[0],
                    w[1],
                );
            } else {
                let owners = self.soft_edges.entry((w[0], w[1], t)).or_default();
                if !owners.contains(&tag) {
                    owners.push(tag);
                    if count {
                        self.soft_bookings += 1;
                    }
                }
            }
        }
    }

    /// Release every reservation `route` holds for `tag`, in both layers.
    /// Entries owned by other tags — including soft co-bookings on the same
    /// keys — are left untouched: a release can never unprotect a peer.
    pub fn release(&mut self, route: &Route, tag: Tag) {
        for (t, cell) in route.occupancy() {
            if self.vertices.get(&(cell, t)) == Some(&tag) {
                self.vertices.remove(&(cell, t));
            }
            if let Some(owners) = self.soft_vertices.get_mut(&(cell, t)) {
                owners.retain(|&o| o != tag);
                if owners.is_empty() {
                    self.soft_vertices.remove(&(cell, t));
                }
            }
        }
        for (k, w) in route.grids.windows(2).enumerate() {
            if w[0] == w[1] {
                continue;
            }
            let key = (w[0], w[1], route.start + k as Time);
            if self.edges.get(&key) == Some(&tag) {
                self.edges.remove(&key);
            }
            if let Some(owners) = self.soft_edges.get_mut(&key) {
                owners.retain(|&o| o != tag);
                if owners.is_empty() {
                    self.soft_edges.remove(&key);
                }
            }
        }
    }

    /// Cumulative count of soft-layer (beyond-window) bookings (monotone;
    /// restores after failed repairs do not count). Zero for planners that
    /// only commit fully-checked routes (SAP, SIPP, ACP, RP); positive
    /// under TWP's optimistic beyond-window commits, where it measures how
    /// much optimism the window slides are asked to promote.
    pub fn soft_bookings(&self) -> u64 {
        self.soft_bookings
    }

    /// Number of soft `(key, owner)` bookings at `t < window_end`: optimism
    /// that a repair round should already have promoted into the hard layer
    /// but could not (failed repairs). Zero whenever every repair up to
    /// `window_end` succeeded.
    pub fn window_debt(&self, window_end: Time) -> u64 {
        let vertices: usize = self
            .soft_vertices
            .iter()
            .filter(|((_, t), _)| *t < window_end)
            .map(|(_, owners)| owners.len())
            .sum();
        let edges: usize = self
            .soft_edges
            .iter()
            .filter(|((_, _, t), _)| *t < window_end)
            .map(|(_, owners)| owners.len())
            .sum();
        (vertices + edges) as u64
    }

    /// Number of vertex reservations (hard + soft keys).
    pub fn len(&self) -> usize {
        self.vertices.len() + self.soft_vertices.len()
    }

    /// Whether the table holds no reservations in either layer.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
            && self.edges.is_empty()
            && self.soft_vertices.is_empty()
            && self.soft_edges.is_empty()
    }

    /// Estimated heap bytes (MC metric).
    pub fn memory_bytes(&self) -> usize {
        memory::hashmap_bytes(&self.vertices)
            + memory::hashmap_bytes(&self.edges)
            + memory::hashmap_bytes(&self.soft_vertices)
            + memory::hashmap_bytes(&self.soft_edges)
            + self
                .soft_vertices
                .values()
                .map(|v| v.capacity() * core::mem::size_of::<Tag>())
                .sum::<usize>()
            + self
                .soft_edges
                .values()
                .map(|v| v.capacity() * core::mem::size_of::<Tag>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(start: Time, pairs: &[(u16, u16)]) -> Route {
        Route::new(start, pairs.iter().map(|&(r, c)| Cell::new(r, c)).collect())
    }

    #[test]
    fn reserve_blocks_vertices_and_swaps() {
        let mut rt = ReservationTable::new();
        rt.reserve(&route(0, &[(0, 0), (0, 1), (0, 2)]), 1);
        // Vertex occupancy.
        assert!(!rt.vertex_free(Cell::new(0, 1), 1));
        assert!(rt.vertex_free(Cell::new(0, 1), 0));
        // Swap: moving (0,1) -> (0,0) departing at t=0 crosses the reserved
        // (0,0) -> (0,1) motion.
        assert!(!rt.move_free(Cell::new(0, 1), Cell::new(0, 0), 0));
        // Following one step behind is fine.
        assert!(rt.move_free(Cell::new(0, 0), Cell::new(0, 1), 2));
    }

    #[test]
    fn move_free_checks_target_vertex() {
        let mut rt = ReservationTable::new();
        rt.reserve(&route(0, &[(0, 2), (0, 2)]), 1);
        assert!(!rt.move_free(Cell::new(0, 1), Cell::new(0, 2), 0));
        assert!(rt.move_free(Cell::new(0, 1), Cell::new(0, 2), 1));
    }

    #[test]
    fn release_is_exact_inverse() {
        let mut rt = ReservationTable::new();
        let r1 = route(0, &[(0, 0), (0, 1)]);
        let r2 = route(5, &[(0, 0), (1, 0)]);
        rt.reserve(&r1, 1);
        rt.reserve(&r2, 2);
        rt.release(&r1, 1);
        assert!(rt.vertex_free(Cell::new(0, 1), 1));
        assert!(
            !rt.vertex_free(Cell::new(0, 0), 5),
            "other owner must survive"
        );
        rt.release(&r2, 2);
        assert!(rt.is_empty());
    }

    #[test]
    fn release_ignores_foreign_tags() {
        let mut rt = ReservationTable::new();
        let r = route(0, &[(0, 0), (0, 1)]);
        rt.reserve(&r, 1);
        rt.release(&r, 99);
        assert!(!rt.vertex_free(Cell::new(0, 0), 0));
    }

    #[test]
    fn waiting_reserves_no_edges() {
        let mut rt = ReservationTable::new();
        rt.reserve(&route(0, &[(3, 3), (3, 3), (3, 3)]), 7);
        assert_eq!(rt.len(), 3);
        assert!(rt.move_free(Cell::new(3, 4), Cell::new(3, 5), 0));
        // But the waited-on cell is vertex-blocked.
        assert!(!rt.move_free(Cell::new(3, 4), Cell::new(3, 3), 0));
    }

    #[test]
    #[should_panic(expected = "hard-layer vertex double booking")]
    fn hard_layer_cross_owner_overwrite_asserts() {
        let mut rt = ReservationTable::new();
        rt.reserve(&route(0, &[(0, 0), (0, 1), (0, 2)]), 1);
        // A second owner booking the same corridor in the hard layer is a
        // planner bug, not a countable event.
        rt.reserve(&route(0, &[(0, 0), (0, 1), (0, 2)]), 2);
    }

    #[test]
    fn hard_layer_same_owner_rebooking_is_idempotent() {
        let mut rt = ReservationTable::new();
        let r = route(0, &[(0, 0), (0, 1), (0, 2)]);
        rt.reserve(&r, 2);
        rt.reserve(&r, 2);
        assert_eq!(rt.vertex_owner(Cell::new(0, 1), 1), Some(2));
    }

    #[test]
    fn windowed_reserve_splits_layers_at_hard_until() {
        let mut rt = ReservationTable::new();
        // Keys at t < 2 are hard, the optimistic tail is soft.
        rt.reserve_windowed(&route(0, &[(0, 0), (0, 1), (0, 2), (0, 3)]), 5, 0, 2);
        assert_eq!(rt.vertex_owner(Cell::new(0, 1), 1), Some(5));
        assert_eq!(rt.vertex_owner(Cell::new(0, 2), 2), None);
        assert_eq!(rt.soft_vertex_owners(Cell::new(0, 2), 2), &[5]);
        // Both layers block queries identically.
        assert!(!rt.vertex_free(Cell::new(0, 1), 1));
        assert!(!rt.vertex_free(Cell::new(0, 2), 2));
        assert!(!rt.move_free(Cell::new(0, 3), Cell::new(0, 2), 2));
    }

    #[test]
    fn soft_booking_count_is_exact() {
        let mut rt = ReservationTable::new();
        // Route occupies t=0..3 over 4 cells with 3 motions; hard_until=2
        // leaves the vertices at t=2,3 and the motion departing at t=2 soft.
        rt.reserve_windowed(&route(0, &[(0, 0), (0, 1), (0, 2), (0, 3)]), 5, 0, 2);
        assert_eq!(rt.soft_bookings(), 3);
    }

    /// The steal-then-release hole (the bug class this table closes):
    /// owner A books a corridor, owner B books the same keys beyond the
    /// window, B releases — A's corridor must still be protected. On the
    /// old single-owner table B's booking overwrote A's keys and B's
    /// release removed them entirely, letting a third robot be planned
    /// straight through A's committed corridor.
    #[test]
    fn steal_then_release_keeps_earlier_owner_protected() {
        let mut rt = ReservationTable::new();
        let corridor = route(0, &[(0, 0), (0, 1), (0, 2), (0, 3)]);
        rt.reserve_windowed(&corridor, 1, 0, 0); // A: all beyond-window
        rt.reserve_windowed(&corridor, 2, 0, 0); // B: deliberate co-booking
        rt.release(&corridor, 2); // B withdraws
        for (t, cell) in corridor.occupancy() {
            assert!(
                !rt.vertex_free(cell, t),
                "B's release unprotected A's {cell:?} at t={t}"
            );
        }
        assert_eq!(rt.soft_vertex_owners(Cell::new(0, 2), 2), &[1]);
        // A's own release empties the table.
        rt.release(&corridor, 1);
        assert!(rt.is_empty());
    }

    #[test]
    fn restore_does_not_inflate_soft_bookings() {
        let mut rt = ReservationTable::new();
        let r = route(0, &[(0, 0), (0, 1), (0, 2)]);
        rt.reserve_windowed(&r, 1, 0, 0);
        let booked = rt.soft_bookings();
        assert!(booked > 0);
        // Withdraw + restore (the failed-repair round trip) is metric-neutral.
        rt.release(&r, 1);
        rt.restore_windowed(&r, 1, 0, 0);
        assert_eq!(rt.soft_bookings(), booked);
        assert!(!rt.vertex_free(Cell::new(0, 1), 1));
    }

    #[test]
    fn window_debt_counts_past_due_soft_bookings() {
        let mut rt = ReservationTable::new();
        // 3 soft vertices (t=0,1,2) + 2 soft edges (t=0,1).
        rt.reserve_windowed(&route(0, &[(0, 0), (0, 1), (0, 2)]), 1, 0, 0);
        assert_eq!(rt.window_debt(0), 0, "nothing is past due yet");
        assert_eq!(rt.window_debt(1), 2, "vertex + edge at t=0");
        assert_eq!(rt.window_debt(100), 5, "the whole tail is past due");
        // A co-booking doubles the debt on shared keys.
        rt.reserve_windowed(&route(0, &[(0, 0), (0, 1), (0, 2)]), 2, 0, 0);
        assert_eq!(rt.window_debt(100), 10);
        rt.release(&route(0, &[(0, 0), (0, 1), (0, 2)]), 2);
        assert_eq!(rt.window_debt(100), 5);
    }

    #[test]
    fn memory_tracks_population() {
        let mut rt = ReservationTable::new();
        let r = route(0, &[(0, 0), (0, 1), (0, 2), (0, 3)]);
        rt.reserve(&r, 1);
        assert!(rt.memory_bytes() > 0);
    }
}
