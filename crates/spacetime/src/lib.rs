//! Grid-level space-time planning substrate.
//!
//! The baselines the paper compares against (SAP, RP, TWP, ACP — §VIII-A)
//! all search the 3-dimensional space (2-D grid + 1-D time) that the paper
//! identifies as the efficiency bottleneck. This crate implements that
//! substrate faithfully:
//!
//! * [`reservation::Occupancy`] — the vertex/move oracle space-time A\*
//!   searches against;
//! * [`reservation::ReservationTable`] — per-(cell, time) and per-(edge,
//!   time) occupancy of committed routes, split into an exclusive hard
//!   layer (within-window, asserted) and a multi-owner soft layer
//!   (beyond-window optimism of windowed planners);
//! * [`astar`] — space-time A\* with wait moves, reservation awareness and
//!   CBS constraints (Hart et al. \[7\], the engine of all baselines);
//! * [`cbs`] — Conflict-Based Search (Sharon et al. \[2\]), the "offline
//!   optimal method" the RP baseline replans conflicting groups with.
//!
//! SRP itself uses this crate only for its rare fallback path (§VI remarks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod cbs;
pub mod reservation;

pub use astar::{AStarConfig, AStarStats, SpaceTimeAStar};
pub use cbs::{CbsConfig, CbsSolver};
pub use reservation::{Occupancy, ReservationTable};
