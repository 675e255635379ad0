//! **Strip-based Route Planning (SRP)** — the primary contribution of
//! *"Collision-Aware Route Planning in Warehouses Made Efficient: A
//! Strip-based Framework"* (ICDE 2023).
//!
//! SRP plans collision-free routes for warehouse robots by exploiting the
//! regularity of warehouse layouts:
//!
//! 1. [`strip_graph`] aggregates the grid matrix into **strips** (rows or
//!    columns of same-value grids, Algorithm 1) and connects adjacent
//!    strips into the strip graph;
//! 2. [`intra`] plans routes *within* a strip by backtracking over
//!    space-time segments (Algorithm 2), with collision detection delegated
//!    to the exact geometry of `carp-geometry` (Eq. 2–4, Algorithm 3);
//! 3. [`planner`] runs the end-to-end search (Algorithm 4): a
//!    time-dependent shortest-path search over strips whose edge weights
//!    are produced by intra-strip planning, plus the rare grid-level A\*
//!    fallback;
//! 4. [`convert`] translates between grid routes and strip segments — the
//!    third cost component of Fig. 22(a).
//!
//! ```
//! use carp_srp::{SrpPlanner, SrpConfig};
//! use carp_warehouse::{Planner, Request, QueryKind, WarehouseMatrix, types::Cell};
//!
//! let matrix = WarehouseMatrix::from_ascii(
//!     ".....\n\
//!      .##..\n\
//!      .##..\n\
//!      .....");
//! let mut srp = SrpPlanner::new(matrix, SrpConfig::default());
//! let req = Request::new(0, 0, Cell::new(0, 0), Cell::new(3, 4), QueryKind::Pickup);
//! let outcome = srp.plan(&req);
//! assert!(outcome.route().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod intra;
mod lane_cursor;
mod mul_hash;
pub mod planner;
pub mod strip_graph;

pub use intra::{IntraConfig, IntraRoute};
pub use planner::{PlannerPath, Provenance, SrpConfig, SrpPlanner, SrpStats};
pub use strip_graph::{EdgeGeom, Strip, StripDir, StripEdge, StripGraph, StripId, StripKind};
