//! # srp-warehouse
//!
//! A full Rust reproduction of *"Collision-Aware Route Planning in
//! Warehouses Made Efficient: A Strip-based Framework"* (ICDE 2023):
//! the SRP planner, the grid-level substrate, the four baselines of the
//! paper's evaluation, and the online test environment that regenerates
//! its tables and figures.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`warehouse`] — the CARP problem domain: matrix, layouts, tasks,
//!   routes, conflict semantics, the [`warehouse::Planner`] trait;
//! * [`geometry`] — exact space-time segment geometry and the slope index;
//! * [`srp`] — the strip-based planner (the paper's contribution);
//! * [`spacetime`] — space-time A\*, reservation tables, CBS;
//! * [`baselines`] — SAP, RP, TWP, ACP;
//! * [`simenv`] — the day simulator and OG/TC/MC metrics;
//! * [`service`] — the online planning service (bounded queue,
//!   backpressure, deadlines) and its deterministic load generator.
//!
//! ## Quickstart
//!
//! ```
//! use srp_warehouse::prelude::*;
//!
//! // A tiny warehouse with one rack cluster.
//! let matrix = WarehouseMatrix::from_ascii(
//!     "......\n\
//!      .##...\n\
//!      .##...\n\
//!      ......");
//! let mut planner = SrpPlanner::new(matrix, SrpConfig::default());
//! let request = Request::new(0, 0, Cell::new(0, 0), Cell::new(3, 5), QueryKind::Pickup);
//! let route = planner.plan(&request).route().cloned().expect("collision-free route");
//! assert_eq!(route.destination(), Cell::new(3, 5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use carp_baselines as baselines;
pub use carp_geometry as geometry;
pub use carp_service as service;
pub use carp_simenv as simenv;
pub use carp_spacetime as spacetime;
pub use carp_srp as srp;
pub use carp_warehouse as warehouse;

/// Everything needed for typical use in one import.
pub mod prelude {
    pub use carp_baselines::{
        AcpConfig, AcpPlanner, RpConfig, RpPlanner, SapPlanner, TwpConfig, TwpPlanner,
    };
    pub use carp_geometry::{NaiveStore, Segment, SegmentStore, SlopeIndexStore};
    pub use carp_service::{LoadScenario, ServiceConfig, ServiceMetrics, TenantRegistry};
    pub use carp_simenv::{DayReport, ReproBundle, SimConfig, Simulation};
    pub use carp_spacetime::AStarConfig;
    pub use carp_srp::{PlannerPath, Provenance, SrpConfig, SrpPlanner, StripGraph};
    pub use carp_warehouse::layout::{LayoutConfig, WarehousePreset};
    pub use carp_warehouse::tasks::{generate_requests, generate_tasks, DayProfile};
    pub use carp_warehouse::types::Cell;
    pub use carp_warehouse::{
        AuditConflict, Conflict, ConflictKind, IncrementalAuditor, PlanOutcome, Planner, QueryKind,
        Request, Route, WarehouseMatrix,
    };
}
