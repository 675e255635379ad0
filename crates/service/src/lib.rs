//! `carp-service`: a multi-tenant online planning daemon around any
//! [`Planner`].
//!
//! The simulator in `carp-simenv` drives planners in a closed single-thread
//! loop; this crate turns planners into a *daemon*: a [`TenantRegistry`]
//! of per-warehouse [`Tenant`]s (each a planner behind its commit lock,
//! with per-request planning deadlines and fixed-bucket latency
//! percentiles), fronted by a shared ingest layer ([`ingest`]) that
//! decodes framed requests of a length-prefixed binary wire protocol
//! ([`wire`]) and runs each one to completion on its tenant — the
//! canonical surface, spoken identically over an in-process duplex
//! transport and over TCP, where the `poll(2)` event loop (`mux`, unix
//! only) serves `carp-service --listen`. A
//! deterministic load generator ([`loadgen`]) replays the paper's
//! W-1/W-2/W-3 day profiles through the wire path — one tenant or several
//! concurrently — and emits the per-tenant `BENCH_service.json` report
//! consumed by the CI perf job.
//!
//! Commitment of a route is a linearization point in the online CARP model
//! (Definition 3): routes are committed one at a time against the state left
//! by all earlier commits. Each tenant plans and commits under one lock, on
//! the thread that decoded the request's frame, so admission order alone
//! fixes the committed route set.
//!
//! [`Planner`]: carp_warehouse::planner::Planner

// `deny`, not `forbid`: the mux reactor's `poll(2)` FFI shim ([`mux::sys`])
// is the single, explicitly allowed unsafe island in the crate — everything
// else still refuses `unsafe` at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod ingest;
pub mod loadgen;
#[cfg(unix)]
pub mod mux;
pub mod report;
pub mod service;
pub mod tenant;
pub mod wal;
pub mod wire;

pub use histogram::{LatencyHistogram, LatencySummary};
pub use ingest::{duplex, serve_connection, RateLimit};
#[cfg(unix)]
pub use loadgen::{run_connection_ladder, run_load_replication};
pub use loadgen::{
    run_load, run_load_journaled, run_load_multi, run_load_recovery, LoadScenario, RecoveryRun,
    TenantLoad,
};
#[cfg(unix)]
pub use mux::{serve_tcp_mux, MuxConfig, MuxMetrics};
pub use report::{
    routes_digest, ConnLadderRung, LoadReport, MuxBenchReport, MuxCounters, RecoveryBenchReport,
    ReplicationBenchReport, ServiceBenchReport, BENCH_VERSION,
};
pub use service::{PlanResponse, ServiceConfig, ServiceMetrics, SubmitError};
pub use tenant::{Tenant, TenantRegistry, WarehouseId, WireCounters, WireTally};
pub use wal::{TenantJournal, WalJournal};
pub use wire::{WireClient, WireError, WireSubmitError};
