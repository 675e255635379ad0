//! The benchmark's workloads. Both are closed loops: one client thread
//! on one connection, a serial worker, deadlines off, and the lockstep
//! burst cadence of the service's load generator (submit every request of
//! one sim timestamp, collect the replies, then `advance`).

use carp_warehouse::layout::{Layout, LayoutConfig, WarehousePreset};
use carp_warehouse::types::Time;

/// Which warehouse a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `LayoutConfig::small()`: 12 robots, plans take microseconds.
    Small,
    /// The paper's W-2 warehouse.
    W2,
}

impl Preset {
    /// Generate the layout.
    pub fn layout(self) -> Layout {
        match self {
            Preset::Small => LayoutConfig::small().generate(),
            Preset::W2 => WarehousePreset::W2.generate(),
        }
    }
}

/// How the client reaches the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process `duplex` pipes served by `serve_connection`.
    Duplex,
    /// Loopback TCP served by the `mux` reactor with one reactor thread.
    TcpMux,
}

/// One workload: a warehouse, a day shape, and the daemon around it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Warehouse.
    pub preset: Preset,
    /// Arrival-rate multiplier.
    pub rate: f64,
    /// Client transport.
    pub transport: Transport,
    /// Whether the daemon journals every commit to a `WalJournal`.
    pub wal: bool,
    /// Tasks per day (three requests each, plus retries).
    pub tasks: u32,
    /// Day length in sim seconds before rate compression.
    pub horizon: Time,
    /// Wall seconds one untraced replay of a day takes, set-up, audit and
    /// probes included, on the reference host (see `METRICS.md`). It sets
    /// how many days fit in a run of a given length; the count is the same
    /// for every version of the program, so a faster program finishes
    /// sooner.
    pub day_s: f64,
}

impl Workload {
    /// Days in a run meant to last about `seconds` on the reference host:
    /// at least one.
    pub fn days(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.day_s).round() as usize).max(1)
    }
}

/// Every workload, in `BENCHMARK.json` order. Each exercises the layers the
/// other bypasses: `w2-4x` is planner-bound and has no reactor or journal
/// on its path; on `small-tcp-wal` plans take microseconds, so the reactor,
/// the wire and the journal do most of the work. The W-2 day keeps the
/// density of the service's reference day (200 tasks over 2000 s at 1×),
/// 1.5 times as long.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "w2-4x",
        preset: Preset::W2,
        rate: 4.0,
        transport: Transport::Duplex,
        wal: false,
        tasks: 300,
        horizon: 3000,
        day_s: 0.75,
    },
    Workload {
        name: "small-tcp-wal",
        preset: Preset::Small,
        rate: 1.0,
        transport: Transport::TcpMux,
        wal: true,
        tasks: 1000,
        horizon: 10000,
        day_s: 0.375,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Seed of day `j` of a run seeded with `seed`. Day 0 uses the seed itself.
pub fn day_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add(j as u64 * 1_000_003)
}
