//! Day-replay benchmark for the planning daemon.
//!
//! A run hosts the daemon in-process through the service crate's public
//! API (`TenantRegistry`, `duplex`/`serve_tcp_mux`, `WalJournal`,
//! `WireClient`) and replays a fixed number of warehouse days through the
//! wire, one after another. Every replay gets a fresh daemon, so set-up is
//! measured once per replay, and the host-speed probe runs before and after
//! it. After each replay the acked routes pass a batch collision audit.
//!
//! The traced run (`--trace 1`) follows each untraced replay with the
//! same day served by [`shim::TracedPlanner`] under
//! `SrpConfig::instrument`, which must reproduce the day's routes digest
//! and makespan bit for bit, and derives the per-layer metrics from the
//! traced replays only. See `METRICS.md` for what each metric measures.

pub mod affinity;
pub mod day;
pub mod metrics;
pub mod probe;
pub mod shim;
pub mod workload;

use day::{run_day, Day, Setup};
use std::path::Path;
use workload::{day_seed, Workload};

/// The replays of one kind (timed or traced) in a run. Timed replays keep
/// only their turnaround samples, so the harness's own memory stays small;
/// traced replays are kept whole for the spans and per-layer metrics.
#[derive(Debug, Default)]
pub struct Replays {
    /// Wall seconds of every replay's drive loop.
    pub walls: Vec<f64>,
    /// Every replay's host factor: [`probe::REFERENCE_S`] over the mean
    /// probe time before and after it. Below 1 when the host ran slow.
    pub factors: Vec<f64>,
    /// Requests submitted in every replay.
    pub requests: Vec<usize>,
    /// Client-side turnaround of every request of every replay, in ns,
    /// replay after replay.
    pub turnaround_ns: Vec<u64>,
    /// Set-up of every replay.
    pub setups: Vec<Setup>,
    /// Audit seconds of every replay.
    pub audits: Vec<f64>,
    /// Requests answered with a route over every replay.
    pub planned: usize,
    /// Legs abandoned after the retry budget over every replay.
    pub abandoned: u64,
    /// Every replay, whole (traced replays only).
    pub days: Vec<Day>,
}

impl Replays {
    fn add(&mut self, day: Day, factor: f64, keep: bool) {
        self.walls.push(day.wall_s);
        self.factors.push(factor);
        self.requests.push(day.requests.len());
        self.turnaround_ns
            .extend(day.requests.iter().map(|r| r.reply_ns - r.submit_ns));
        self.setups.push(day.setup);
        self.audits.push(day.audit_s);
        self.planned += day.planned();
        self.abandoned += day.abandoned;
        if keep {
            self.days.push(day);
        }
    }

    /// Requests submitted over every replay.
    pub fn submitted(&self) -> usize {
        self.requests.iter().sum()
    }

    /// Every turnaround sample, in ns, scaled to the reference host speed
    /// by its replay's factor.
    pub fn turnaround_at_reference_ns(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.turnaround_ns.len());
        let mut at = 0;
        for (&n, &f) in self.requests.iter().zip(&self.factors) {
            let replay = &self.turnaround_ns[at..at + n];
            out.extend(replay.iter().map(|&t| (t as f64 * f).round() as u64));
            at += n;
        }
        out
    }
}

/// One day of a run, as the gate first saw it.
#[derive(Debug, Clone, Copy)]
pub struct DayRef {
    /// Task-stream seed.
    pub seed: u64,
    /// Routes digest every replay must reproduce.
    pub digest: u64,
    /// Makespan every replay must reproduce, sim seconds.
    pub makespan: u32,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Each day's digest and makespan, in day order.
    pub days: Vec<DayRef>,
    /// Replays served by the bare planner.
    pub timed: Replays,
    /// Replays served by the traced planner (`--trace 1` only).
    pub traced: Replays,
    /// Correctness-gate failures, one line each.
    pub failures: Vec<String>,
}

impl Run {
    /// Whether every replay passed the gate.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Replay `days` days of `tasks` tasks each, seeded from `seed`, in day
/// order. With `trace`, a traced replay follows every untraced one.
pub fn run(
    workload: &Workload,
    tasks: u32,
    seed: u64,
    days: usize,
    trace: bool,
    scratch: &Path,
) -> Result<Run, String> {
    let mut out = Run::default();
    for j in 0..days {
        let seed = day_seed(seed, j);
        for traced in [false, true] {
            if traced && !trace {
                break;
            }
            let before = probe::probe_s();
            let day = run_day(workload, tasks, seed, traced, scratch)?;
            let factor = probe::REFERENCE_S * 2.0 / (before + probe::probe_s());
            gate(&day, j, &mut out.days, &mut out.failures);
            match traced {
                false => out.timed.add(day, factor, false),
                true => out.traced.add(day, factor, true),
            }
        }
    }
    Ok(out)
}

/// The correctness gate of one replay of day `j`: no collision among the
/// acked routes, every submitted request answered, and the same routes and
/// makespan as the day's first replay, recorded in `days`.
pub fn gate(day: &Day, j: usize, days: &mut Vec<DayRef>, failures: &mut Vec<String>) {
    if let Some(c) = &day.conflict {
        failures.push(format!(
            "day {}: {:?} collision at t={} in {:?}",
            day.seed, c.kind, c.time, c.cell
        ));
    }
    let unanswered = day.requests.iter().filter(|r| r.reply_ns == 0).count();
    if unanswered > 0 {
        failures.push(format!(
            "day {}: {unanswered} requests unanswered",
            day.seed
        ));
    }
    match days.get(j) {
        None => days.push(DayRef {
            seed: day.seed,
            digest: day.digest,
            makespan: day.makespan,
        }),
        Some(first) if (first.digest, first.makespan) != (day.digest, day.makespan) => {
            failures.push(format!(
                "day {}: digest {:#x} makespan {} differ from the first replay's {:#x} {}",
                day.seed, day.digest, day.makespan, first.digest, first.makespan
            ));
        }
        Some(_) => {}
    }
}
