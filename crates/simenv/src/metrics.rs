//! Metric recording for the test environment (§VIII-A).
//!
//! Three metrics, as in the paper:
//!
//! * **OG** (optimization goal) — the makespan of Eq. (1), the time the
//!   last route finishes;
//! * **TC** (time consumption) — cumulative wall-clock time spent inside
//!   the planner across all rounds;
//! * **MC** (memory consumption) — live bytes of the planner's data
//!   structures, sampled as the day progresses.
//!
//! "Progress is the ratio between the finished tasks and all tasks of the
//! day" — snapshots are taken at fixed progress ticks so the TC/MC series
//! can be plotted exactly like Figs. 16–21.

use carp_warehouse::types::Time;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One progress snapshot of the running day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Progress in [0, 1]: finished tasks / all tasks.
    pub progress: f64,
    /// Simulated time at the snapshot.
    pub sim_time: Time,
    /// Cumulative planner wall-clock seconds so far (TC).
    pub planning_secs: f64,
    /// Planner live memory in bytes (MC).
    pub memory_bytes: usize,
}

/// Complete result of simulating one day with one planner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DayReport {
    /// Planner display name.
    pub planner: &'static str,
    /// Number of tasks in the stream.
    pub tasks: usize,
    /// Tasks fully completed (all three legs).
    pub completed: usize,
    /// Planning requests answered.
    pub planned_requests: usize,
    /// Requests that remained infeasible after retries.
    pub failed_requests: usize,
    /// Makespan (OG): the time the last route finishes, `max st_r + |G_r|`.
    pub makespan: Time,
    /// Total planner wall-clock seconds (TC).
    pub planning_secs: f64,
    /// Peak of the sampled planner memory (MC).
    pub peak_memory_bytes: usize,
    /// Progress snapshots (TC/MC series for Figs. 16–21).
    pub snapshots: Vec<Snapshot>,
    /// Conflicts found by the ground-truth audit of all final routes
    /// (0 for every sound planner; windowed planners may leak if repairs
    /// fail).
    pub audit_conflicts: usize,
    /// Mean task latency in simulated seconds (completion − arrival),
    /// over completed tasks.
    pub mean_task_latency: f64,
    /// Completed tasks per simulated hour.
    pub throughput_per_hour: f64,
    /// Mean segments retired per batched engine removal (0.0 when the
    /// planner has no engine or never retired a batch).
    pub retire_batch_size: f64,
    /// Cumulative soft-layer (beyond-window) reservation bookings (0 for
    /// pre-checked planners; positive under TWP's optimistic commits,
    /// which book unverified tails in the multi-owner soft layer).
    pub soft_bookings: u64,
    /// Soft bookings left below the last window slide's horizon — optimism
    /// failed repairs could not promote into the exclusive hard layer.
    /// Hard-layer overwrites are asserted in the reservation table, so
    /// this is the only window-consistency debt a planner can report.
    pub window_debt: u64,
}

impl DayReport {
    /// The TC/MC progress series as CSV (`progress,sim_time,planning_secs,
    /// memory_bytes`), ready for external plotting.
    pub fn snapshots_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("progress,sim_time,planning_secs,memory_bytes\n");
        for s in &self.snapshots {
            let _ = writeln!(
                out,
                "{:.4},{},{:.6},{}",
                s.progress, s.sim_time, s.planning_secs, s.memory_bytes
            );
        }
        out
    }
}

/// Incremental metric recorder driven by the simulator.
#[derive(Debug)]
pub struct Recorder {
    total_tasks: usize,
    completed: usize,
    next_tick: f64,
    tick: f64,
    planning: Duration,
    snapshots: Vec<Snapshot>,
    peak_memory: usize,
    latency_sum: u64,
    last_completion: Time,
}

impl Recorder {
    /// Create a recorder taking snapshots every `tick` progress (e.g. 0.02
    /// for the paper's 2% granularity).
    pub fn new(total_tasks: usize, tick: f64) -> Self {
        assert!(tick > 0.0 && tick <= 1.0);
        Recorder {
            total_tasks: total_tasks.max(1),
            completed: 0,
            next_tick: tick,
            tick,
            planning: Duration::ZERO,
            snapshots: Vec::with_capacity((1.0 / tick) as usize + 2),
            peak_memory: 0,
            latency_sum: 0,
            last_completion: 0,
        }
    }

    /// Add planner wall-clock time.
    pub fn add_planning(&mut self, d: Duration) {
        self.planning += d;
    }

    /// Cumulative planning time so far.
    pub fn planning_secs(&self) -> f64 {
        self.planning.as_secs_f64()
    }

    /// Record a completed task; snapshots fire when a progress tick is
    /// crossed. `memory` is the planner's current live byte count and
    /// `arrival` the task's emergence time (for the latency statistic).
    pub fn task_completed_at(&mut self, sim_time: Time, arrival: Time, memory: usize) {
        self.latency_sum += (sim_time - arrival) as u64;
        self.last_completion = self.last_completion.max(sim_time);
        self.task_completed(sim_time, memory);
    }

    /// Record a completed task; snapshots fire when a progress tick is
    /// crossed. `memory` is the planner's current live byte count.
    pub fn task_completed(&mut self, sim_time: Time, memory: usize) {
        self.completed += 1;
        self.peak_memory = self.peak_memory.max(memory);
        let progress = self.completed as f64 / self.total_tasks as f64;
        if progress + 1e-12 >= self.next_tick {
            self.snapshots.push(Snapshot {
                progress,
                sim_time,
                planning_secs: self.planning.as_secs_f64(),
                memory_bytes: memory,
            });
            while self.next_tick <= progress + 1e-12 {
                self.next_tick += self.tick;
            }
        }
    }

    /// Completed-task count.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Finish recording and build the report skeleton (the simulator fills
    /// the remaining counters).
    pub fn finish(
        self,
        planner: &'static str,
        makespan: Time,
        planned_requests: usize,
        failed_requests: usize,
        audit_conflicts: usize,
    ) -> DayReport {
        let mean_task_latency = if self.completed > 0 {
            self.latency_sum as f64 / self.completed as f64
        } else {
            0.0
        };
        let throughput_per_hour = if self.last_completion > 0 {
            self.completed as f64 * 3600.0 / self.last_completion as f64
        } else {
            0.0
        };
        DayReport {
            planner,
            tasks: self.total_tasks,
            completed: self.completed,
            planned_requests,
            failed_requests,
            makespan,
            planning_secs: self.planning.as_secs_f64(),
            peak_memory_bytes: self.peak_memory,
            snapshots: self.snapshots,
            audit_conflicts,
            mean_task_latency,
            throughput_per_hour,
            retire_batch_size: 0.0,
            soft_bookings: 0,
            window_debt: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_fire_on_ticks() {
        let mut r = Recorder::new(100, 0.10);
        for i in 0..100 {
            r.add_planning(Duration::from_millis(1));
            r.task_completed(i, 1000 + i as usize);
        }
        assert_eq!(r.completed(), 100);
        let report = r.finish("X", 99, 300, 0, 0);
        assert_eq!(report.snapshots.len(), 10);
        assert!((report.snapshots[0].progress - 0.10).abs() < 1e-9);
        assert!((report.snapshots[9].progress - 1.00).abs() < 1e-9);
        // Planning time is monotone across snapshots.
        for w in report.snapshots.windows(2) {
            assert!(w[0].planning_secs <= w[1].planning_secs);
        }
        assert_eq!(report.peak_memory_bytes, 1099);
    }

    #[test]
    fn small_task_counts_do_not_skip_completion() {
        let mut r = Recorder::new(3, 0.02);
        r.task_completed(1, 10);
        r.task_completed(2, 20);
        r.task_completed(3, 30);
        let report = r.finish("X", 3, 9, 0, 0);
        assert_eq!(report.completed, 3);
        assert!(!report.snapshots.is_empty());
        assert!((report.snapshots.last().unwrap().progress - 1.0).abs() < 1e-9);
    }
}
