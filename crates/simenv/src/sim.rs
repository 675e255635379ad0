//! The online test environment (§VIII-A, Fig. 15).
//!
//! The simulator replays a day of delivery tasks against one planner. Each
//! task decomposes into the three-leg workflow of the paper: *pickup*
//! (robot → rack), *transmission* (rack → picker) and *return*
//! (picker → rack home). Tasks are assigned to the nearest free robot on
//! arrival (or queued until one frees up); each leg's planning request is
//! submitted when the previous leg completes.
//!
//! The environment measures TC as the wall-clock time spent inside the
//! planner, samples MC at progress ticks, computes OG as the makespan of
//! all planned routes, and — unlike the paper's testbed — *audits* every
//! final route set against the ground-truth conflict semantics of
//! Definition 3.

use crate::audit::ReproBundle;
use crate::metrics::{DayReport, Recorder};
use carp_warehouse::collision::{validate_routes, IncrementalAuditor};
use carp_warehouse::layout::Layout;
use carp_warehouse::planner::{PlanOutcome, Planner};
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::tasks::Task;
use carp_warehouse::types::{Cell, Time};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

/// Simulation parameters.
///
/// Serializes to/from JSON so the simulator and the `carp-service` CLI
/// share one on-disk config format; every field carries a default, so a
/// partial JSON object (`{"service_time": 2}`) is a valid config (the
/// hand-written `Deserialize` below fills the rest — the vendored serde
/// has no `#[serde(default)]`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimConfig {
    /// Service time between legs (lifting a rack, picking items), in steps.
    pub service_time: Time,
    /// Delay before retrying an infeasible planning request.
    pub retry_delay: Time,
    /// Retries before a request is abandoned (counts as failed).
    pub max_retries: u32,
    /// Progress granularity of TC/MC snapshots (0.02 = every 2%, as in the
    /// paper's snapshot comparison).
    pub snapshot_tick: f64,
    /// Audit all final routes against the ground-truth validator.
    pub audit: bool,
    /// Tenant day-profiles for multi-tenant daemon runs: each entry is one
    /// warehouse's day, served concurrently by `carp-service` under its
    /// own tenant id. Empty (the default) means single-tenant runs driven
    /// by CLI flags.
    pub tenants: Vec<TenantDayProfile>,
}

/// One tenant's day in a multi-tenant `carp-service` run: which warehouse
/// preset it plans over and how its task stream is generated.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantDayProfile {
    /// Tenant id on the daemon (defaults to the preset name when empty).
    pub tenant: String,
    /// Warehouse preset ("W-1" | "W-2" | "W-3").
    pub preset: String,
    /// Tasks in the tenant's day.
    pub tasks: u32,
    /// Day horizon in sim-steps.
    pub horizon: Time,
    /// Arrival-rate multiplier the day is compressed by.
    pub rate: f64,
    /// Task-stream RNG seed.
    pub seed: u64,
}

impl TenantDayProfile {
    /// The id the tenant registers under: the explicit `tenant` name, or
    /// the preset when no name was given.
    pub fn id(&self) -> &str {
        if self.tenant.is_empty() {
            &self.preset
        } else {
            &self.tenant
        }
    }
}

impl Default for TenantDayProfile {
    fn default() -> Self {
        TenantDayProfile {
            tenant: String::new(),
            preset: "W-1".to_string(),
            tasks: 200,
            horizon: 2000,
            rate: 1.0,
            seed: 7,
        }
    }
}

impl Deserialize for TenantDayProfile {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "TenantDayProfile"))?;
        let mut p = TenantDayProfile::default();
        for (key, val) in map {
            match key.as_str() {
                "tenant" => p.tenant = Deserialize::from_value(val)?,
                "preset" => p.preset = Deserialize::from_value(val)?,
                "tasks" => p.tasks = Deserialize::from_value(val)?,
                "horizon" => p.horizon = Deserialize::from_value(val)?,
                "rate" => p.rate = Deserialize::from_value(val)?,
                "seed" => p.seed = Deserialize::from_value(val)?,
                other => {
                    return Err(serde::Error::custom(format!(
                        "unknown TenantDayProfile field `{other}`"
                    )))
                }
            }
        }
        Ok(p)
    }
}

impl Deserialize for SimConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "SimConfig"))?;
        let mut cfg = SimConfig::default();
        for (key, val) in map {
            match key.as_str() {
                "service_time" => cfg.service_time = Deserialize::from_value(val)?,
                "retry_delay" => cfg.retry_delay = Deserialize::from_value(val)?,
                "max_retries" => cfg.max_retries = Deserialize::from_value(val)?,
                "snapshot_tick" => cfg.snapshot_tick = Deserialize::from_value(val)?,
                "audit" => cfg.audit = Deserialize::from_value(val)?,
                "tenants" => cfg.tenants = Deserialize::from_value(val)?,
                other => {
                    return Err(serde::Error::custom(format!(
                        "unknown SimConfig field `{other}`"
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

impl SimConfig {
    /// Parse a config from JSON; missing fields take their defaults.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            service_time: 1,
            retry_delay: 4,
            max_retries: 16,
            snapshot_tick: 0.02,
            audit: true,
            tenants: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrive {
        task: usize,
    },
    LegDone {
        task: usize,
        robot: usize,
        kind: QueryKind,
        expected_end: Time,
    },
    Retry {
        task: usize,
        robot: usize,
        kind: QueryKind,
        attempt: u32,
    },
    /// Planner-requested wake-up ([`Planner::next_wakeup`]): gives windowed
    /// planners their repair cadence even when no task event falls due —
    /// the `advance` at the top of the event loop is the whole point.
    Wake,
}

/// In-flight bookkeeping per robot.
#[derive(Debug, Clone)]
struct Robot {
    pos: Cell,
    busy: bool,
}

/// The day simulator.
pub struct Simulation<'a, P: Planner> {
    layout: &'a Layout,
    tasks: &'a [Task],
    planner: P,
    config: SimConfig,
}

impl<'a, P: Planner> Simulation<'a, P> {
    /// Create a simulation of `tasks` over `layout` driven by `planner`.
    pub fn new(layout: &'a Layout, tasks: &'a [Task], planner: P, config: SimConfig) -> Self {
        Simulation {
            layout,
            tasks,
            planner,
            config,
        }
    }

    /// Run the full day and return the metric report plus the planner (for
    /// inspecting planner-specific stats afterwards).
    pub fn run(mut self) -> (DayReport, P) {
        let mut recorder = Recorder::new(self.tasks.len(), self.config.snapshot_tick);
        let mut robots: Vec<Robot> = self
            .layout
            .robot_spawns
            .iter()
            .map(|&pos| Robot { pos, busy: false })
            .collect();
        assert!(!robots.is_empty(), "layout has no robots");

        // Event queue ordered by (time, seq) for determinism.
        let mut events: BinaryHeap<core::cmp::Reverse<(Time, u64)>> = BinaryHeap::new();
        let mut payloads: HashMap<u64, Event> = HashMap::new();
        let mut seq = 0u64;
        let push = |events: &mut BinaryHeap<core::cmp::Reverse<(Time, u64)>>,
                    payloads: &mut HashMap<u64, Event>,
                    seq: &mut u64,
                    t: Time,
                    e: Event| {
            events.push(core::cmp::Reverse((t, *seq)));
            payloads.insert(*seq, e);
            *seq += 1;
        };
        for (i, task) in self.tasks.iter().enumerate() {
            push(
                &mut events,
                &mut payloads,
                &mut seq,
                task.arrival,
                Event::Arrive { task: i },
            );
        }

        // Waiting tasks (no free robot yet) and in-flight request tracking.
        let mut waiting: VecDeque<usize> = VecDeque::new();
        let mut next_request_id: RequestId = 0;
        // Final route per request id (revisions overwrite).
        let mut final_routes: HashMap<RequestId, Route> = HashMap::new();
        // Request id -> (task, robot, kind) for revision re-scheduling.
        let mut req_meta: HashMap<RequestId, (usize, usize, QueryKind)> = HashMap::new();
        // Active route end per (task, kind), updated by revisions.
        let mut active_end: HashMap<(usize, QueryKind), Time> = HashMap::new();
        let mut planned_requests = 0usize;
        let mut failed_requests = 0usize;
        let mut makespan: Time = 0;
        // Online audit state: mirrors the planner's committed routes and
        // refuses conflicting commits the moment they happen, catching
        // transient conflicts that a post-hoc batch validation of the
        // *final* (possibly revised) routes would miss.
        let mut auditor = if self.config.audit {
            Some(IncrementalAuditor::new())
        } else {
            None
        };
        let mut request_log: Vec<Request> = Vec::new();
        let mut online_conflicts = 0usize;
        let mut repro_emitted = false;
        // Commits the auditor refused whose verdict is pending. A refusal is
        // judged only once its conflict *comes due*: planners repair
        // deferred conflicts before they happen — RP revises the conflicting
        // peers on the very next advance(), while windowed planners (TWP)
        // legally carry a beyond-window conflict across several repair
        // rounds. Ground truth (Definition 3) is whether the routes still
        // conflict when simulated time reaches the conflict, not whether
        // the next revision batch already fixed it.
        let mut deferred: Vec<(RequestId, Route)> = Vec::new();
        // Wake-ups already in the queue (dedup: the planner reports the
        // same `next_wakeup` until it fires).
        let mut scheduled_wakes: std::collections::HashSet<Time> = std::collections::HashSet::new();

        macro_rules! report_conflict {
            ($aud:expr, $c:expr, $incoming:expr) => {{
                online_conflicts += 1;
                if !repro_emitted {
                    repro_emitted = true;
                    let provenance = vec![
                        format!(
                            "existing request {}: {}",
                            $c.existing,
                            self.planner
                                .provenance($c.existing)
                                .unwrap_or_else(|| "unrecorded".into())
                        ),
                        format!(
                            "incoming request {}: {}",
                            $c.incoming,
                            self.planner
                                .provenance($c.incoming)
                                .unwrap_or_else(|| "unrecorded".into())
                        ),
                    ];
                    if let Some(existing) = $aud.route($c.existing).cloned() {
                        let bundle = ReproBundle::new(
                            self.layout.config.clone(),
                            request_log.clone(),
                            &$c,
                            &existing,
                            $incoming,
                            provenance,
                        );
                        eprintln!("[audit] {}", $c);
                        eprintln!("[audit] {}", bundle.provenance.join("\n[audit] "));
                        eprintln!("[audit] timeline:\n{}", bundle.timeline);
                        eprintln!("[audit] replayable repro:\n{}", bundle.to_json());
                    }
                }
            }};
        }

        macro_rules! plan_leg {
            ($now:expr, $task:expr, $robot:expr, $kind:expr, $attempt:expr) => {{
                let t = self.tasks[$task];
                let (origin, destination) = match $kind {
                    QueryKind::Pickup => (robots[$robot].pos, t.rack),
                    QueryKind::Transmission => (t.rack, t.picker),
                    QueryKind::Return => (t.picker, t.rack),
                };
                let id = next_request_id;
                next_request_id += 1;
                let req = Request::new(id, $now, origin, destination, $kind);
                if auditor.is_some() {
                    request_log.push(req);
                }
                let started = Instant::now();
                let outcome = self.planner.plan(&req);
                recorder.add_planning(started.elapsed());
                match outcome {
                    PlanOutcome::Planned(route) => {
                        planned_requests += 1;
                        makespan = makespan.max(route.finish_exclusive());
                        let end = route.end_time();
                        if let Some(aud) = auditor.as_mut() {
                            match aud.commit(id, &route) {
                                Ok(()) => {}
                                Err(c) if $now >= c.time => {
                                    report_conflict!(aud, c, &route);
                                }
                                Err(_) => deferred.push((id, route.clone())),
                            }
                        }
                        final_routes.insert(id, route);
                        req_meta.insert(id, ($task, $robot, $kind));
                        active_end.insert(($task, $kind), end);
                        push(
                            &mut events,
                            &mut payloads,
                            &mut seq,
                            end,
                            Event::LegDone {
                                task: $task,
                                robot: $robot,
                                kind: $kind,
                                expected_end: end,
                            },
                        );
                    }
                    PlanOutcome::Infeasible => {
                        if $attempt < self.config.max_retries {
                            push(
                                &mut events,
                                &mut payloads,
                                &mut seq,
                                $now + self.config.retry_delay,
                                Event::Retry {
                                    task: $task,
                                    robot: $robot,
                                    kind: $kind,
                                    attempt: $attempt + 1,
                                },
                            );
                        } else {
                            failed_requests += 1;
                            // Give up on the task; free the robot.
                            robots[$robot].busy = false;
                        }
                    }
                }
            }};
        }

        let mut last_advance: Option<Time> = None;
        while let Some(core::cmp::Reverse((now, id))) = events.pop() {
            let event = payloads.remove(&id).expect("payload");
            // Let the planner retire state and deliver revisions once per
            // timestamp.
            if last_advance != Some(now) {
                last_advance = Some(now);
                let started = Instant::now();
                let revisions = self.planner.advance(now);
                recorder.add_planning(started.elapsed());
                // Revisions land as one atomic batch: cancel every revised
                // route before recommitting any, otherwise a revised route
                // would be checked against a peer's *stale* plan and report
                // a conflict that never existed.
                if let Some(aud) = auditor.as_mut() {
                    for (rid, _) in &revisions {
                        if req_meta.contains_key(rid) {
                            aud.cancel(*rid);
                        }
                    }
                }
                for (rid, route) in revisions {
                    if let Some(&(task, robot, kind)) = req_meta.get(&rid) {
                        makespan = makespan.max(route.finish_exclusive());
                        let end = route.end_time();
                        if let Some(aud) = auditor.as_mut() {
                            // The revision supersedes any pending refusal.
                            deferred.retain(|(d, _)| *d != rid);
                            if let Err(c) = aud.commit(rid, &route) {
                                if now >= c.time {
                                    report_conflict!(aud, c, &route);
                                } else {
                                    deferred.push((rid, route.clone()));
                                }
                            }
                        }
                        if active_end.get(&(task, kind)) != Some(&end) {
                            active_end.insert((task, kind), end);
                            push(
                                &mut events,
                                &mut payloads,
                                &mut seq,
                                end,
                                Event::LegDone {
                                    task,
                                    robot,
                                    kind,
                                    expected_end: end,
                                },
                            );
                        }
                        final_routes.insert(rid, route);
                    }
                }
                // With the revision batch applied, retry pending refusals.
                // A commit that now passes was repaired in time; one still
                // refused is judged only when its conflict is due — a
                // conflict that is still ahead of `now` may yet be repaired
                // by a later round, so it stays pending.
                if let Some(aud) = auditor.as_mut() {
                    for (rid, route) in core::mem::take(&mut deferred) {
                        if aud.route(rid).is_some() {
                            continue; // a revision superseded the refused plan
                        }
                        match aud.commit(rid, &route) {
                            Ok(()) => {}
                            Err(c) if now >= c.time => {
                                report_conflict!(aud, c, &route);
                            }
                            Err(_) => deferred.push((rid, route)),
                        }
                    }
                }
                // Under `strict-audit`, cross-check the online verdict
                // against the ground-truth batch checker on every advance:
                // the incremental auditor only ever accepts compatible
                // commits, so a batch validation of its active set must
                // find nothing. A hit means the auditor's occupancy
                // bookkeeping diverged from Definition 3 — a bug in the
                // audit layer itself, worth a hard stop.
                #[cfg(feature = "strict-audit")]
                if let Some(aud) = auditor.as_ref() {
                    let active: Vec<Route> = aud.routes().map(|(_, r)| r.clone()).collect();
                    if let Some(c) = validate_routes(&active) {
                        panic!(
                            "strict-audit: online auditor accepted a set the \
                             batch validator rejects at t={now}: {c:?}"
                        );
                    }
                }
                // Honor the planner's time-driven duties (e.g. TWP's repair
                // cadence): the queue is event-driven, so without an explicit
                // wake-up a repair round would wait for the next task event.
                if let Some(wake) = self.planner.next_wakeup() {
                    if wake > now && scheduled_wakes.insert(wake) {
                        push(&mut events, &mut payloads, &mut seq, wake, Event::Wake);
                    }
                }
            }

            match event {
                Event::Wake => {
                    scheduled_wakes.remove(&now);
                }
                Event::Arrive { task } => {
                    match self.nearest_free_robot(&robots, self.tasks[task].rack) {
                        Some(r) => {
                            robots[r].busy = true;
                            plan_leg!(now, task, r, QueryKind::Pickup, 0);
                        }
                        None => waiting.push_back(task),
                    }
                }
                Event::Retry {
                    task,
                    robot,
                    kind,
                    attempt,
                } => {
                    plan_leg!(now, task, robot, kind, attempt);
                }
                Event::LegDone {
                    task,
                    robot,
                    kind,
                    expected_end,
                } => {
                    // Stale completion (route was revised): ignore.
                    if active_end.get(&(task, kind)) != Some(&expected_end) {
                        continue;
                    }
                    active_end.remove(&(task, kind));
                    let t = self.tasks[task];
                    match kind {
                        QueryKind::Pickup => {
                            robots[robot].pos = t.rack;
                            plan_leg!(
                                now + self.config.service_time,
                                task,
                                robot,
                                QueryKind::Transmission,
                                0
                            );
                        }
                        QueryKind::Transmission => {
                            robots[robot].pos = t.picker;
                            plan_leg!(
                                now + self.config.service_time,
                                task,
                                robot,
                                QueryKind::Return,
                                0
                            );
                        }
                        QueryKind::Return => {
                            robots[robot].pos = t.rack;
                            robots[robot].busy = false;
                            recorder.task_completed_at(now, t.arrival, self.planner.memory_bytes());
                            // A robot freed: serve the queue.
                            if let Some(next_task) = waiting.pop_front() {
                                if let Some(r) =
                                    self.nearest_free_robot(&robots, self.tasks[next_task].rack)
                                {
                                    robots[r].busy = true;
                                    plan_leg!(now, next_task, r, QueryKind::Pickup, 0);
                                } else {
                                    waiting.push_front(next_task);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Refusals still pending after the last event have no more revisions
        // coming: judge them now.
        if let Some(aud) = auditor.as_mut() {
            for (rid, route) in core::mem::take(&mut deferred) {
                if aud.route(rid).is_some() {
                    continue;
                }
                if let Err(c) = aud.commit(rid, &route) {
                    report_conflict!(aud, c, &route);
                }
            }
        }

        let audit_conflicts = if self.config.audit {
            let routes: Vec<Route> = final_routes.values().cloned().collect();
            match validate_routes(&routes) {
                // The batch pass only sees final (post-revision) routes; the
                // online count additionally covers transient conflicts that a
                // later revision papered over, so report whichever is worse.
                None => online_conflicts,
                Some(_) => count_conflicts(&routes).max(online_conflicts),
            }
        } else {
            0
        };

        let mut report = recorder.finish(
            self.planner.name(),
            makespan,
            planned_requests,
            failed_requests,
            audit_conflicts,
        );
        if let Some(m) = self.planner.engine_metrics() {
            report.retire_batch_size = m.retire_batch_size;
            report.soft_bookings = m.soft_bookings;
            report.window_debt = m.window_debt;
        }
        (report, self.planner)
    }

    fn nearest_free_robot(&self, robots: &[Robot], target: Cell) -> Option<usize> {
        robots
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.busy)
            .min_by_key(|(_, r)| r.pos.manhattan(target))
            .map(|(i, _)| i)
    }
}

/// Count conflicting occupancy events (diagnostic for the audit): the
/// number of `(cell, time)` duplications plus swapped motions, in one
/// linear pass over the total occupancy.
fn count_conflicts(routes: &[Route]) -> usize {
    use std::collections::HashMap as Map;
    let mut cells: Map<(Cell, Time), u32> = Map::new();
    let mut motions: Map<(Cell, Cell, Time), u32> = Map::new();
    let mut n = 0usize;
    for r in routes {
        for (t, c) in r.occupancy() {
            n += *cells.entry((c, t)).and_modify(|k| *k += 1).or_insert(1) as usize - 1;
        }
        for (k, w) in r.grids.windows(2).enumerate() {
            if w[0] == w[1] {
                continue;
            }
            let t = r.start + k as Time;
            n += motions.get(&(w[1], w[0], t)).copied().unwrap_or(0) as usize;
            *motions.entry((w[0], w[1], t)).or_insert(0) += 1;
        }
    }
    n
}
