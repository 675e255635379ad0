//! `carp-service` — the multi-tenant planning daemon and its load driver.
//!
//! Three modes:
//!
//! * **Load run** (default): replay generated warehouse days through the
//!   daemon's wire protocol over the in-process transport and emit a
//!   `BENCH_service.json` report. One run per `--rates` multiplier.
//!
//!   ```sh
//!   cargo run --release -p carp-service -- \
//!       --preset W-2 --tasks 400 --rates 1,4 --seed 7 --out BENCH_service.json
//!   ```
//!
//! * **Multi-tenant load run** (`--tenants W-1,W-2`): serve several
//!   warehouses from one daemon concurrently, each tenant driving its own
//!   day over its own connection; the report carries one per-tenant run.
//!   `--conformance` additionally replays every tenant's day single-tenant
//!   and fails unless each tenant's route digest is
//!   bit-identical to its isolated run — the multi-tenant determinism gate.
//!
//! * **Daemon** (`--listen ADDR`): bind a TCP listener and serve the
//!   configured tenants over the same framed protocol, through the
//!   `poll(2)` event loop, until SIGTERM/SIGINT. `--listen`,
//!   `--replication` and `--connections` need that event loop, so on a
//!   non-unix host they are refused as bad usage.
//!
//! The process exits non-zero if any run reports an audited collision or a
//! conformance digest diverges, which is the CI perf job's gate.

#[cfg(unix)]
use carp_service::ingest::RateLimit;
#[cfg(unix)]
use carp_service::loadgen::{run_connection_ladder, run_load_replication};
use carp_service::loadgen::{
    run_load, run_load_journaled, run_load_multi, run_load_recovery, LoadScenario, TenantLoad,
};
#[cfg(unix)]
use carp_service::mux::{serve_tcp_mux, MuxConfig, MuxMetrics};
use carp_service::report::{LoadReport, RecoveryBenchReport, ServiceBenchReport, BENCH_VERSION};
use carp_service::service::ServiceConfig;
#[cfg(unix)]
use carp_service::tenant::TenantRegistry;
use carp_service::wal::WalJournal;
#[cfg(unix)]
use carp_service::wal::{self, LogTail};
use carp_simenv::{SimConfig, TenantDayProfile};
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::{Layout, LayoutConfig, WarehousePreset};
use carp_warehouse::types::Time;
#[cfg(unix)]
use std::collections::HashMap;
use std::path::Path;
#[cfg(unix)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SIGTERM/SIGINT → a process-wide flag the daemon's accept loop polls.
/// Lives only in the binary: the library stays `forbid(unsafe_code)`; the
/// single `signal(2)` registration below is the binary's one unsafe block.
#[cfg(unix)]
mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static FLAG: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        FLAG.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

const USAGE: &str = "usage: carp-service [options]
  --preset P          warehouse preset: small | W-1 | W-2 | W-3 (default small)
  --tasks N           tasks in the stream (default 200)
  --horizon T         day span in sim-seconds before compression (default 2000)
  --rates R1,R2,...   arrival-rate multipliers, one run each (default 1,4)
  --seed S            task-stream RNG seed (default 7)
  --deadline-ms MS    per-request planning deadline; 0 disables it and makes
                      the committed route set bit-deterministic (default 0)
  --tenants A,B,...   serve several warehouse presets as tenants of one
                      daemon, one concurrent day each (rate = first --rates
                      entry); tenant day-profiles in --sim-config `tenants`
                      override this list
  --conformance       with --tenants: also replay each tenant single-tenant
                      and require bit-identical digests
  --listen ADDR       daemon mode: serve the configured tenants over TCP on
                      ADDR (e.g. 127.0.0.1:7300) until SIGTERM/SIGINT, then
                      drain every tenant, seal the changeset log, and exit 0;
                      port 0 binds an ephemeral port (the chosen address is
                      printed on stderr as `listening on ...`)
  --mux-threads N     reactor threads for the event-loop front-end serving
                      --listen and --connections (default 2)
  --connections N,... open-socket ladder over the event-loop front-end: one
                      rung per N, holding N connections open (1 driving the
                      measured day, N-1 churning a second tenant); writes
                      BENCH_service_mux.json and fails unless every rung's
                      route digest is bit-identical to an in-process run's
  --wal PATH          journal every commit/cancel/advance into a changeset
                      log at PATH (created fresh; daemon and load-run modes)
  --standby PATH      with --listen: warm-standby takeover — replay the
                      changeset log at PATH (truncating any torn tail),
                      rebuild each tenant's planner, then serve and keep
                      journaling to the same log
  --follow ADDR       with --listen and --wal: network standby — connect to
                      the primary daemon at ADDR, subscribe to its changeset
                      log over the wire (TailLog), and mirror every shipped
                      record into the --wal journal; when the primary's
                      stream ends, strict-audit the shipped copy, bump the
                      leadership epoch (fencing the old primary), rebuild
                      each tenant's planner, and serve on --listen; if no
                      record ships within a few seconds, exit 1 instead
  --rate-limit N      per-connection token bucket: burst N frames, refill
                      N frames/s; excess gets a typed Throttled refusal
  --recovery PATH     crash-recovery bench: drive the day three ways (WAL
                      off, WAL on at PATH, kill-primary + standby takeover)
                      and write BENCH_service_recovery.json; fails unless
                      all three route digests are bit-identical
  --replication PATH  failover bench over TCP: primary journals to PATH and
                      ships the log live to a network standby; the primary
                      is killed at --kill-frac and the standby (rebuilt from
                      its shipped copy alone, fenced to a new epoch) serves
                      the rest of the day; writes
                      BENCH_service_replication.json and fails unless the
                      route digest is bit-identical to an unkilled run and
                      a stale-epoch append was refused
  --kill-frac F       with --recovery/--replication: kill the primary at F
                      of the way through the day's arrivals, 0 < F < 1
                      (default 0.5)
  --torn-tail         with --recovery: append a half-written record to the
                      log after the kill; the standby must truncate it
  --sim-config PATH   JSON file overriding SimConfig fields (service_time,
                      retry_delay, max_retries, tenants, ...)
  --out PATH          write BENCH_service.json here (default: print to stdout)

exit status: 0 on success, 1 if any run audited a collision (or
--conformance / --recovery digests diverged), 2 on bad usage";

fn usage_error(msg: &str) -> ! {
    eprintln!("carp-service: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// A gate failed: say which and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("carp-service: FAIL — {msg}");
    std::process::exit(1);
}

struct Opts {
    preset: String,
    tasks: u32,
    horizon: u32,
    rates: Vec<f64>,
    seed: u64,
    deadline_ms: u64,
    tenants: Vec<String>,
    conformance: bool,
    listen: Option<String>,
    mux_threads: usize,
    connections: Option<Vec<usize>>,
    wal: Option<String>,
    standby: Option<String>,
    follow: Option<String>,
    rate_limit: Option<u32>,
    recovery: Option<String>,
    replication: Option<String>,
    kill_frac: f64,
    torn_tail: bool,
    sim: SimConfig,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut opts = Opts {
        preset: "small".to_string(),
        tasks: 200,
        horizon: 2000,
        rates: vec![1.0, 4.0],
        seed: 7,
        deadline_ms: 0,
        tenants: Vec::new(),
        conformance: false,
        listen: None,
        mux_threads: 2,
        connections: None,
        wal: None,
        standby: None,
        follow: None,
        rate_limit: None,
        recovery: None,
        replication: None,
        kill_frac: 0.5,
        torn_tail: false,
        sim: SimConfig::default(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> &str {
            match it.next() {
                Some(v) => v,
                None => usage_error(&format!("{flag} expects a value")),
            }
        };
        match a.as_str() {
            "--preset" => opts.preset = value("--preset").to_string(),
            "--tasks" => match value("--tasks").parse() {
                Ok(n) => opts.tasks = n,
                Err(_) => usage_error("--tasks expects an integer"),
            },
            "--horizon" => match value("--horizon").parse() {
                Ok(t) => opts.horizon = t,
                Err(_) => usage_error("--horizon expects an integer"),
            },
            "--rates" => {
                let raw = value("--rates");
                let rates: Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
                match rates {
                    Ok(r) if !r.is_empty() && r.iter().all(|&x| x > 0.0) => opts.rates = r,
                    _ => usage_error("--rates expects positive numbers like 1,4"),
                }
            }
            "--seed" => match value("--seed").parse() {
                Ok(s) => opts.seed = s,
                Err(_) => usage_error("--seed expects an integer"),
            },
            "--deadline-ms" => match value("--deadline-ms").parse() {
                Ok(ms) => opts.deadline_ms = ms,
                Err(_) => usage_error("--deadline-ms expects an integer"),
            },
            "--tenants" => {
                opts.tenants = value("--tenants")
                    .split(',')
                    .map(str::to_string)
                    .filter(|s| !s.is_empty())
                    .collect();
                if opts.tenants.is_empty() {
                    usage_error("--tenants expects preset names like W-1,W-2");
                }
            }
            "--conformance" => opts.conformance = true,
            "--listen" => opts.listen = Some(value("--listen").to_string()),
            "--mux-threads" => match value("--mux-threads").parse() {
                Ok(n) if n > 0 => opts.mux_threads = n,
                _ => usage_error("--mux-threads expects a positive integer"),
            },
            "--connections" => {
                let raw = value("--connections");
                let conns: Result<Vec<usize>, _> = raw.split(',').map(str::parse).collect();
                match conns {
                    Ok(c) if !c.is_empty() && c.iter().all(|&n| n >= 1) => {
                        opts.connections = Some(c)
                    }
                    _ => usage_error("--connections expects positive integers like 64,256"),
                }
            }
            "--wal" => opts.wal = Some(value("--wal").to_string()),
            "--standby" => opts.standby = Some(value("--standby").to_string()),
            "--follow" => opts.follow = Some(value("--follow").to_string()),
            "--rate-limit" => match value("--rate-limit").parse() {
                Ok(n) if n > 0 => opts.rate_limit = Some(n),
                _ => usage_error("--rate-limit expects a positive integer"),
            },
            "--recovery" => opts.recovery = Some(value("--recovery").to_string()),
            "--replication" => opts.replication = Some(value("--replication").to_string()),
            "--kill-frac" => match value("--kill-frac").parse::<f64>() {
                Ok(f) if f > 0.0 && f < 1.0 => opts.kill_frac = f,
                _ => usage_error("--kill-frac expects a fraction in (0, 1)"),
            },
            "--torn-tail" => opts.torn_tail = true,
            "--sim-config" => {
                let path = value("--sim-config");
                let json = match std::fs::read_to_string(path) {
                    Ok(j) => j,
                    Err(e) => usage_error(&format!("cannot read {path}: {e}")),
                };
                match SimConfig::from_json(&json) {
                    Ok(cfg) => opts.sim = cfg,
                    Err(e) => usage_error(&format!("bad sim config {path}: {e}")),
                }
            }
            "--out" => opts.out = Some(value("--out").to_string()),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    opts
}

fn layout_for(preset: &str) -> Layout {
    match preset {
        "small" => LayoutConfig::small().generate(),
        "W-1" | "w-1" | "W1" | "w1" => WarehousePreset::W1.generate(),
        "W-2" | "w-2" | "W2" | "w2" => WarehousePreset::W2.generate(),
        "W-3" | "w-3" | "W3" | "w3" => WarehousePreset::W3.generate(),
        other => usage_error(&format!("unknown preset {other}")),
    }
}

fn srp(layout: &Layout) -> SrpPlanner {
    SrpPlanner::new(layout.matrix.clone(), SrpConfig::default())
}

/// The tenant day-profiles this invocation serves: the sim config's
/// `tenants` array when present, otherwise one profile per `--tenants`
/// preset (day shape from the common flags, rate from the first `--rates`).
fn tenant_profiles(opts: &Opts) -> Vec<TenantDayProfile> {
    if !opts.sim.tenants.is_empty() {
        return opts.sim.tenants.clone();
    }
    opts.tenants
        .iter()
        .map(|preset| TenantDayProfile {
            tenant: String::new(),
            preset: preset.clone(),
            tasks: opts.tasks,
            horizon: opts.horizon,
            rate: opts.rates[0],
            seed: opts.seed,
        })
        .collect()
}

fn scenario_for(p: &TenantDayProfile, layout: &Layout) -> LoadScenario {
    LoadScenario::new(p.id(), layout.clone(), p.tasks, p.horizon, p.rate, p.seed)
}

/// The `--preset` day at arrival-rate multiplier `rate`.
fn preset_scenario(opts: &Opts, layout: &Layout, rate: f64) -> LoadScenario {
    LoadScenario::new(
        format!("{}@{}x", opts.preset, rate),
        layout.clone(),
        opts.tasks,
        opts.horizon,
        rate,
        opts.seed,
    )
}

/// The one day a digest-gated bench `mode` drives: the `--preset` day at
/// the first `--rates` entry, with deadlines off so digests are
/// deterministic.
fn bench_scenario(opts: &Opts, mode: &str) -> (Layout, LoadScenario) {
    if opts.deadline_ms != 0 {
        usage_error(&format!(
            "{mode} requires --deadline-ms 0 (digests must be deterministic)"
        ));
    }
    let layout = layout_for(&opts.preset);
    let scenario = preset_scenario(opts, &layout, opts.rates[0]);
    (layout, scenario)
}

/// Sim time `--kill-frac` of the way through the day's arrivals.
fn kill_point(opts: &Opts, scenario: &LoadScenario) -> Time {
    let last_arrival = scenario.tasks.last().map_or(0, |t| t.arrival);
    (f64::from(last_arrival) * opts.kill_frac) as Time
}

/// A fresh changeset log at `path`, or exit 2.
fn create_journal(path: &str) -> Arc<WalJournal> {
    WalJournal::create(path).unwrap_or_else(|e| {
        eprintln!("carp-service: cannot create changeset log {path}: {e}");
        std::process::exit(2);
    })
}

/// Write a bench document to `--out` (stdout without it), then exit 1 if
/// its runs audited `conflicts` collisions.
fn emit(opts: &Opts, json: &str, conflicts: usize) {
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("carp-service: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("carp-service: wrote {path}");
        }
        None => println!("{json}"),
    }
    if conflicts > 0 {
        fail(&format!("{conflicts} audited collision(s)"));
    }
}

fn print_run(report: &LoadReport) {
    eprintln!(
        "carp-service: {} done: {} planned, p95 {} us, {} conflicts, {:.1} plans/s, \
         wire {} frames / {} B in, {} frames / {} B out",
        report.scenario,
        report.service.planned,
        report.service.planning_latency.p95_us,
        report.audit_conflicts,
        report.throughput_rps,
        report.wire.frames_received,
        report.wire.bytes_received,
        report.wire.frames_sent,
        report.wire.bytes_sent,
    );
}

/// Daemon mode: register every configured tenant (rebuilt from the
/// changeset log in `--standby` / `--follow` mode) and serve TCP until
/// SIGTERM/SIGINT, then drain every tenant, seal the log, and exit 0.
#[cfg(unix)]
fn run_daemon(addr: &str, profiles: &[TenantDayProfile], cfg: ServiceConfig, opts: &Opts) -> ! {
    let registry = Arc::new(TenantRegistry::new());
    let layouts: HashMap<String, Layout> = profiles
        .iter()
        .map(|p| (p.id().to_string(), layout_for(&p.preset)))
        .collect();

    // A standby takes over a log before serving (DESIGN.md §15, §17):
    // `--standby` reads the primary's file, `--follow` mirrors it over the
    // wire into our own journal until the primary's stream ends.
    let (journal, takeover) = if let Some(primary) = &opts.follow {
        let Some(wal_path) = &opts.wal else {
            usage_error("--follow requires --wal (the standby's own journal path)");
        };
        let journal = create_journal(wal_path);
        eprintln!("carp-service: standby: following {primary}, mirroring to {wal_path}");
        let mut records = Vec::new();
        match wal::follow(primary.as_str(), &journal, &mut records) {
            Ok(()) => eprintln!("carp-service: standby: primary closed the stream"),
            // Nothing shipped: this standby never subscribed, and serving
            // now would make a second, empty primary.
            Err(e) if records.is_empty() => {
                eprintln!("carp-service: standby: no log shipped from {primary} ({e}); exiting");
                std::process::exit(1);
            }
            Err(e) => eprintln!("carp-service: standby: log tail from {primary} failed: {e}"),
        }
        (Some(journal), Some(records))
    } else if let Some(path) = &opts.standby {
        let (journal, records, tail) = WalJournal::open_append(path).unwrap_or_else(|e| {
            eprintln!("carp-service: cannot open changeset log {path}: {e}");
            std::process::exit(2);
        });
        if let LogTail::Torn {
            valid_bytes,
            dropped_bytes,
        } = tail
        {
            eprintln!(
                "carp-service: standby: torn tail — kept {valid_bytes} bytes, \
                 truncated {dropped_bytes}"
            );
        }
        (Some(journal), Some(records))
    } else {
        let journal = opts.wal.as_deref().map(|path| {
            eprintln!("carp-service: journaling changesets to {path}");
            create_journal(path)
        });
        (journal, None)
    };

    let mut recovered: HashMap<String, SrpPlanner> = HashMap::new();
    if let (Some(journal), Some(records)) = (&journal, takeover) {
        let planners = wal::take_over(&records, |id| {
            let Some(layout) = layouts.get(id) else {
                eprintln!("carp-service: standby: log names tenant {id} not in --tenants");
                std::process::exit(2);
            };
            srp(layout)
        })
        .unwrap_or_else(|(tenant, conflict)| {
            eprintln!("carp-service: standby: log fails audit for {tenant}: {conflict:?}");
            std::process::exit(1);
        });
        let last_seq = records.last().map_or(0, |r| r.seq);
        if opts.follow.is_some() {
            // The epoch bump fences the old primary's handles.
            let epoch = journal.bump_epoch();
            eprintln!(
                "carp-service: standby: taking over at epoch {epoch} — {} shipped records \
                 (seq {}) for {} tenant(s)",
                records.len(),
                last_seq,
                planners.len()
            );
        } else {
            eprintln!(
                "carp-service: standby: replayed {} records (seq {}) for {} tenant(s) from {}",
                records.len(),
                last_seq,
                planners.len(),
                journal.path().display()
            );
        }
        recovered = planners.into_iter().collect();
    }
    if let Some(journal) = journal {
        registry.attach_journal(journal);
    }

    for p in profiles {
        let planner = recovered
            .remove(p.id())
            .unwrap_or_else(|| srp(&layouts[p.id()]));
        registry.register(p.id(), planner, cfg);
        eprintln!("carp-service: tenant {} ({})", p.id(), p.preset);
    }
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("carp-service: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    shutdown_signal::install();
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("carp-signal-bridge".into())
            .spawn(move || loop {
                if shutdown_signal::FLAG.load(Ordering::SeqCst) {
                    shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("spawn signal bridge");
    }
    // Print the *bound* address, not the requested one: with `:0` the
    // kernel picks the port, and whoever spawned us needs to know it.
    let bound = listener
        .local_addr()
        .map_or_else(|_| addr.to_string(), |a| a.to_string());
    eprintln!("carp-service: listening on {bound}");
    eprintln!(
        "carp-service: event-loop front-end, {} reactor thread(s)",
        opts.mux_threads
    );
    let config = MuxConfig {
        threads: opts.mux_threads,
        rate_limit: opts.rate_limit.map(|n| RateLimit {
            burst: n,
            per_sec: f64::from(n),
        }),
        ..MuxConfig::default()
    };
    let metrics = Arc::new(MuxMetrics::default());
    match serve_tcp_mux(listener, Arc::clone(&registry), shutdown, config, metrics) {
        Ok(()) => {
            // Graceful drain: stop accepting happened above; now shut each
            // tenant down in order (each waits for its request in progress,
            // every commit is journaled) and seal the log with a final fsync.
            let drained = registry.drain_all();
            eprintln!("carp-service: drained {drained} tenant(s), log sealed; bye");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("carp-service: listener failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Crash-recovery bench (`--recovery`): the same day driven WAL-off,
/// WAL-on, and killed-then-recovered; emits `BENCH_service_recovery.json`
/// and fails unless the three digests are bit-identical and collision-free.
fn run_recovery(opts: &Opts, cfg: ServiceConfig, wal_path: &str) -> ! {
    let (layout, scenario) = bench_scenario(opts, "--recovery");
    let kill_at = kill_point(opts, &scenario);

    eprintln!(
        "carp-service: recovery bench {} — leg 1: WAL off",
        scenario.name
    );
    let (wal_off, _) = run_load(&scenario, srp(&layout), opts.sim.clone(), cfg);
    print_run(&wal_off);

    eprintln!("carp-service: leg 2: WAL on ({wal_path}), uninterrupted");
    let journal = create_journal(wal_path);
    let (wal_on, _) = run_load_journaled(&scenario, srp(&layout), opts.sim.clone(), cfg, journal);
    print_run(&wal_on);

    eprintln!(
        "carp-service: leg 3: kill primary at t={kill_at} ({}% of arrivals){}",
        (opts.kill_frac * 100.0) as u32,
        if opts.torn_tail { ", torn tail" } else { "" }
    );
    let (rec, _) = run_load_recovery(
        &scenario,
        || srp(&layout),
        opts.sim.clone(),
        cfg,
        Path::new(wal_path),
        kill_at,
        opts.torn_tail,
    );
    print_run(&rec.report);
    eprintln!(
        "carp-service: standby replayed {} records at t={} (torn tail dropped {} B); \
         commit latency p50/p95/p99 us — off {}/{}/{}, on {}/{}/{}",
        rec.records_replayed,
        rec.killed_at,
        rec.torn_tail_dropped,
        wal_off.service.commit_latency.p50_us,
        wal_off.service.commit_latency.p95_us,
        wal_off.service.commit_latency.p99_us,
        wal_on.service.commit_latency.p50_us,
        wal_on.service.commit_latency.p95_us,
        wal_on.service.commit_latency.p99_us,
    );

    let digests_match = wal_off.routes_digest == wal_on.routes_digest
        && wal_on.routes_digest == rec.report.routes_digest;
    let report = RecoveryBenchReport {
        version: BENCH_VERSION,
        scenario: scenario.name.clone(),
        killed_at: rec.killed_at,
        records_replayed: rec.records_replayed,
        torn_tail_dropped: rec.torn_tail_dropped,
        wal_stats: rec.wal_stats,
        digests_match,
        wal_off,
        wal_on,
        recovered: rec.report,
        primary: rec.primary_metrics,
    };
    emit(opts, &report.to_json(), report.total_audit_conflicts());
    if !digests_match {
        fail(&format!(
            "digests diverged: off {:#018x}, on {:#018x}, recovered {:#018x}",
            report.wal_off.routes_digest,
            report.wal_on.routes_digest,
            report.recovered.routes_digest,
        ));
    }
    eprintln!("carp-service: recovery bench ok — three identical digests, no collisions");
    std::process::exit(0);
}

/// Live-replication failover bench (`--replication`): the day driven over
/// real TCP with a network standby tailing the changeset log; the primary
/// is killed mid-day and the standby serves the rest. Emits
/// `BENCH_service_replication.json`; fails unless the failover digest is
/// bit-identical to the uninterrupted baseline's, collision-free, and the
/// post-takeover fence refused at least one stale-epoch append.
#[cfg(unix)]
fn run_replication(opts: &Opts, cfg: ServiceConfig, wal_path: &str) -> ! {
    let (layout, scenario) = bench_scenario(opts, "--replication");
    let kill_at = kill_point(opts, &scenario);
    eprintln!(
        "carp-service: replication bench {} — kill primary over TCP at t={kill_at} \
         ({}% of arrivals), {} mux thread(s)",
        scenario.name,
        (opts.kill_frac * 100.0) as u32,
        opts.mux_threads
    );
    let report = run_load_replication(
        &scenario,
        || srp(&layout),
        opts.sim.clone(),
        cfg,
        opts.mux_threads,
        Path::new(wal_path),
        kill_at,
    );
    print_run(&report.baseline);
    print_run(&report.replicated);
    eprintln!(
        "carp-service: standby: {} records shipped over the wire, {} record(s) stale at \
         the kill signal, takeover in {:.1} ms to epoch {}, {} fenced append(s)",
        report.records_shipped,
        report.staleness_records,
        report.takeover_ms,
        report.takeover_epoch,
        report.fenced_appends,
    );
    emit(opts, &report.to_json(), report.total_audit_conflicts());
    if !report.digests_match {
        fail(&format!(
            "failover digest {:#018x} diverged from baseline {:#018x}",
            report.replicated.routes_digest, report.baseline.routes_digest,
        ));
    }
    if report.fenced_appends == 0 {
        fail("stale-epoch append was not refused (fence inactive)");
    }
    eprintln!(
        "carp-service: replication bench ok — failover digest bit-identical, \
         no collisions, fence active"
    );
    std::process::exit(0);
}

/// Open-socket ladder (`--connections`): the same day driven through the
/// event-loop front-end under rising connection churn; emits
/// `BENCH_service_mux.json` and fails unless every rung's digest matches
/// the in-process run's and no rung audits a collision.
#[cfg(unix)]
fn run_ladder(opts: &Opts, cfg: ServiceConfig, connections: &[usize]) -> ! {
    let (layout, scenario) = bench_scenario(opts, "--connections");
    eprintln!(
        "carp-service: connection ladder {} — {} mux thread(s), rungs {:?}",
        scenario.name, opts.mux_threads, connections
    );
    let report = run_connection_ladder(
        &scenario,
        || srp(&layout),
        opts.sim.clone(),
        cfg,
        opts.mux_threads,
        connections,
    );
    for r in &report.rungs {
        eprintln!(
            "carp-service: {:>4} conns ({} churn): driver ack p50/p99 {}/{} us, churn \
             {} reqs ({}), digest {:#018x}, {} conflicts, mux peak {} fds, \
             {} polls, {} wakeups, {} partial reads / {} writes",
            r.connections,
            r.churn_connections,
            r.driver_ack.p50_us,
            r.driver_ack.p99_us,
            r.churn_requests,
            churn_ack_text(&r.churn_ack),
            r.routes_digest,
            r.audit_conflicts,
            r.mux.peak_registered,
            r.mux.polls,
            r.mux.wakeups,
            r.mux.partial_reads,
            r.mux.partial_writes,
        );
    }
    if let Some(ratio) = report.worst_driver_p99_ratio() {
        eprintln!("carp-service: worst driver ack p99 vs 1-connection baseline: {ratio:.2}x");
    }
    emit(opts, &report.to_json(), report.total_audit_conflicts());
    if !report.digests_match {
        fail(&format!(
            "a rung's digest diverged from the in-process run's {:#018x}",
            report.baseline_digest
        ));
    }
    eprintln!(
        "carp-service: connection ladder ok — every digest bit-identical to the \
         in-process run, no collisions"
    );
    std::process::exit(0);
}

/// A churn rung's ack latency, worded for its sample count: a tail
/// percentile is printed only when at least 10 samples lie beyond it
/// (beyond p99 that takes 1000 samples, beyond p95 200); below that, any
/// "p99" is just the run's largest sample, so p50 and max are printed.
#[cfg(unix)]
fn churn_ack_text(ack: &carp_service::LatencySummary) -> String {
    let beyond = |q: f64| ack.count as f64 * (1.0 - q);
    if beyond(0.99) >= 10.0 {
        format!("{} acks, p99 {} us", ack.count, ack.p99_us)
    } else if beyond(0.95) >= 10.0 {
        format!("{} acks, p95 {} us", ack.count, ack.p95_us)
    } else {
        format!(
            "{} acks, p50 {} us, max {} us",
            ack.count, ack.p50_us, ack.max_us
        )
    }
}

/// Multi-tenant load run, with the optional single-tenant conformance
/// replay. Returns the per-tenant reports (multi runs first, then any
/// serial baselines, labelled by tenant).
fn run_multi(opts: &Opts, profiles: &[TenantDayProfile], cfg: ServiceConfig) -> Vec<LoadReport> {
    let loads: Vec<TenantLoad<SrpPlanner>> = profiles
        .iter()
        .map(|p| {
            let layout = layout_for(&p.preset);
            TenantLoad {
                scenario: scenario_for(p, &layout),
                planner: srp(&layout),
                service_cfg: cfg,
            }
        })
        .collect();
    eprintln!(
        "carp-service: serving {} tenants concurrently...",
        profiles.len()
    );
    let mut reports: Vec<LoadReport> = run_load_multi(loads, opts.sim.clone())
        .into_iter()
        .map(|(report, _planner)| report)
        .collect();
    for r in &reports {
        print_run(r);
    }

    if opts.conformance {
        // Replay each tenant alone: the multi-tenant digest must match
        // bit-for-bit (tenants share nothing but CPU).
        let mut diverged = false;
        for (p, multi) in profiles.iter().zip(&reports.clone()) {
            let layout = layout_for(&p.preset);
            let (solo, _) = run_load(
                &scenario_for(p, &layout),
                srp(&layout),
                opts.sim.clone(),
                cfg,
            );
            let ok = solo.routes_digest == multi.routes_digest;
            eprintln!(
                "carp-service: conformance {}: multi {:#018x} vs solo {:#018x} — {}",
                p.id(),
                multi.routes_digest,
                solo.routes_digest,
                if ok { "ok" } else { "DIVERGED" }
            );
            diverged |= !ok;
            reports.push(solo);
        }
        if diverged {
            fail("multi-tenant digest diverged from single-tenant");
        }
    }
    reports
}

/// Classic single-tenant sweep: one run per rate multiplier. With `--wal`
/// each run journals into `PATH.<rate>x` (one sealed log per run).
fn run_single(opts: &Opts, cfg: ServiceConfig) -> Vec<LoadReport> {
    let layout = layout_for(&opts.preset);
    let mut runs = Vec::with_capacity(opts.rates.len());
    for &rate in &opts.rates {
        let scenario = preset_scenario(opts, &layout, rate);
        let planner = srp(&layout);
        eprintln!(
            "carp-service: running {} ({} tasks, seed {})...",
            scenario.name,
            scenario.tasks.len(),
            opts.seed
        );
        let (report, _planner) = if let Some(path) = &opts.wal {
            let journal = create_journal(&format!("{path}.{rate}x"));
            run_load_journaled(&scenario, planner, opts.sim.clone(), cfg, journal)
        } else {
            run_load(&scenario, planner, opts.sim.clone(), cfg)
        };
        print_run(&report);
        runs.push(report);
    }
    runs
}

fn main() {
    let opts = parse_opts();
    let service_cfg = ServiceConfig {
        deadline: if opts.deadline_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(opts.deadline_ms))
        },
        ..ServiceConfig::default()
    };

    #[cfg(not(unix))]
    if opts.listen.is_some() || opts.replication.is_some() || opts.connections.is_some() {
        usage_error("--listen, --replication and --connections need the unix poll(2) event loop");
    }
    let profiles = tenant_profiles(&opts);
    #[cfg(unix)]
    if let Some(addr) = &opts.listen {
        let profiles = if profiles.is_empty() {
            vec![TenantDayProfile {
                preset: opts.preset.clone(),
                ..TenantDayProfile::default()
            }]
        } else {
            profiles
        };
        run_daemon(addr, &profiles, service_cfg, &opts);
    }
    if opts.standby.is_some() {
        usage_error("--standby requires --listen");
    }
    if opts.follow.is_some() {
        usage_error("--follow requires --listen");
    }
    if let Some(wal_path) = &opts.recovery {
        run_recovery(&opts, service_cfg, wal_path);
    }
    #[cfg(unix)]
    if let Some(wal_path) = &opts.replication {
        run_replication(&opts, service_cfg, wal_path);
    }
    #[cfg(unix)]
    if let Some(connections) = &opts.connections {
        run_ladder(&opts, service_cfg, connections);
    }
    if opts.conformance && profiles.is_empty() {
        usage_error("--conformance requires --tenants (or sim-config tenants)");
    }

    let runs = if profiles.is_empty() {
        run_single(&opts, service_cfg)
    } else {
        run_multi(&opts, &profiles, service_cfg)
    };
    let bench = ServiceBenchReport::new(runs);
    emit(&opts, &bench.to_json(), bench.total_audit_conflicts());
}
