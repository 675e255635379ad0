//! `daybench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Replays warehouse days of one workload through the in-process daemon,
//! with the process pinned to one CPU, and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `attempted` counts submitted requests; `failed` counts task
//! legs given up after the retry budget. A human-readable summary goes to
//! standard error. `S` sets how many days the run replays: as many as take
//! about `S` seconds on the reference host, so every version of the program
//! does the same work. Exits 1 when the correctness gate fails and 2 on bad
//! arguments.

use carp_daybench::affinity::pin_to_one_cpu;
use carp_daybench::metrics::{self, Metric};
use carp_daybench::workload::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::exit;

/// Traced days whose spans are written out. The self times cover every
/// traced day; the file keeps a few, so a run writes megabytes, not the
/// hundreds a full `small-tcp-wal` run would.
const SPAN_DAYS: usize = 4;

const USAGE: &str = "usage: daybench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("daybench: {msg}\n{USAGE}");
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    exit(2)
}

fn parse() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (104, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |_| usage(&format!("bad value for {flag}: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(bad),
            "--seconds" => seconds = value.parse().unwrap_or_else(bad),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Resident high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = parse();
    let w = args.workload;
    let cpu = pin_to_one_cpu();
    let scratch = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("daybench: cannot create {}: {e}", scratch.display());
        exit(1);
    }
    // The traced run replays each day twice, so it covers half the days.
    let days = match args.trace {
        false => w.days(args.seconds),
        true => w.days(args.seconds).div_ceil(2),
    };
    let run = match carp_daybench::run(&w, w.tasks, args.seed, days, args.trace, &scratch) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("daybench: {} seed {}: {e}", w.name, args.seed);
            exit(1);
        }
    };

    let (timed, traced) = (&run.timed, &run.traced);
    let attempted = timed.submitted() + traced.submitted();
    let failed = timed.abandoned + traced.abandoned;
    let digest = run
        .days
        .iter()
        .fold(0u64, |h, d| h.rotate_left(5) ^ d.digest);
    eprintln!(
        "daybench: {} seed {}: {} days{}, {} requests ({} traced), pinned to cpu {}, routes digest {:#018x}",
        w.name,
        args.seed,
        days,
        if args.trace { ", each untraced then traced" } else { "" },
        attempted,
        traced.submitted(),
        cpu.map_or("none".to_string(), |c| c.to_string()),
        digest
    );
    for (j, d) in run.days.iter().enumerate() {
        eprintln!(
            "  day seed {}: {} requests, makespan {} sim_s, digest {:#018x}, wall {:.4} s, host factor {:.3}",
            d.seed, timed.requests[j], d.makespan, d.digest, timed.walls[j], timed.factors[j],
        );
    }
    eprintln!("untraced replays as the wall clock read them:");
    print_metrics(&metrics::unscaled(timed));
    let result = if args.trace {
        let mut totals: Vec<(&str, u64)> = Vec::new();
        let mut jsonl = String::new();
        for (j, d) in traced.days.iter().enumerate() {
            let spans = metrics::spans(d);
            for (name, ns) in metrics::self_times(&spans) {
                match totals.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, t)) => *t += ns,
                    None => totals.push((name, ns)),
                }
            }
            if j < SPAN_DAYS {
                jsonl.push_str(&metrics::spans_jsonl(d, &spans));
            }
        }
        let path = scratch.join(format!("{}-spans.jsonl", w.name));
        match std::fs::write(&path, jsonl) {
            Ok(()) => eprintln!("daybench: spans written to {}", path.display()),
            Err(e) => eprintln!("daybench: cannot write {}: {e}", path.display()),
        }
        // Every span descends from a request or an advance round trip, so
        // self times add up to the client's summed round-trip time.
        let total: u64 = totals.iter().map(|&(_, ns)| ns).sum();
        eprintln!(
            "self time per layer, share of client round-trip time ({:.3} s):",
            total as f64 / 1e9
        );
        for (name, ns) in totals {
            eprintln!("  {name:<18} {:>7.2}%", ns as f64 / total as f64 * 100.0);
        }
        metrics::per_layer(&run)
    } else {
        metrics::end_to_end(&run, peak_rss_mb())
    };
    eprintln!("metrics:");
    print_metrics(&result);
    for f in &run.failures {
        eprintln!("daybench: GATE FAILED: {f}");
    }
    println!(
        "{}",
        metrics::result_json(run.correct(), attempted, failed as usize, &result)
    );
    if !run.correct() {
        exit(1);
    }
}
