//! From days to metrics: exact order statistics over raw client-side
//! samples, the per-layer numbers of the traced days, the span tree with
//! self times, and the one-line JSON result.

use crate::day::{Day, DayTrace, Setup};
use crate::shim::Path;
use crate::{Replays, Run};
use serde::Value;
use std::collections::HashMap;

/// A JSON tree that passes through the serde stand-ins as-is.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The `q`-quantile of `samples` by nearest rank (an element of the
/// sample, never interpolated); 0 for an empty sample.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Answered requests per wall second at the reference host speed: every
/// replay's requests over the sum of its drive-loop wall time, each scaled
/// by the replay's host factor.
pub fn plans_per_s(replays: &Replays) -> f64 {
    let wall: f64 = replays
        .walls
        .iter()
        .zip(&replays.factors)
        .map(|(w, f)| w * f)
        .sum();
    replays.submitted() as f64 / wall
}

/// The end-to-end metrics, from the untraced replays of `run`: throughput
/// and the turnaround quantiles over every request of every replay, the
/// served share, the mean makespan over the days and the median set-up.
/// Times are at the reference host speed. `peak_rss_mb` is the process's
/// resident high-water mark.
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<Metric> {
    let timed = &run.timed;
    let mut turnaround = timed.turnaround_at_reference_ns();
    let makespans: Vec<f64> = run.days.iter().map(|d| f64::from(d.makespan)).collect();
    let setups: Vec<f64> = timed
        .setups
        .iter()
        .zip(&timed.factors)
        .map(|(s, f)| s.total_s() * f)
        .collect();
    vec![
        metric("plans_per_s", "1/s", plans_per_s(timed)),
        metric(
            "turnaround_p50_us",
            "us",
            us(quantile(&mut turnaround, 0.50)),
        ),
        metric(
            "turnaround_p99_us",
            "us",
            us(quantile(&mut turnaround, 0.99)),
        ),
        metric(
            "served_share",
            "share",
            timed.planned as f64 / timed.submitted() as f64,
        ),
        metric(
            "makespan_sim_s",
            "sim_s",
            makespans.iter().sum::<f64>() / makespans.len() as f64,
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("setup_s", "s", median(&setups)),
    ]
}

/// The timing metrics as the wall clock read them, without the host
/// factor, and the median host factor: for the readable summary.
pub fn unscaled(replays: &Replays) -> Vec<Metric> {
    let mut turnaround = replays.turnaround_ns.clone();
    let wall: f64 = replays.walls.iter().sum();
    vec![
        metric("plans_per_s", "1/s", replays.submitted() as f64 / wall),
        metric(
            "turnaround_p50_us",
            "us",
            us(quantile(&mut turnaround, 0.50)),
        ),
        metric(
            "turnaround_p99_us",
            "us",
            us(quantile(&mut turnaround, 0.99)),
        ),
        metric("host.factor", "ratio", median(&replays.factors)),
    ]
}

/// A traced interval, in nanoseconds since its day's epoch. Spans of one
/// request share `rid`; `parent` indexes the day's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The request, for request spans.
    pub rid: Option<u64>,
}

/// The span tree of one traced day. Per request: `request` (submit to
/// reply) with children `service.queue` (submit to plan start, itself
/// holding `wire.submit`, the submit-to-ack round trip up to plan start),
/// `planner.plan`
/// and `service.reply` (plan end to reply in hand). Per burst:
/// `client.advance` holding the worker's `planner.advance` and the traced
/// planner's own bookkeeping before it, `harness.trace`.
pub fn spans(day: &Day) -> Vec<Span> {
    let Some(trace) = &day.trace else {
        return Vec::new();
    };
    let plans: HashMap<u64, (u64, u64)> = trace
        .plans
        .iter()
        .map(|p| (p.rid, (p.start_ns, p.end_ns)))
        .collect();
    let mut out = Vec::with_capacity(day.requests.len() * 5 + day.client_advances.len() * 3);
    let push = |out: &mut Vec<Span>, name, start_ns, end_ns, parent, rid| {
        out.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rid,
        });
        out.len() - 1
    };
    for r in &day.requests {
        let rid = Some(r.rid);
        let (plan_start, plan_end) = plans[&r.rid];
        let root = push(&mut out, "request", r.submit_ns, r.reply_ns, None, rid);
        let queue = push(
            &mut out,
            "service.queue",
            r.submit_ns,
            plan_start,
            Some(root),
            rid,
        );
        // The ack can arrive after planning began; the span keeps only the
        // part inside its parent, so self times tile the round trip.
        push(
            &mut out,
            "wire.submit",
            r.submit_ns,
            r.ack_ns.min(plan_start),
            Some(queue),
            rid,
        );
        push(
            &mut out,
            "planner.plan",
            plan_start,
            plan_end,
            Some(root),
            rid,
        );
        push(
            &mut out,
            "service.reply",
            plan_end,
            r.reply_ns,
            Some(root),
            rid,
        );
    }
    // One worker `advance` per client `advance`, in the same order.
    let worker = trace.advances.iter().zip(&trace.bookkeeping);
    for (&(cs, ce), (&(ws, we), &(bs, be))) in day.client_advances.iter().zip(worker) {
        let root = push(&mut out, "client.advance", cs, ce, None, None);
        push(&mut out, "harness.trace", bs, be, Some(root), None);
        push(&mut out, "planner.advance", ws, we, Some(root), None);
    }
    out
}

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover, summed.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let (mut union, mut reach) = (0, s.start_ns);
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(union);
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

/// The per-layer metrics, from every traced replay (and the timed ones,
/// for the tracing overhead). Counts and busy times are means per replay;
/// latencies are order statistics over the requests of every traced
/// replay; set-up steps are medians over the traced replays. Unlike the
/// end-to-end metrics, times are as the wall clock read them; `host.factor`
/// gives the host's speed.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let days = &run.traced.days;
    let n = days.len() as f64;
    let per_day = |f: &dyn Fn(&Day) -> f64| days.iter().map(f).sum::<f64>() / n;
    let traces: Vec<&DayTrace> = days
        .iter()
        .map(|d| d.trace.as_ref().expect("traced day carries a trace"))
        .collect();
    let mut out = Vec::new();

    // srp::planner — search paths, retries and fallbacks.
    let plan_ns: Vec<(Path, u64)> = traces
        .iter()
        .flat_map(|t| t.plans.iter().map(|p| (p.path, p.end_ns - p.start_ns)))
        .collect();
    let plan_total: u64 = plan_ns.iter().map(|&(_, d)| d).sum();
    out.push(metric("planner.plan_s", "s", plan_total as f64 / 1e9 / n));
    for path in [Path::Direct, Path::Retry, Path::Fallback] {
        let mut d: Vec<u64> = plan_ns
            .iter()
            .filter(|&&(p, _)| p == path)
            .map(|&(_, d)| d)
            .collect();
        let total: u64 = d.iter().sum();
        let label = path.label();
        out.push(metric(
            format!("planner.{label}.n"),
            "count",
            d.len() as f64 / n,
        ));
        out.push(metric(
            format!("planner.{label}.p50_us"),
            "us",
            us(quantile(&mut d, 0.5)),
        ));
        out.push(metric(
            format!("planner.{label}.total_s"),
            "s",
            total as f64 / 1e9 / n,
        ));
    }
    let mut sorted: Vec<u64> = plan_ns.iter().map(|&(_, d)| d).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let slow: u64 = sorted[..sorted.len().div_ceil(100)].iter().sum();
    out.push(metric(
        "planner.slow1pct_share",
        "share",
        slow as f64 / plan_total as f64,
    ));
    let advance_ns: u64 = traces
        .iter()
        .flat_map(|t| t.advances.iter().map(|&(s, e)| e - s))
        .sum();
    let turnaround: u64 = days
        .iter()
        .flat_map(|d| d.requests.iter().map(|r| r.reply_ns - r.submit_ns))
        .sum();
    out.push(metric(
        "planner.turnaround_share",
        "share",
        plan_total as f64 / turnaround as f64,
    ));
    let wall: f64 = days.iter().map(|d| d.wall_s).sum();
    out.push(metric(
        "planner.wall_share",
        "share",
        (plan_total + advance_ns) as f64 / 1e9 / wall,
    ));
    out.push(metric(
        "planner.mem_peak_mb",
        "MB",
        traces.iter().map(|t| t.mem_peak_bytes).max().unwrap_or(0) as f64 / (1 << 20) as f64,
    ));

    // srp::intra, srp::convert and the inter-strip bookkeeping.
    let srp =
        |f: &dyn Fn(&carp_srp::SrpStats) -> f64| traces.iter().map(|t| f(&t.srp)).sum::<f64>() / n;
    out.push(metric(
        "srp.intra_s",
        "s",
        srp(&|s| s.intra_ns as f64 / 1e9),
    ));
    out.push(metric(
        "srp.inter_s",
        "s",
        srp(&|s| s.inter_ns as f64 / 1e9),
    ));
    out.push(metric(
        "srp.convert_s",
        "s",
        srp(&|s| s.convert_ns as f64 / 1e9),
    ));
    out.push(metric(
        "srp.intra_calls",
        "count",
        srp(&|s| s.intra_calls as f64),
    ));
    out.push(metric(
        "srp.strips_settled",
        "count",
        srp(&|s| s.strips_settled as f64),
    ));

    // Retirement and the geometry engine.
    out.push(metric(
        "planner.advance.n",
        "count",
        traces.iter().map(|t| t.advances.len()).sum::<usize>() as f64 / n,
    ));
    out.push(metric(
        "planner.advance_s",
        "s",
        advance_ns as f64 / 1e9 / n,
    ));
    let engine = |f: &dyn Fn(&carp_warehouse::planner::EngineMetrics) -> f64| {
        traces
            .iter()
            .map(|t| t.engine.as_ref().map_or(0.0, f))
            .sum::<f64>()
            / n
    };
    out.push(metric(
        "geometry.probe_queries",
        "count",
        engine(&|e| e.probe_queries as f64),
    ));
    out.push(metric(
        "geometry.retire_batch_size",
        "count",
        engine(&|e| e.retire_batch_size),
    ));
    out.push(metric(
        "geometry.segments_peak",
        "count",
        traces.iter().map(|t| t.segments_peak).max().unwrap_or(0) as f64,
    ));
    out.push(metric(
        "spacetime.fallback_peak_kb",
        "KB",
        traces
            .iter()
            .map(|t| t.srp.fallback_peak_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1024.0,
    ));

    // service: queue hand-off, worker, reply.
    let mut queue_wait = Vec::new();
    let mut reply = Vec::new();
    let mut ack = Vec::new();
    for (d, t) in days.iter().zip(&traces) {
        let plans: HashMap<u64, (u64, u64)> = t
            .plans
            .iter()
            .map(|p| (p.rid, (p.start_ns, p.end_ns)))
            .collect();
        for r in &d.requests {
            let (start, end) = plans[&r.rid];
            queue_wait.push(start.saturating_sub(r.submit_ns));
            reply.push(r.reply_ns.saturating_sub(end));
            ack.push(r.ack_ns - r.submit_ns);
        }
    }
    out.push(metric(
        "service.queue_wait_p50_us",
        "us",
        us(quantile(&mut queue_wait, 0.5)),
    ));
    out.push(metric(
        "service.queue_wait_p99_us",
        "us",
        us(quantile(&mut queue_wait, 0.99)),
    ));
    out.push(metric(
        "service.reply_p50_us",
        "us",
        us(quantile(&mut reply, 0.5)),
    ));
    out.push(metric(
        "service.rejected_backpressure",
        "count",
        per_day(&|d| d.rejected_backpressure as f64),
    ));

    // wire.
    let planned = per_day(&|d| d.planned() as f64);
    out.push(metric("wire.ack_p50_us", "us", us(quantile(&mut ack, 0.5))));
    out.push(metric(
        "wire.ack_p99_us",
        "us",
        us(quantile(&mut ack, 0.99)),
    ));
    out.push(metric(
        "wire.frames_per_plan",
        "count",
        per_day(&|d| (d.wire.frames_received + d.wire.frames_sent) as f64) / planned,
    ));
    out.push(metric(
        "wire.bytes_per_plan",
        "B",
        per_day(&|d| (d.wire.bytes_received + d.wire.bytes_sent) as f64) / planned,
    ));

    // mux reactor (zero off the TCP path).
    let mux = |f: &dyn Fn(&carp_service::report::MuxCounters) -> f64| {
        per_day(&|d| d.mux.as_ref().map_or(0.0, f))
    };
    let frames = mux(&|m| (m.frames_in + m.frames_out) as f64);
    out.push(metric(
        "mux.polls_per_frame",
        "count",
        if frames > 0.0 {
            mux(&|m| m.polls as f64) / frames
        } else {
            0.0
        },
    ));
    out.push(metric(
        "mux.pipe_wakeups",
        "count",
        mux(&|m| m.pipe_wakeups as f64),
    ));
    out.push(metric(
        "mux.partial_writes",
        "count",
        mux(&|m| m.partial_writes as f64),
    ));

    // wal (zero when the journal is off).
    let wal = |f: &dyn Fn(&carp_service::wal::WalStats) -> f64| {
        per_day(&|d| d.wal.as_ref().map_or(0.0, f))
    };
    out.push(metric(
        "wal.appends_per_plan",
        "count",
        wal(&|w| w.appends as f64) / planned,
    ));
    out.push(metric(
        "wal.bytes_per_plan",
        "B",
        wal(&|w| w.bytes as f64) / planned,
    ));
    out.push(metric("wal.fsyncs", "count", wal(&|w| w.fsyncs as f64)));

    // Set-up steps, the harness itself, and what tracing costs.
    let setups = &run.traced.setups;
    let setup = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.push(metric("setup.layout_s", "s", setup(|s| s.layout_s)));
    out.push(metric(
        "setup.planner_build_s",
        "s",
        setup(|s| s.planner_build_s),
    ));
    out.push(metric("setup.daemon_s", "s", setup(|s| s.daemon_s)));
    out.push(metric("harness.audit_s", "s", median(&run.traced.audits)));
    out.push(metric(
        "harness.trace_s",
        "s",
        traces
            .iter()
            .flat_map(|t| t.bookkeeping.iter().map(|&(s, e)| e - s))
            .sum::<u64>() as f64
            / 1e9
            / n,
    ));
    out.push(metric("host.factor", "ratio", median(&run.traced.factors)));
    out.push(metric(
        "trace.overhead_share",
        "share",
        1.0 - plans_per_s(&run.traced) / plans_per_s(&run.timed),
    ));
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            (m.name.clone(), Value::Map(entry))
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted as u64)),
        ("failed".to_string(), Value::U64(failed as u64)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&Json(result)).expect("finite metric values")
}

/// One JSON object per span, one per line.
pub fn spans_jsonl(day: &Day, spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
        let line = Value::Map(vec![
            ("day".to_string(), Value::U64(day.seed)),
            ("id".to_string(), Value::U64(id as u64)),
            ("name".to_string(), Value::Str(s.name.to_string())),
            ("start_ns".to_string(), Value::U64(s.start_ns)),
            ("end_ns".to_string(), Value::U64(s.end_ns)),
            ("parent".to_string(), opt(s.parent.map(|p| p as u64))),
            ("rid".to_string(), opt(s.rid)),
        ]);
        out.push_str(&serde_json::to_string(&Json(line)).expect("span serializes"));
        out.push('\n');
    }
    out
}
