//! Self-tests of the benchmark: the metric names it emits match
//! `BENCHMARK.json`, the collision gate trips on a corrupted route set, and
//! the traced planner leaves routes bit-identical.

use carp_daybench::day::{audit, run_day};
use carp_daybench::metrics::{self, Json, Metric};
use carp_daybench::shim::Path;
use carp_daybench::workload::WORKLOADS;
use carp_daybench::{gate, run};
use carp_warehouse::route::Route;
use carp_warehouse::types::Cell;
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;

/// Tasks per day in the reduced runs.
const TASKS: u32 = 24;

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{test}"));
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
}

/// `key` of every entry of `BENCHMARK.json`'s `section`.
fn listed_field(section: &str, key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let Json(spec) = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Seq(entries) = field(&spec, section) else {
        panic!("{section} is not a list");
    };
    entries
        .iter()
        .map(|e| field(e, key).as_str().expect("string field").to_string())
        .collect()
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let names = listed_field(section, "name");
    names
        .into_iter()
        .zip(listed_field(section, "unit"))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn workloads_match_the_listed_ones() {
    let names = listed_field("workloads", "name");
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn reduced_runs_emit_exactly_the_listed_metrics() {
    let dir = scratch("metrics");
    for w in &WORKLOADS {
        let run = run(w, TASKS, 7, 2, true, &dir).expect("reduced run");
        assert!(run.correct(), "{}: {:?}", w.name, run.failures);
        assert_eq!(run.days.len(), 2);
        assert_eq!(run.timed.setups.len(), 2);
        assert_eq!(run.traced.days.len(), 2);
        let e2e = metrics::end_to_end(&run, 1.0);
        assert_eq!(emitted(&e2e), listed("end_to_end"), "{}", w.name);
        let layers = metrics::per_layer(&run);
        assert_eq!(emitted(&layers), listed("per_layer"), "{}", w.name);
        for m in e2e.iter().chain(&layers) {
            assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
        }
        let json = metrics::result_json(true, 1, 0, &e2e);
        let Json(parsed) = serde_json::from_str(&json).expect("result line parses");
        let keys: Vec<&str> = parsed
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn corrupted_route_set_trips_the_collision_gate() {
    let w = &WORKLOADS[1];
    let mut day = run_day(w, TASKS, 11, false, &scratch("gate")).expect("reduced day");
    let mut days = Vec::new();
    let mut failures = Vec::new();
    gate(&day, 0, &mut days, &mut failures);
    assert!(failures.is_empty(), "{failures:?}");

    // Both routes stand on (1, 2) at t = 11.
    let a = Route::new(10, vec![Cell::new(1, 1), Cell::new(1, 2)]);
    let b = Route::new(10, vec![Cell::new(0, 2), Cell::new(1, 2)]);
    let clean = Route::new(12, b.grids.clone());
    let set = |r: &Route| HashMap::from([(0, a.clone()), (1, r.clone())]);
    assert!(audit(&set(&clean)).is_none());
    let conflict = audit(&set(&b)).expect("the corrupted set collides");
    assert_eq!((conflict.time, conflict.cell), (11, Cell::new(1, 2)));

    day.conflict = Some(conflict);
    gate(&day, 0, &mut days, &mut failures);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("collision"), "{failures:?}");
}

#[test]
fn traced_planner_leaves_routes_bit_identical() {
    let dir = scratch("shim");
    for w in &WORKLOADS {
        let bare = run_day(w, TASKS * 2, 5, false, &dir).expect("untraced day");
        let traced = run_day(w, TASKS * 2, 5, true, &dir).expect("traced day");
        assert!(bare.conflict.is_none() && traced.conflict.is_none());
        assert_eq!(bare.digest, traced.digest, "{}", w.name);
        assert_eq!(bare.makespan, traced.makespan, "{}", w.name);
        assert_eq!(bare.requests.len(), traced.requests.len(), "{}", w.name);
        let trace = traced.trace.as_ref().expect("traced day carries a trace");
        assert_eq!(trace.plans.len(), traced.requests.len(), "{}", w.name);
        assert_eq!(trace.bookkeeping.len(), trace.advances.len(), "{}", w.name);
        let routed = trace.plans.iter().filter(|p| p.path != Path::None).count();
        assert_eq!(routed, traced.planned(), "{}: every route booked", w.name);
    }
}

#[test]
fn self_times_subtract_covered_child_time() {
    let span = |name, start_ns, end_ns, parent| metrics::Span {
        name,
        start_ns,
        end_ns,
        parent,
        rid: None,
    };
    // Children cover 10..40 and 30..60 of 0..100: 50 ns covered.
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
    ];
    let totals = metrics::self_times(&spans);
    assert_eq!(totals, [("root", 50), ("a", 30), ("b", 30)]);
}

#[test]
fn host_factor_scales_every_timing_of_its_replay() {
    // Two replays of 2 and 1 requests; the first ran at half the
    // reference speed, the second at the reference speed.
    let replays = carp_daybench::Replays {
        walls: vec![4.0, 1.0],
        factors: vec![0.5, 1.0],
        requests: vec![2, 1],
        turnaround_ns: vec![1000, 3000, 700],
        ..Default::default()
    };
    assert_eq!(replays.turnaround_at_reference_ns(), [500, 1500, 700]);
    // 3 requests over 4 × 0.5 + 1 × 1 = 3 scaled seconds.
    assert_eq!(metrics::plans_per_s(&replays), 1.0);
}
