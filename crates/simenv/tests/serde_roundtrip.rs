//! Serde round-trips for the simulator's report types and `SimConfig`.

use carp_simenv::{DayReport, SimConfig, Snapshot};

fn sample_report() -> DayReport {
    DayReport {
        planner: "SRP",
        tasks: 120,
        completed: 118,
        planned_requests: 360,
        failed_requests: 2,
        makespan: 4032,
        planning_secs: 1.25,
        peak_memory_bytes: 9_000_000,
        snapshots: vec![
            Snapshot {
                progress: 0.5,
                sim_time: 2000,
                planning_secs: 0.6,
                memory_bytes: 7_500_000,
            },
            Snapshot {
                progress: 1.0,
                sim_time: 4032,
                planning_secs: 1.25,
                memory_bytes: 9_000_000,
            },
        ],
        audit_conflicts: 0,
        mean_task_latency: 33.4,
        throughput_per_hour: 105.0,
        retire_batch_size: 11.5,
        soft_bookings: 42,
        window_debt: 7,
    }
}

#[test]
fn day_report_round_trips_through_json() {
    let report = sample_report();
    let json = serde_json::to_string(&report).unwrap();
    let back: DayReport = serde_json::from_str(&json).unwrap();
    // DayReport carries f64s and a Vec, so compare via re-serialization:
    // equal JSON ⇒ equal observable content.
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    assert_eq!(back.planner, "SRP");
    assert_eq!(back.snapshots.len(), 2);
    assert_eq!(back.soft_bookings, 42);
    assert_eq!(back.window_debt, 7);
    assert!((back.retire_batch_size - 11.5).abs() < 1e-12);
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = Snapshot {
        progress: 0.42,
        sim_time: 1234,
        planning_secs: 0.125,
        memory_bytes: 4096,
    };
    let json = serde_json::to_string(&snap).unwrap();
    let back: Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    assert_eq!(back.sim_time, 1234);
    assert_eq!(back.memory_bytes, 4096);
}

#[test]
fn sim_config_round_trips_through_json() {
    let cfg = SimConfig {
        service_time: 9,
        retry_delay: 4,
        max_retries: 2,
        snapshot_tick: 0.05,
        audit: false,
        tenants: vec![carp_simenv::TenantDayProfile {
            tenant: "east".to_string(),
            preset: "W-2".to_string(),
            tasks: 120,
            horizon: 900,
            rate: 4.0,
            seed: 3,
        }],
    };
    let back = SimConfig::from_json(&cfg.to_json()).unwrap();
    assert_eq!(cfg, back);
    assert_eq!(back.tenants[0].id(), "east");

    // A profile without an explicit tenant name answers to its preset.
    let cfg = SimConfig::from_json(r#"{"tenants": [{"preset": "W-3"}]}"#).unwrap();
    assert_eq!(cfg.tenants[0].id(), "W-3");
    assert_eq!(cfg.tenants[0].tasks, 200, "unset fields take defaults");
}

#[test]
fn sim_config_partial_json_fills_defaults() {
    let cfg = SimConfig::from_json(r#"{"service_time": 3, "max_retries": 9}"#).unwrap();
    let defaults = SimConfig::default();
    assert_eq!(cfg.service_time, 3);
    assert_eq!(cfg.max_retries, 9);
    assert_eq!(cfg.retry_delay, defaults.retry_delay);
    assert_eq!(cfg.snapshot_tick, defaults.snapshot_tick);
    assert_eq!(cfg.audit, defaults.audit);

    // An empty document is the pure default config.
    assert_eq!(SimConfig::from_json("{}").unwrap(), defaults);
}

#[test]
fn sim_config_rejects_unknown_fields() {
    let err = SimConfig::from_json(r#"{"service_tiem": 3}"#);
    assert!(err.is_err(), "typoed field must not be silently dropped");
}
