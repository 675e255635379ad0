//! End-to-end load runs through the service: determinism, zero audited
//! collisions, and deadline behaviour under real planners.

use carp_service::loadgen::{run_load, LoadScenario};
use carp_service::service::ServiceConfig;
use carp_simenv::SimConfig;
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::{Layout, LayoutConfig, WarehousePreset};
use std::time::Duration;

fn srp(layout: &Layout) -> SrpPlanner {
    SrpPlanner::new(layout.matrix.clone(), SrpConfig::default())
}

fn deterministic_cfg() -> ServiceConfig {
    ServiceConfig {
        deadline: None,
        ..ServiceConfig::default()
    }
}

/// Two identical runs must produce the identical task stream and the
/// identical committed route set (pinned by the digest).
#[test]
fn same_seed_and_rate_is_bit_deterministic() {
    let layout = LayoutConfig::small().generate();
    let scenario_a = LoadScenario::new("small@2x", layout.clone(), 40, 400, 2.0, 11);
    let scenario_b = LoadScenario::new("small@2x", layout.clone(), 40, 400, 2.0, 11);
    assert_eq!(scenario_a.tasks, scenario_b.tasks, "task stream differs");

    let (ra, _) = run_load(
        &scenario_a,
        srp(&layout),
        SimConfig::default(),
        deterministic_cfg(),
    );
    let (rb, _) = run_load(
        &scenario_b,
        srp(&layout),
        SimConfig::default(),
        deterministic_cfg(),
    );
    assert_eq!(ra.audit_conflicts, 0);
    assert_eq!(rb.audit_conflicts, 0);
    assert_eq!(
        ra.routes_digest, rb.routes_digest,
        "committed routes differ"
    );
    assert_eq!(ra.service.planned, rb.service.planned);
    assert_eq!(ra.makespan, rb.makespan);
}

/// A different seed must actually change the committed routes — otherwise
/// the digest test above is vacuous.
#[test]
fn different_seed_changes_the_digest() {
    let layout = LayoutConfig::small().generate();
    let a = LoadScenario::new("s", layout.clone(), 40, 400, 1.0, 11);
    let b = LoadScenario::new("s", layout.clone(), 40, 400, 1.0, 12);
    let (ra, _) = run_load(&a, srp(&layout), SimConfig::default(), deterministic_cfg());
    let (rb, _) = run_load(&b, srp(&layout), SimConfig::default(), deterministic_cfg());
    assert_ne!(ra.routes_digest, rb.routes_digest);
}

/// The acceptance scenario: a W-2 load at 1× and 4× completes with zero
/// audited collisions, and the 1× run is reproducible.
#[test]
fn w2_load_at_1x_and_4x_is_collision_free_and_deterministic() {
    let layout = WarehousePreset::W2.generate();
    let sim = SimConfig::default();

    let s1 = LoadScenario::new("W-2@1x", layout.clone(), 60, 600, 1.0, 104);
    let (r1, _) = run_load(&s1, srp(&layout), sim.clone(), deterministic_cfg());
    assert_eq!(r1.audit_conflicts, 0, "W-2@1x audited a collision");
    assert_eq!(r1.completed, 60);

    let s4 = LoadScenario::new("W-2@4x", layout.clone(), 60, 600, 4.0, 104);
    let (r4, _) = run_load(&s4, srp(&layout), sim.clone(), deterministic_cfg());
    assert_eq!(r4.audit_conflicts, 0, "W-2@4x audited a collision");
    assert_eq!(r4.completed, 60);

    let s1b = LoadScenario::new("W-2@1x", layout.clone(), 60, 600, 1.0, 104);
    let (r1b, _) = run_load(&s1b, srp(&layout), sim, deterministic_cfg());
    assert_eq!(
        r1.routes_digest, r1b.routes_digest,
        "W-2@1x not reproducible"
    );

    // Absolute pins of the committed route sets. Only a change that is
    // meant to alter routes (planner search rules, the task generator, the
    // day workflow or the digest itself) may re-pin these, and it must say
    // so; a refactor or speedup that moves them is a bug.
    assert_eq!(
        r1.routes_digest, 16920713747252020565,
        "W-2@1x routes moved"
    );
    assert_eq!(r4.routes_digest, 282179651509069869, "W-2@4x routes moved");
    assert_eq!((r1.makespan, r4.makespan), (1094, 886));
}

/// An impossible deadline refuses every request but never stalls the run:
/// legs exhaust their retries and the harness terminates with zero
/// completed tasks and a full refusal ledger.
#[test]
fn impossible_deadline_refuses_instead_of_stalling() {
    let layout = LayoutConfig::small().generate();
    let scenario = LoadScenario::new("small@1x", layout.clone(), 10, 100, 1.0, 3);
    let cfg = ServiceConfig {
        deadline: Some(Duration::from_nanos(1)),
        ..ServiceConfig::default()
    };
    let (report, _) = run_load(&scenario, srp(&layout), SimConfig::default(), cfg);
    assert_eq!(report.completed, 0, "nothing can meet a 1 ns deadline");
    assert!(report.refused_requests > 0, "refusals were not counted");
    assert!(
        report.service.shed_deadline + report.service.cancelled_deadline > 0,
        "deadline counters stayed zero"
    );
    assert!(report.refusal_rate > 0.0);
    // Whatever did get committed (possibly nothing) must still audit clean.
    assert_eq!(report.audit_conflicts, 0);
}
