//! Cross-crate integration tests: every planner against the same streams,
//! audited by the ground-truth conflict semantics, plus cross-planner
//! effectiveness comparisons.

use srp_warehouse::prelude::*;
use srp_warehouse::warehouse::collision::validate_routes;

fn planners(layout: &LayoutConfig) -> Vec<Box<dyn Planner>> {
    let l = layout.generate();
    vec![
        Box::new(SrpPlanner::new(l.matrix.clone(), SrpConfig::default())),
        Box::new(SapPlanner::new(l.matrix.clone(), AStarConfig::default())),
        Box::new(RpPlanner::new(l.matrix.clone(), RpConfig::default())),
        Box::new(AcpPlanner::new(l.matrix.clone(), AcpConfig::default())),
    ]
}

#[test]
fn all_planners_survive_identical_request_stream() {
    let cfg = LayoutConfig::small();
    let layout = cfg.generate();
    let requests = generate_requests(&layout, 90, 3.0, 2024);
    for mut planner in planners(&cfg) {
        let mut planned = 0usize;
        let mut final_routes: Vec<(u64, Route)> = Vec::new();
        for req in &requests {
            if let PlanOutcome::Planned(r) = planner.plan(req) {
                assert!(
                    r.validate(&layout.matrix).is_ok(),
                    "{}: invalid route",
                    planner.name()
                );
                if planner.name() == "SRP" {
                    // SRP records where each route came from; the tag must be
                    // readable while the route is committed.
                    let p = planner.provenance(req.id).expect("SRP provenance");
                    assert!(p.contains("path="), "unexpected provenance format: {p}");
                }
                planned += 1;
                final_routes.push((req.id, r));
            }
            for (rid, revised) in planner.advance(req.t) {
                // Revisions replace earlier routes.
                assert!(revised.validate(&layout.matrix).is_ok());
                if let Some(slot) = final_routes.iter_mut().find(|(id, _)| *id == rid) {
                    slot.1 = revised;
                }
            }
        }
        assert!(
            planned >= 85,
            "{}: too many infeasible ({} of {})",
            planner.name(),
            requests.len() - planned,
            requests.len()
        );
        // The final route set must be mutually collision-free: the
        // incremental auditor accepts every post-revision route.
        let mut auditor = IncrementalAuditor::new();
        for (rid, r) in &final_routes {
            if let Err(c) = auditor.commit(*rid, r) {
                panic!(
                    "{}: audit refused route: {c}\n  existing: {}\n  incoming: {}",
                    planner.name(),
                    planner
                        .provenance(c.existing)
                        .unwrap_or_else(|| "unrecorded".into()),
                    planner
                        .provenance(c.incoming)
                        .unwrap_or_else(|| "unrecorded".into()),
                );
            }
        }
        assert_eq!(auditor.active(), final_routes.len());
    }
}

#[test]
fn srp_and_sap_routes_have_comparable_length() {
    let layout = LayoutConfig::small().generate();
    let requests = generate_requests(&layout, 60, 2.0, 7);
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let mut sap = SapPlanner::new(layout.matrix.clone(), AStarConfig::default());
    let (mut srp_total, mut sap_total) = (0u64, 0u64);
    for req in &requests {
        if let (Some(a), Some(b)) = (srp.plan(req).route(), sap.plan(req).route()) {
            srp_total += a.duration() as u64;
            sap_total += b.duration() as u64;
        }
    }
    let ratio = srp_total as f64 / sap_total as f64;
    // Theorem 1 bounds the per-route expectation by 1.788; aggregates on
    // light traffic should be much closer to 1.
    assert!(
        (0.95..1.30).contains(&ratio),
        "SRP/SAP total duration ratio {ratio:.3} ({srp_total} vs {sap_total})"
    );
}

#[test]
fn full_simulated_day_cross_planner_audit() {
    let layout = LayoutConfig::small().generate();
    let tasks = generate_tasks(&layout, &DayProfile::new(500, 35), 99);
    for kind in ["SRP", "SAP", "ACP"] {
        let planner: Box<dyn Planner> = match kind {
            "SRP" => Box::new(SrpPlanner::new(layout.matrix.clone(), SrpConfig::default())),
            "SAP" => Box::new(SapPlanner::new(
                layout.matrix.clone(),
                AStarConfig::default(),
            )),
            _ => Box::new(AcpPlanner::new(layout.matrix.clone(), AcpConfig::default())),
        };
        let (report, _) = Simulation::new(&layout, &tasks, planner, SimConfig::default()).run();
        assert_eq!(report.audit_conflicts, 0, "{kind} leaked conflicts");
        assert_eq!(
            report.completed, report.tasks,
            "{kind} left tasks unfinished"
        );
        assert!(
            report.makespan >= 500,
            "{kind}: makespan shorter than the day"
        );
    }
}

#[test]
fn segment_and_grid_representations_agree_on_collisions() {
    // Plan routes with SRP (segment-based collision state) and re-validate
    // every pair at grid level: if the representations disagreed, the audit
    // would find conflicts the segment stores missed.
    let layout = LayoutConfig::small().generate();
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    let requests = generate_requests(&layout, 150, 5.0, 1234);
    let mut routes = Vec::new();
    for req in &requests {
        if let PlanOutcome::Planned(r) = srp.plan(req) {
            routes.push(r);
        }
    }
    assert!(routes.len() > 140);
    assert_eq!(validate_routes(&routes), None);
}

#[test]
fn every_committed_route_has_provenance_in_all_three_planners() {
    // SRP tags planner paths, RP tags CBS group membership, TWP tags the
    // planning window: a committed route without provenance means an audit
    // trail gap, so the invariant holds across all three planners.
    let layout = LayoutConfig::small().generate();
    let requests = generate_requests(&layout, 60, 3.0, 11);
    let planners: Vec<Box<dyn Planner>> = vec![
        Box::new(SrpPlanner::new(layout.matrix.clone(), SrpConfig::default())),
        Box::new(RpPlanner::new(layout.matrix.clone(), RpConfig::default())),
        // A window covering the whole stream keeps TWP's optimistic
        // beyond-horizon commits out of play: this test is about provenance
        // bookkeeping, not windowed conflict deferral (twp_full_day covers
        // that), and the reservation table treats residual double bookings
        // as planner bugs in debug builds.
        Box::new(TwpPlanner::new(
            layout.matrix.clone(),
            TwpConfig {
                window: 4096,
                ..TwpConfig::default()
            },
        )),
    ];
    for mut planner in planners {
        let mut committed = 0usize;
        for req in &requests {
            if let PlanOutcome::Planned(_) = planner.plan(req) {
                committed += 1;
                let p = planner
                    .provenance(req.id)
                    .unwrap_or_else(|| panic!("{}: no provenance for {}", planner.name(), req.id));
                assert!(
                    !p.trim().is_empty(),
                    "{}: empty provenance for {}",
                    planner.name(),
                    req.id
                );
            }
            // Revisions (RP's CBS groups, TWP's window repairs) must keep the
            // tags of every revised route readable too.
            for (rid, _) in planner.advance(req.t) {
                assert!(
                    planner
                        .provenance(rid)
                        .is_some_and(|p| !p.trim().is_empty()),
                    "{}: revised route {rid} lost its provenance",
                    planner.name()
                );
            }
        }
        assert!(committed >= 50, "{}: too few planned", planner.name());
    }
}

#[test]
fn workspace_prelude_exposes_a_complete_api() {
    // Compile-time check that the prelude covers the typical workflow.
    let matrix = WarehouseMatrix::from_ascii(".....\n.##..\n.....");
    let mut planner = SrpPlanner::new(matrix, SrpConfig::default());
    let req = Request::new(0, 0, Cell::new(0, 0), Cell::new(2, 4), QueryKind::Pickup);
    let route = planner.plan(&req).route().cloned().expect("planned");
    assert_eq!(route.destination(), Cell::new(2, 4));
    assert!(planner.memory_bytes() > 0);
}
