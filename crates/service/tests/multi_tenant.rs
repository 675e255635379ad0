//! Multi-tenant conformance: the tentpole determinism gate.
//!
//! One daemon serving W-1 and W-2 concurrently — each tenant on its own
//! connection, queue and planning worker — must commit, for every tenant,
//! the **bit-identical** route set that tenant gets from an isolated
//! single-tenant run. Tenants share nothing but CPU, so cross-tenant
//! interference can change wall-clock numbers but never a route. Checked
//! with zero audited collisions throughout.
//!
//! A TCP smoke rides along: the same frames over a real socket, served
//! by the event-loop front-end behind `--listen`, proving that path speaks
//! the in-process protocol.

use carp_service::loadgen::{run_load, run_load_multi, LoadScenario, TenantLoad};
use carp_service::service::{PlanResponse, ServiceConfig};
use carp_service::tenant::TenantRegistry;
use carp_service::wire::{WireClient, WireSubmitError};
use carp_simenv::SimConfig;
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::{Layout, LayoutConfig, WarehousePreset};
use carp_warehouse::tasks::generate_requests;
use std::sync::Arc;

fn srp(layout: &Layout) -> SrpPlanner {
    SrpPlanner::new(layout.matrix.clone(), SrpConfig::default())
}

/// Deadline-free config: the bit-determinism regime.
fn cfg() -> ServiceConfig {
    ServiceConfig {
        deadline: None,
        ..ServiceConfig::default()
    }
}

#[test]
fn two_tenant_digests_match_single_tenant_runs() {
    let w1 = WarehousePreset::W1.generate();
    let w2 = WarehousePreset::W2.generate();
    let sim = SimConfig::default();
    let s1 = LoadScenario::new("W-1", w1.clone(), 40, 500, 2.0, 11);
    let s2 = LoadScenario::new("W-2", w2.clone(), 60, 600, 4.0, 104);

    // Isolated single-tenant baselines.
    let (solo1, _) = run_load(&s1, srp(&w1), sim.clone(), cfg());
    let (solo2, _) = run_load(&s2, srp(&w2), sim.clone(), cfg());
    assert_eq!(solo1.audit_conflicts, 0, "solo W-1 audited a collision");
    assert_eq!(solo2.audit_conflicts, 0, "solo W-2 audited a collision");
    assert_ne!(
        solo1.routes_digest, solo2.routes_digest,
        "distinct days must not share a digest"
    );

    let reports = run_load_multi(
        vec![
            TenantLoad {
                scenario: s1.clone(),
                planner: srp(&w1),
                service_cfg: cfg(),
            },
            TenantLoad {
                scenario: s2.clone(),
                planner: srp(&w2),
                service_cfg: cfg(),
            },
        ],
        sim,
    );
    assert_eq!(reports.len(), 2);
    let (r1, _) = &reports[0];
    let (r2, _) = &reports[1];
    assert_eq!(r1.tenant, "W-1");
    assert_eq!(r2.tenant, "W-2");
    assert_eq!(r1.audit_conflicts, 0, "multi W-1 audited a collision");
    assert_eq!(r2.audit_conflicts, 0, "multi W-2 audited a collision");
    assert_eq!(
        r1.routes_digest, solo1.routes_digest,
        "W-1 digest diverged from its solo run"
    );
    assert_eq!(
        r2.routes_digest, solo2.routes_digest,
        "W-2 digest diverged from its solo run"
    );
    assert_eq!(r1.completed, solo1.completed);
    assert_eq!(r2.completed, solo2.completed);
    // The wire layer actually carried the traffic.
    assert!(
        r1.wire.frames_received as usize >= r1.requests,
        "W-1 wire counters missed its submissions"
    );
    assert!(r2.wire.frames_sent > 0, "W-2 daemon sent no frames");
}

/// The same protocol over a real TCP socket: submit a few requests, plan
/// them, read metrics, and reject an unknown tenant — all through
/// `serve_tcp_mux`, the daemon's TCP server.
#[cfg(unix)]
#[test]
fn tcp_transport_speaks_the_same_protocol() {
    use carp_service::{serve_tcp_mux, MuxConfig, MuxMetrics};
    use std::sync::atomic::{AtomicBool, Ordering};

    let layout = LayoutConfig::small().generate();
    let registry = Arc::new(TenantRegistry::new());
    registry.register("small", srp(&layout), cfg());

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::new(MuxMetrics::default());
        std::thread::spawn(move || {
            serve_tcp_mux(listener, registry, shutdown, MuxConfig::default(), metrics)
        })
    };

    let mut client = WireClient::connect(addr).expect("connect");

    let requests = generate_requests(&layout, 3, 1.0, 42);
    for request in &requests {
        client.submit("small", request).expect("submit over TCP");
    }
    for request in &requests {
        match client.wait_plan(request.id).expect("reply over TCP") {
            PlanResponse::Planned(route) => {
                assert!(!route.grids.is_empty(), "planned route has no cells")
            }
            other => panic!("request {} got {other:?}", request.id),
        }
    }
    assert_eq!(
        client.submit("nowhere", &requests[0]),
        Err(WireSubmitError::UnknownTenant),
        "unknown tenant must be refused, not dropped"
    );
    let (metrics, wire) = client.metrics("small").expect("metrics over TCP");
    assert_eq!(metrics.planned, requests.len() as u64);
    assert!(wire.frames_received >= requests.len() as u64);
    assert!(wire.frames_sent >= requests.len() as u64);

    drop(client);
    shutdown.store(true, Ordering::SeqCst);
    server
        .join()
        .expect("server thread")
        .expect("mux exits clean");
    registry.remove("small").expect("tenant still registered");
}
