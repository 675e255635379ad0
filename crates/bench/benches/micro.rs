//! Criterion micro-benchmarks for the performance-critical kernels:
//!
//! * segment collision queries — naive ordered set (§V-B) vs slope index
//!   (§V-D), the micro version of Fig. 22(b);
//! * strip-graph construction (Algorithm 1, the Table II extraction);
//! * intra-strip backtracking (Algorithm 2), one leg and every exit of a
//!   strip;
//! * one end-to-end `plan()` call per planner on the W-1 preset with
//!   committed background traffic (the TC kernel of Figs. 16–18).

use carp_baselines::{AcpConfig, AcpPlanner, SapPlanner};
use carp_geometry::{NaiveStore, Segment, SegmentStore, SlopeIndexStore};
use carp_spacetime::AStarConfig;
use carp_srp::intra::{arrival_at, plan_within_cost, IntraSweep};
use carp_srp::{IntraConfig, SrpConfig, SrpPlanner, StripGraph};
use carp_warehouse::layout::WarehousePreset;
use carp_warehouse::tasks::generate_requests;
use carp_warehouse::Planner;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_segment(rng: &mut StdRng, t_span: u32, s_span: i32) -> Segment {
    let t0 = rng.gen_range(0..t_span);
    let s0 = rng.gen_range(0..s_span);
    match rng.gen_range(0..3) {
        0 => Segment::wait(t0, t0 + rng.gen_range(0..10u32), s0),
        1 => Segment::travel(t0, s0, rng.gen_range(s0..s_span)),
        _ => Segment::travel(t0, s0, rng.gen_range(0..=s0)),
    }
}

/// Draws one segment of a store population or query set.
type SegmentGen = fn(&mut StdRng, u32, i32) -> Segment;

/// A segment that moves 9 times in 10, the traffic of a busy aisle.
fn mover_heavy_segment(rng: &mut StdRng, t_span: u32, s_span: i32) -> Segment {
    let wait_ok = rng.gen_range(0..10) == 0;
    loop {
        let seg = random_segment(rng, t_span, s_span);
        if wait_ok || seg.slope() != 0 {
            return seg;
        }
    }
}

fn bench_collision_stores(c: &mut Criterion) {
    let mut group = c.benchmark_group("collision_query");
    let populations: [(&str, usize, SegmentGen); 4] = [
        ("100", 100, random_segment),
        ("1000", 1000, random_segment),
        ("5000", 5000, random_segment),
        // Mostly movers: the slope index answers these by key range.
        ("movers_1000", 1000, mover_heavy_segment),
    ];
    for (label, n, gen) in populations {
        let mut rng = StdRng::seed_from_u64(42);
        let mut naive = NaiveStore::new();
        let mut index = SlopeIndexStore::new();
        for _ in 0..n {
            let s = gen(&mut rng, 2000, 60);
            naive.insert(s);
            index.insert(s);
        }
        let queries: Vec<Segment> = (0..256).map(|_| gen(&mut rng, 2000, 60)).collect();
        group.bench_function(format!("naive/{label}"), |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(naive.earliest_collision(&queries[i]))
            })
        });
        group.bench_function(format!("slope_index/{label}"), |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(index.earliest_collision(&queries[i]))
            })
        });
    }
    group.finish();
}

fn bench_store_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_insert");
    let mut rng = StdRng::seed_from_u64(7);
    let segs: Vec<Segment> = (0..1000)
        .map(|_| random_segment(&mut rng, 2000, 60))
        .collect();
    group.bench_function("naive/1000", |b| {
        b.iter_batched(
            NaiveStore::new,
            |mut store| {
                for s in &segs {
                    store.insert(*s);
                }
                store
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("slope_index/1000", |b| {
        b.iter_batched(
            SlopeIndexStore::new,
            |mut store| {
                for s in &segs {
                    store.insert(*s);
                }
                store
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_strip_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("strip_graph_build");
    group.sample_size(20);
    for preset in WarehousePreset::ALL {
        let layout = preset.generate();
        group.bench_function(preset.name(), |b| {
            b.iter(|| black_box(StripGraph::build(&layout.matrix)))
        });
    }
    group.finish();
}

fn bench_intra(c: &mut Criterion) {
    let mut group = c.benchmark_group("intra_strip_plan");
    // A busy strip: 200 segments over a 100-grid strip.
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = SlopeIndexStore::new();
    for _ in 0..200 {
        store.insert(random_segment(&mut rng, 500, 100));
    }
    let cfg = IntraConfig::default();
    // Entry times every 7 ticks whose entry point is free: the intra
    // search's caller must probe the entry before planning from it.
    let entries: Vec<u32> = (0..400)
        .step_by(7)
        .filter(|&t| store.earliest_collision(&Segment::point(t, 0)).is_none())
        .collect();
    let mut i = 0;
    group.bench_function("busy_strip_200segs", |b| {
        b.iter(|| {
            i = (i + 1) % entries.len();
            black_box(carp_srp::intra::plan_within(
                &store, entries[i], 0, 99, &cfg,
            ))
        })
    });
    // Every exit of the strip from one entry: a search per exit, as the
    // strip search once priced a settled strip's edges, against the one
    // pass toward the strip's end that it runs now.
    group.bench_function("all_exits/per_exit", |b| {
        b.iter(|| {
            i = (i + 1) % entries.len();
            for x in 1..100 {
                black_box(plan_within_cost(&store, entries[i], 0, x, &cfg));
            }
        })
    });
    let mut sweep = IntraSweep::default();
    group.bench_function("all_exits/one_pass", |b| {
        b.iter(|| {
            i = (i + 1) % entries.len();
            sweep.clear();
            sweep.run(&store, entries[i], 0, 99, &cfg);
            for x in 1..100 {
                black_box(arrival_at(sweep.covers(), 0, x));
            }
        })
    });
    group.finish();
}

fn bench_planner_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_one_request_w1");
    group.sample_size(30);
    let layout = WarehousePreset::W1.generate();
    let background = generate_requests(&layout, 300, 2.0, 11);
    let probes = generate_requests(&layout, 512, 2.0, 13);

    // Each planner carries committed background traffic; iterations run on
    // clones so state never accumulates across samples (clone time is
    // setup, excluded from the measurement).
    let srp = {
        let mut p = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
        for req in &background {
            p.plan(req);
        }
        p
    };
    let mut i = 0;
    group.bench_function("SRP", |b| {
        b.iter_batched(
            || srp.clone(),
            |mut p| {
                i = (i + 1) % probes.len();
                black_box(p.plan(&probes[i]))
            },
            BatchSize::LargeInput,
        )
    });

    let sap = {
        let mut p = SapPlanner::new(layout.matrix.clone(), AStarConfig::default());
        for req in &background {
            p.plan(req);
        }
        p
    };
    let mut i = 0;
    group.bench_function("SAP", |b| {
        b.iter_batched(
            || sap.clone(),
            |mut p| {
                i = (i + 1) % probes.len();
                black_box(p.plan(&probes[i]))
            },
            BatchSize::LargeInput,
        )
    });

    let acp = {
        let mut p = AcpPlanner::new(layout.matrix.clone(), AcpConfig::default());
        for req in &background {
            p.plan(req);
        }
        p
    };
    let mut i = 0;
    group.bench_function("ACP", |b| {
        b.iter_batched(
            || acp.clone(),
            |mut p| {
                i = (i + 1) % probes.len();
                black_box(p.plan(&probes[i]))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_collision_stores,
    bench_store_insert,
    bench_strip_graph,
    bench_intra,
    bench_planner_plan
);
criterion_main!(benches);
