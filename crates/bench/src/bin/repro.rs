//! `repro` — regenerate every table and figure of the paper's evaluation
//! (§VIII) on the synthetic Table II workloads.
//!
//! ```sh
//! cargo run --release -p carp-bench --bin repro -- <target> [--scale S] [--days N]
//! ```
//!
//! Targets: `table2`, `fig16`, `fig17`, `fig18`, `fig19`, `fig20`, `fig21`,
//! `fig22`, `table3`, `scaling`, `cr`, `sipp`, `all`.
//!
//! `--scale` is the rate-preserving day scale (default 0.01 ⇒ 1% of a day
//! at the paper's task arrival rate); `--days` limits the per-warehouse day
//! count (default 5). `all` executes the warehouse × day × planner grid
//! once and derives the TC figures, the MC figures and Table III from the
//! same reports.

use carp_bench::{format_series, run_scenario, summary_line, PlannerKind, Scenario};
use carp_simenv::{DayReport, SimConfig, Simulation};
use carp_spacetime::{AStarConfig, ReservationTable, SpaceTimeAStar};
use carp_srp::{SrpConfig, SrpPlanner, StripGraph};
use carp_warehouse::layout::{LayoutConfig, WarehousePreset};
use carp_warehouse::tasks::generate_requests;
use carp_warehouse::{Planner, QueryKind, Request};
use std::time::Instant;

#[derive(Clone, Copy)]
struct Opts {
    scale: f64,
    days: usize,
}

const USAGE: &str = "usage: repro [<target>] [--scale S] [--days N]
  targets: table2 fig16 fig17 fig18 fig19 fig20 fig21 fig22 table3
           scaling cr sipp ablation all (default: all)
  --scale S   rate-preserving day scale, 0 < S <= 1 (default 0.01)
  --days N    days per warehouse, capped at 5 (default 5)";

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let target = args
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let mut opts = Opts {
        scale: 0.01,
        days: 5,
    };
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.scale = s,
                None => usage_error("--scale expects a number"),
            },
            "--days" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d) => opts.days = d,
                None => usage_error("--days expects an integer"),
            },
            other => usage_error(&format!("unknown flag {other}")),
        }
    }

    match target.as_str() {
        "table2" => table2(),
        "fig16" => figures(WarehousePreset::W1, "Fig. 16 (TC)", "Fig. 19 (MC)", opts),
        "fig17" => figures(WarehousePreset::W2, "Fig. 17 (TC)", "Fig. 20 (MC)", opts),
        "fig18" => figures(WarehousePreset::W3, "Fig. 18 (TC)", "Fig. 21 (MC)", opts),
        "fig19" => figures(WarehousePreset::W1, "Fig. 16 (TC)", "Fig. 19 (MC)", opts),
        "fig20" => figures(WarehousePreset::W2, "Fig. 17 (TC)", "Fig. 20 (MC)", opts),
        "fig21" => figures(WarehousePreset::W3, "Fig. 18 (TC)", "Fig. 21 (MC)", opts),
        "fig22" => fig22(opts),
        "table3" => {
            let grid = run_grid(opts);
            table3(&grid, opts);
        }
        "scaling" => scaling(),
        "cr" => competitive_ratio(),
        "sipp" => sipp_extension(opts),
        "ablation" => ablation(opts),
        "all" => {
            table2();
            let grid = run_grid(opts);
            print_figures_from_grid(&grid, opts);
            table3(&grid, opts);
            fig22(opts);
            scaling();
            competitive_ratio();
            sipp_extension(opts);
            ablation(opts);
        }
        other => usage_error(&format!("unknown target {other}")),
    }
}

/// Table II: dataset summary and the grid→strip reduction.
fn table2() {
    println!("==================================================================");
    println!("TABLE II — datasets and strip-based extraction");
    println!("==================================================================");
    println!(
        "{:<5} {:>9} {:>6} {:>7} {:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>6} {:>6}",
        "Name",
        "HxW",
        "#Rack",
        "#Robot",
        "#Picker",
        "grid #V",
        "grid #E",
        "strip #V",
        "strip #E",
        "V%",
        "E%"
    );
    for preset in WarehousePreset::ALL {
        let layout = preset.generate();
        let s = layout.stats();
        let g = StripGraph::build(&layout.matrix);
        println!(
            "{:<5} {:>9} {:>6} {:>7} {:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>5.1}% {:>5.1}%",
            preset.name(),
            format!("{}x{}", s.rows, s.cols),
            s.racks,
            s.robots,
            s.pickers,
            s.grid_vertices,
            s.grid_edges,
            g.num_vertices(),
            g.num_edges(),
            100.0 * g.num_vertices() as f64 / s.grid_vertices as f64,
            100.0 * g.num_edges() as f64 / s.grid_edges as f64,
        );
    }
    println!("(paper W-1 strip extraction: 3997 vertices / 11272 edges ≈ 16% / 23% of grid)");
    println!();
}

/// One warehouse-day's five planner reports.
struct GridCell {
    preset: WarehousePreset,
    day: usize,
    reports: Vec<DayReport>,
}

/// Run the full preset × day × planner grid once.
fn run_grid(opts: Opts) -> Vec<GridCell> {
    let mut grid = Vec::new();
    for preset in WarehousePreset::ALL {
        let layout = preset.generate();
        for day in 0..opts.days.min(5) {
            let sc = Scenario {
                preset,
                day,
                scale: opts.scale,
            };
            let tasks = sc.tasks(&layout);
            eprintln!(
                "[grid] {} Day{} — {} tasks over {}s",
                preset.name(),
                day + 1,
                tasks.len(),
                sc.horizon()
            );
            let reports = PlannerKind::EVALUATED
                .iter()
                .map(|&k| run_scenario(&layout, &tasks, k))
                .collect();
            grid.push(GridCell {
                preset,
                day,
                reports,
            });
        }
    }
    grid
}

/// Print Figs. 16–21 from an already-computed grid.
fn print_figures_from_grid(grid: &[GridCell], opts: Opts) {
    for (preset, tc_title, mc_title) in [
        (
            WarehousePreset::W1,
            "Fig. 16 — TC on W-1",
            "Fig. 19 — MC on W-1",
        ),
        (
            WarehousePreset::W2,
            "Fig. 17 — TC on W-2",
            "Fig. 20 — MC on W-2",
        ),
        (
            WarehousePreset::W3,
            "Fig. 18 — TC on W-3",
            "Fig. 21 — MC on W-3",
        ),
    ] {
        for cell in grid.iter().filter(|c| c.preset == preset) {
            print_day_figures(cell, tc_title, mc_title, opts);
        }
    }
}

fn print_day_figures(cell: &GridCell, tc_title: &str, mc_title: &str, opts: Opts) {
    println!("==================================================================");
    println!(
        "{tc_title} / {mc_title} — Day{} (scale {})",
        cell.day + 1,
        opts.scale
    );
    println!("==================================================================");
    emit_svg(cell, tc_title, mc_title);
    println!(
        "{}",
        format_series("TC vs progress", &cell.reports, |s| s.planning_secs, "s")
    );
    println!(
        "{}",
        format_series(
            "MC vs progress",
            &cell.reports,
            |s| s.memory_bytes as f64 / 1024.0,
            "KiB"
        )
    );
    for r in &cell.reports {
        println!("  {}", summary_line(r));
    }
    // The paper's 227x headline is a snapshot comparison at 2% progress.
    let srp = cell
        .reports
        .iter()
        .find(|r| r.planner == "SRP")
        .expect("SRP ran");
    if let Some(first) = srp.snapshots.first() {
        let srp_tc = first.planning_secs.max(1e-9);
        if let Some((name, tc)) = cell
            .reports
            .iter()
            .filter(|r| r.planner != "SRP")
            .filter_map(|r| r.snapshots.first().map(|s| (r.planner, s.planning_secs)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        {
            println!(
                "  snapshot@2%: SRP {srp_tc:.4}s vs {name} {tc:.4}s → {:.1}x speedup",
                tc / srp_tc
            );
        }
    }
    let full_speedups: Vec<String> = cell
        .reports
        .iter()
        .filter(|r| r.planner != "SRP")
        .map(|r| {
            format!(
                "{} {:.1}x",
                r.planner,
                r.planning_secs / srp.planning_secs.max(1e-9)
            )
        })
        .collect();
    println!(
        "  full-day TC speedups of SRP: {}",
        full_speedups.join(", ")
    );
    println!();
}

/// Write the day's TC and MC charts as SVG files under
/// `target/repro-figures/`.
fn emit_svg(cell: &GridCell, tc_title: &str, mc_title: &str) {
    use carp_bench::svg::{line_chart, series_from_reports, ChartConfig};
    // Anchor at the workspace target/ next to this binary, so `cargo bench`
    // (whose cwd is the package dir) and `cargo run` agree on the location.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().and_then(|p| p.parent()).map(|p| p.to_path_buf()))
        .unwrap_or_else(|| std::path::PathBuf::from("target"))
        .join("repro-figures");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    // "Fig. 16 — TC on W-1" → "fig16".
    let slug = |t: &str| {
        let num = t
            .split_whitespace()
            .nth(1)
            .unwrap_or("fig")
            .trim_end_matches('.');
        format!("fig{num}")
    };
    for (title, unit, pick) in [
        (
            tc_title,
            "TC [s]",
            Box::new(|s: &carp_simenv::Snapshot| s.planning_secs)
                as Box<dyn Fn(&carp_simenv::Snapshot) -> f64>,
        ),
        (
            mc_title,
            "MC [KiB]",
            Box::new(|s: &carp_simenv::Snapshot| s.memory_bytes as f64 / 1024.0),
        ),
    ] {
        let cfg = ChartConfig {
            title: format!("{title} — Day{}", cell.day + 1),
            y_label: unit.into(),
            ..ChartConfig::default()
        };
        let chart = line_chart(&cfg, &series_from_reports(&cell.reports, &pick));
        let name = format!(
            "{}_{}_day{}.svg",
            slug(title),
            cell.preset.name().to_lowercase().replace('-', ""),
            cell.day + 1
        );
        if std::fs::write(dir.join(&name), chart).is_ok() {
            println!("  (figure written to {})", dir.join(&name).display());
        }
    }
}

/// Single-preset entry points (fig16..fig21): run that preset's days only.
fn figures(preset: WarehousePreset, tc_title: &str, mc_title: &str, opts: Opts) {
    let layout = preset.generate();
    for day in 0..opts.days.min(5) {
        let sc = Scenario {
            preset,
            day,
            scale: opts.scale,
        };
        let tasks = sc.tasks(&layout);
        eprintln!(
            "[grid] {} Day{} — {} tasks",
            preset.name(),
            day + 1,
            tasks.len()
        );
        let reports = PlannerKind::EVALUATED
            .iter()
            .map(|&k| run_scenario(&layout, &tasks, k))
            .collect();
        let cell = GridCell {
            preset,
            day,
            reports,
        };
        print_day_figures(&cell, tc_title, mc_title, opts);
    }
}

/// Table III: average OG (makespan) over days, per warehouse and planner.
fn table3(grid: &[GridCell], opts: Opts) {
    println!("==================================================================");
    println!(
        "TABLE III — effectiveness (mean OG over {} day(s), scale {})",
        opts.days.min(5),
        opts.scale
    );
    println!("==================================================================");
    println!(
        "{:<5} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Name", "SAP", "RP", "TWP", "ACP", "SRP"
    );
    for preset in WarehousePreset::ALL {
        let cells: Vec<&GridCell> = grid.iter().filter(|c| c.preset == preset).collect();
        if cells.is_empty() {
            continue;
        }
        let mean = |name: &str| -> u64 {
            let (sum, n) = cells
                .iter()
                .flat_map(|c| c.reports.iter().filter(|r| r.planner == name))
                .fold((0u64, 0u64), |(s, n), r| (s + r.makespan as u64, n + 1));
            sum / n.max(1)
        };
        println!(
            "{:<5} {:>8} {:>8} {:>8} {:>8} {:>8}",
            preset.name(),
            mean("SAP"),
            mean("RP"),
            mean("TWP"),
            mean("ACP"),
            mean("SRP")
        );
    }
    println!(
        "(paper reports absolute seconds on full days; the comparison is the per-row ordering)"
    );
    println!();
}

/// Fig. 22: (a) SRP TC breakdown without slope indexing; (b) intra-strip TC
/// with vs without the slope index.
fn fig22(opts: Opts) {
    for (preset, day, label) in [
        (WarehousePreset::W1, 0usize, "W-1 Day1"),
        (WarehousePreset::W3, 3usize, "W-3 Day4 (dense)"),
    ] {
        println!("==================================================================");
        println!(
            "Fig. 22 — need for slope-based indexing ({label}, scale {})",
            opts.scale
        );
        println!("==================================================================");
        let layout = preset.generate();
        let sc = Scenario {
            preset,
            day,
            scale: opts.scale,
        };
        let tasks = sc.tasks(&layout);
        let cfg = SrpConfig {
            instrument: true,
            ..SrpConfig::default()
        };

        // (a) breakdown with the naive ordered-set store.
        let naive =
            SrpPlanner::<carp_geometry::NaiveStore>::with_store(layout.matrix.clone(), cfg.clone());
        let (naive_report, naive_planner) =
            Simulation::new(&layout, &tasks, naive, SimConfig::default()).run();
        let ns = naive_planner.stats;
        let total_naive = ((ns.inter_ns + ns.intra_ns + ns.convert_ns) as f64 / 1e9).max(1e-9);
        println!("(a) TC breakdown of SRP *without* slope indexing:");
        for (part, v) in [
            ("inter-strip", ns.inter_ns),
            ("intra-strip", ns.intra_ns),
            ("conversion", ns.convert_ns),
        ] {
            println!(
                "    {part:<12}: {:>9.3}s ({:>4.1}%)",
                v as f64 / 1e9,
                100.0 * v as f64 / 1e9 / total_naive
            );
        }

        // (b) with the slope index.
        let indexed = SrpPlanner::new(layout.matrix.clone(), cfg);
        let (indexed_report, indexed_planner) =
            Simulation::new(&layout, &tasks, indexed, SimConfig::default()).run();
        let is = indexed_planner.stats;
        println!("(b) intra-strip TC with vs without slope-based indexing:");
        println!(
            "    naive store : {:>9.3}s   (total TC {:>8.3}s)",
            ns.intra_ns as f64 / 1e9,
            naive_report.planning_secs
        );
        println!(
            "    slope index : {:>9.3}s   (total TC {:>8.3}s)",
            is.intra_ns as f64 / 1e9,
            indexed_report.planning_secs
        );
        println!(
            "    intra-strip reduction: {:.1}%  (paper reports ≈50%)",
            100.0 * (1.0 - is.intra_ns as f64 / ns.intra_ns.max(1) as f64)
        );
        println!();
    }
}

/// Extra experiment X1: planning-time growth with warehouse area — the
/// complexity claim O((HW)²) vs O(HW·log HW) of §VII-B.
fn scaling() {
    println!("==================================================================");
    println!("X1 — per-request planning time vs warehouse area (complexity, §VII-B)");
    println!("==================================================================");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "side", "cells", "SRP µs/req", "SAP µs/req", "SIPP µs/req", "SAP/SRP"
    );
    let mut rows = Vec::new();
    for side in [40u16, 80, 120, 160, 200, 240] {
        let cfg = LayoutConfig {
            rows: side,
            cols: side,
            target_racks: (side as u32 * side as u32) / 5,
            pickers: (side / 4).max(2),
            robots: (side * 2).max(8),
            ..LayoutConfig::small()
        };
        let layout = cfg.generate();
        let requests = generate_requests(&layout, 150, 1.0, 99);
        let time_one = |kind: PlannerKind| -> f64 {
            let mut planner = kind.build(&layout);
            let t0 = Instant::now();
            for req in &requests {
                planner.plan(req);
            }
            t0.elapsed().as_secs_f64() * 1e6 / requests.len() as f64
        };
        let srp_us = time_one(PlannerKind::Srp);
        let sap_us = time_one(PlannerKind::Sap);
        let sipp_us = time_one(PlannerKind::Sipp);
        println!(
            "{:>6} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>9.2}",
            side,
            layout.matrix.num_cells(),
            srp_us,
            sap_us,
            sipp_us,
            sap_us / srp_us
        );
        rows.push((layout.matrix.num_cells() as f64, srp_us, sap_us));
    }
    let slope = |f: fn(&(f64, f64, f64)) -> f64| {
        let n = rows.len() as f64;
        let (sx, sy, sxy, sxx) = rows.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, r| {
            let (x, y) = (r.0.ln(), f(r).ln());
            (acc.0 + x, acc.1 + y, acc.2 + x * y, acc.3 + x * x)
        });
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    };
    println!(
        "log-log growth exponents: SRP {:.2}, SAP {:.2}  (paper: ~1+log vs ~2 worst-case)",
        slope(|r| r.1),
        slope(|r| r.2)
    );
    println!();
}

/// Extra experiment X2: empirical competitive ratio of single planned
/// routes (Theorem 1 bounds the expectation by 1.788).
fn competitive_ratio() {
    println!("==================================================================");
    println!("X2 — empirical competitive ratio of single routes (Theorem 1: E[CR] ≤ 1.788)");
    println!("==================================================================");
    let layout = LayoutConfig::small().generate();
    let mut srp = SrpPlanner::new(layout.matrix.clone(), SrpConfig::default());
    // Background traffic committed into the planner and mirrored into a
    // reservation table for the optimal baseline.
    let background = generate_requests(&layout, 60, 6.0, 5);
    let mut reservations = ReservationTable::new();
    for req in &background {
        if let Some(route) = srp.plan(req).route().cloned() {
            reservations.reserve(&route, req.id);
        }
    }
    // Probe requests: planned (uncommitted) by SRP and optimally by
    // space-time A* against identical traffic.
    let probes = generate_requests(&layout, 120, 2.0, 77);
    let mut astar = SpaceTimeAStar::new(AStarConfig::default());
    let mut ratios = Vec::new();
    for probe in &probes {
        let req = Request::new(
            10_000 + probe.id,
            probe.t,
            probe.origin,
            probe.destination,
            QueryKind::Pickup,
        );
        let Some(srp_route) = srp.plan_uncommitted(&req) else {
            continue;
        };
        let Some(opt_route) = astar.plan(
            &layout.matrix,
            &reservations,
            None,
            req.origin,
            req.destination,
            req.t,
        ) else {
            continue;
        };
        // Compare completion times relative to the request time (length +
        // forced waiting), as in §VII-A.
        let srp_len = (srp_route.end_time() - req.t).max(1);
        let opt_len = (opt_route.end_time() - req.t).max(1);
        ratios.push(srp_len as f64 / opt_len as f64);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let p95 = ratios
        .get((ratios.len() as f64 * 0.95) as usize)
        .copied()
        .unwrap_or(f64::NAN);
    let max = ratios.last().copied().unwrap_or(f64::NAN);
    println!(
        "  probes={}  mean CR={:.3}  p95={:.3}  max={:.3}  (bound 1.788 on the expectation)",
        ratios.len(),
        mean,
        p95,
        max
    );
    println!(
        "  within bound: {}",
        if mean <= 1.788 { "YES" } else { "NO" }
    );
    println!();
}

/// Extra experiment X4: ablation of SRP's design choices (DESIGN.md §6):
/// the slope index (§V-D), the inter-strip heuristic, and the retry bumps.
fn ablation(opts: Opts) {
    println!("==================================================================");
    println!(
        "X4 — SRP design-choice ablation (W-1 Day1, scale {})",
        opts.scale
    );
    println!("==================================================================");
    let layout = WarehousePreset::W1.generate();
    let sc = Scenario {
        preset: WarehousePreset::W1,
        day: 0,
        scale: opts.scale,
    };
    let tasks = sc.tasks(&layout);
    println!(
        "{:<22} {:>9} {:>8} {:>10} {:>9} {:>9}",
        "variant", "TC(s)", "OG", "MC(KiB)", "retries", "fallbacks"
    );
    let run_variant = |label: &str, cfg: SrpConfig, naive: bool| {
        let (report, retries, fallbacks) = if naive {
            let p = SrpPlanner::<carp_geometry::NaiveStore>::with_store(layout.matrix.clone(), cfg);
            let (r, p) = Simulation::new(&layout, &tasks, p, SimConfig::default()).run();
            (r, p.stats.retries, p.stats.fallbacks)
        } else {
            let p = SrpPlanner::new(layout.matrix.clone(), cfg);
            let (r, p) = Simulation::new(&layout, &tasks, p, SimConfig::default()).run();
            (r, p.stats.retries, p.stats.fallbacks)
        };
        println!(
            "{:<22} {:>9.3} {:>8} {:>10.1} {:>9} {:>9}",
            label,
            report.planning_secs,
            report.makespan,
            report.peak_memory_bytes as f64 / 1024.0,
            retries,
            fallbacks
        );
        assert_eq!(report.audit_conflicts, 0, "{label}: audit failed");
    };
    run_variant("full (default)", SrpConfig::default(), false);
    run_variant("naive segment store", SrpConfig::default(), true);
    run_variant(
        "no inter-strip A* h",
        SrpConfig {
            use_heuristic: false,
            ..SrpConfig::default()
        },
        false,
    );
    run_variant(
        "no retry bumps",
        SrpConfig {
            retry_bumps: [0, 0, 0],
            ..SrpConfig::default()
        },
        false,
    );
    run_variant(
        "no fallback",
        SrpConfig {
            use_fallback: false,
            ..SrpConfig::default()
        },
        false,
    );
    println!();
}

/// Extra experiment X3: SRP versus the SIPP extension baseline.
fn sipp_extension(opts: Opts) {
    println!("==================================================================");
    println!(
        "X3 — SRP vs SIPP (extension beyond the paper, scale {})",
        opts.scale
    );
    println!("==================================================================");
    println!(
        "{:<5} {:>5} | {:>10} {:>10} | {:>10} {:>10} | {:>8} {:>8}",
        "WH", "Day", "SRP TC(s)", "SIPP TC(s)", "SRP MC", "SIPP MC", "SRP OG", "SIPP OG"
    );
    for preset in [WarehousePreset::W1, WarehousePreset::W3] {
        let layout = preset.generate();
        for day in 0..opts.days.min(5) {
            let sc = Scenario {
                preset,
                day,
                scale: opts.scale,
            };
            let tasks = sc.tasks(&layout);
            let srp = run_scenario(&layout, &tasks, PlannerKind::Srp);
            let sipp = run_scenario(&layout, &tasks, PlannerKind::Sipp);
            println!(
                "{:<5} {:>5} | {:>10.3} {:>10.3} | {:>9.0}K {:>9.0}K | {:>8} {:>8}",
                preset.name(),
                day + 1,
                srp.planning_secs,
                sipp.planning_secs,
                srp.peak_memory_bytes as f64 / 1024.0,
                sipp.peak_memory_bytes as f64 / 1024.0,
                srp.makespan,
                sipp.makespan
            );
        }
    }
    println!(
        "(SIPP is the strongest classical grid-level planner; see EXPERIMENTS.md for discussion)"
    );
    println!();
}
