//! The paper's tables and figures as library functions over the sweep
//! engine.
//!
//! Each artifact is split into a *runner* (`fig09()`, `table2()`, ...) that
//! the `repro` binary calls (`repro --only fig09`), and, where simulations
//! are involved, a *renderer* (`render_fig09(...)`) that formats
//! precomputed rows. The split lets [`repro_all`] (plain `repro`) execute
//! one master catalog sweep on the shared worker pool and render every
//! dependent figure from it without re-simulating, while a single runner
//! still runs exactly the grid the paper's figure needs. Renderers are pure
//! over their inputs, so a figure rendered from the master sweep is
//! byte-identical to one rendered from its standalone grid.

use venice_interconnect::{table4 as table4_rows, AreaModel, FabricKind, LinkPower};
use venice_sim::stats::{arithmetic_mean, geometric_mean};
use venice_ssd::report::{f2, f3, Table};
use venice_ssd::{all_systems, RunMetrics, SsdConfig};
use venice_workloads::{catalog, mix, WorkloadAxis};

use crate::sweep::{Knob, SweepGrid};
use crate::{metrics, requests, results_dir, run_catalog, run_trace, speedup, CatalogRow};

/// Table 1: the evaluated SSD configurations and Venice design parameters.
pub fn table1() {
    let mut t = Table::new(
        ["parameter", "performance-optimized", "cost-optimized"]
            .map(String::from)
            .to_vec(),
    );
    let p = SsdConfig::performance_optimized();
    let c = SsdConfig::cost_optimized();
    let nand = |cfg: &SsdConfig| {
        format!(
            "{} channels x {} chips, {} die/chip, {} planes/die, {} B page",
            cfg.fabric.rows,
            cfg.fabric.cols,
            cfg.array.chip.dies,
            cfg.array.chip.planes_per_die,
            cfg.array.chip.page_size
        )
    };
    let rows: Vec<(&str, String, String)> = vec![
        ("NAND config", nand(&p), nand(&c)),
        ("Read (tR)", p.timing.t_r.to_string(), c.timing.t_r.to_string()),
        (
            "Program (tPROG)",
            p.timing.t_prog.to_string(),
            c.timing.t_prog.to_string(),
        ),
        (
            "Erase (tBERS)",
            p.timing.t_bers.to_string(),
            c.timing.t_bers.to_string(),
        ),
        (
            "Channel I/O rate",
            format!("{:.1} GB/s", p.fabric.bus_bytes_per_ns),
            format!("{:.1} GB/s", c.fabric.bus_bytes_per_ns),
        ),
        (
            "Venice topology",
            format!("{}x{} 2D mesh, 8-bit 1 GHz links", p.fabric.rows, p.fabric.cols),
            format!("{}x{} 2D mesh, 8-bit 1 GHz links", c.fabric.rows, c.fabric.cols),
        ),
        (
            "Routing / switching",
            "non-minimal fully-adaptive / circuit switching".into(),
            "non-minimal fully-adaptive / circuit switching".into(),
        ),
    ];
    for (name, a, b) in rows {
        t.row(vec![name.to_string(), a, b]);
    }
    println!("# Table 1: evaluated configurations\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("table1.csv")).expect("write csv");
}

/// Table 2: published trace statistics next to the statistics of the
/// synthetic traces we generate, verifying the calibration.
pub fn table2() {
    let mut t = Table::new(
        [
            "trace",
            "suite",
            "read% (paper)",
            "read% (ours)",
            "avg KB (paper)",
            "avg KB (ours)",
            "interarrival us (paper)",
            "interarrival us (ours)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for e in &catalog::TABLE2 {
        let stats = catalog::spec(e).generate(3000).stats();
        t.row(vec![
            e.name.into(),
            e.suite.into(),
            f2(e.read_pct),
            f2(stats.read_pct),
            f2(e.avg_request_kb),
            f2(stats.avg_request_kb),
            f2(e.avg_interarrival_us),
            f2(stats.avg_interarrival_us),
        ]);
    }
    println!("# Table 2: trace characteristics, paper vs generated\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("table2.csv")).expect("write csv");
}

/// Table 3: the mixed workloads — constituents, description, and published
/// vs generated merged inter-arrival time.
pub fn table3() {
    let mut t = Table::new(
        [
            "mix",
            "constituents",
            "description",
            "interarrival us (paper)",
            "interarrival us (ours)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for m in &mix::TABLE3 {
        let stats = mix::generate(m, 1000).stats();
        t.row(vec![
            m.name.into(),
            m.constituents.join(" + "),
            m.description.into(),
            f2(m.avg_interarrival_us),
            f2(stats.avg_interarrival_us),
        ]);
    }
    println!("# Table 3: mixed workloads, paper vs generated\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("table3.csv")).expect("write csv");
}

/// Table 4: power and area overheads of Venice's router and links, plus the
/// §6.6 headline numbers.
pub fn table4() {
    let power = LinkPower::paper();
    let area = AreaModel::paper();
    let mut t = Table::new(
        ["component", "# of instances", "avg power (mW, 4KB transfer)", "area"]
            .map(String::from)
            .to_vec(),
    );
    for row in table4_rows(&power, &area) {
        t.row(vec![
            row.component.into(),
            row.instances.into(),
            format!("{:.3}", row.avg_power_mw),
            row.area,
        ]);
    }
    println!("# Table 4: power and area overheads of Venice\n");
    print!("{}", t.to_markdown());
    println!();
    println!(
        "Router PCB footprint: {:.1} mm^2 = {:.0}% of a {:.0} mm^2 flash chip",
        area.router_pcb_mm2(),
        area.router_overhead_fraction() * 100.0,
        area.flash_chip_mm2,
    );
    println!(
        "Link power vs shared bus: {} mW vs {} mW ({:.0}% lower)",
        power.link_mw,
        power.bus_mw,
        (1.0 - power.link_mw / power.bus_mw) * 100.0,
    );
    println!(
        "Total link area for the 8x8 mesh (112 links): {:.0}% lower than 8 shared channels",
        area.link_area_reduction(8, 8) * 100.0,
    );
    t.write_csv(results_dir().join("table4.csv")).expect("write csv");
}

/// Renders Figure 4 (prior approaches vs the ideal SSD) from catalog rows
/// that include at least Baseline, pSSD, pnSSD, NoSSD, and Ideal.
pub fn render_fig04(rows: &[CatalogRow]) {
    let order = [
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Ideal,
    ];
    let mut t = Table::new(
        ["workload", "pSSD", "pnSSD", "NoSSD", "Path-conflict-free"]
            .map(String::from)
            .to_vec(),
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for (name, results) in rows {
        let s: Vec<f64> = order.iter().map(|&k| speedup(results, k)).collect();
        for (c, v) in cols.iter_mut().zip(&s) {
            c.push(*v);
        }
        t.row(vec![name.clone(), f2(s[0]), f2(s[1]), f2(s[2]), f2(s[3])]);
    }
    t.row(
        std::iter::once("GMEAN".to_string())
            .chain(cols.iter().map(|c| f2(geometric_mean(c.iter().copied()))))
            .collect(),
    );
    println!("# Figure 4: prior approaches vs the ideal SSD (speedup over Baseline)\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("fig04.csv")).expect("write csv");
}

/// Figure 4, standalone: runs its own catalog grid (the motivation study's
/// five systems) and renders it.
pub fn fig04() {
    let systems = [
        FabricKind::Baseline,
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Ideal,
    ];
    let rows = run_catalog(&SsdConfig::performance_optimized(), &systems, requests());
    render_fig04(&rows);
}

/// Renders one configuration's Figure 9 panel (speedup over Baseline) from
/// all-six-system catalog rows. `tag` is the output-file suffix
/// (`a-performance-optimized` / `b-cost-optimized`).
pub fn render_fig09(tag: &str, rows: &[CatalogRow]) {
    let mut t = Table::new(
        ["workload", "pSSD", "pnSSD", "NoSSD", "Venice", "Path-conflict-free"]
            .map(String::from)
            .to_vec(),
    );
    let order = [
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
        FabricKind::Ideal,
    ];
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for (name, results) in rows {
        let s: Vec<f64> = order.iter().map(|&k| speedup(results, k)).collect();
        for (c, v) in cols.iter_mut().zip(&s) {
            c.push(*v);
        }
        t.row(
            std::iter::once(name.clone())
                .chain(s.iter().map(|&v| f2(v)))
                .collect(),
        );
    }
    t.row(
        std::iter::once("GMEAN".to_string())
            .chain(cols.iter().map(|c| f2(geometric_mean(c.iter().copied()))))
            .collect(),
    );
    println!("\n# Figure 9{tag}: speedup over Baseline\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join(format!("fig09{tag}.csv")))
        .expect("write csv");
}

/// Figure 9, standalone: both Table 1 configurations across all six systems.
pub fn fig09() {
    for (tag, cfg) in [
        ("a-performance-optimized", SsdConfig::performance_optimized()),
        ("b-cost-optimized", SsdConfig::cost_optimized()),
    ] {
        let rows = run_catalog(&cfg, &all_systems(), requests());
        render_fig09(tag, &rows);
    }
}

/// Renders one configuration's Figure 10 panel (IOPS normalized to the
/// ideal SSD) from all-six-system catalog rows.
pub fn render_fig10(tag: &str, rows: &[CatalogRow]) {
    let order = [
        FabricKind::Baseline,
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
    ];
    let mut t = Table::new(
        ["workload", "Baseline", "pSSD", "pnSSD", "NoSSD", "Venice"]
            .map(String::from)
            .to_vec(),
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for (name, results) in rows {
        let ideal = metrics(results, FabricKind::Ideal).iops();
        let s: Vec<f64> = order
            .iter()
            .map(|&k| metrics(results, k).iops() / ideal)
            .collect();
        for (c, v) in cols.iter_mut().zip(&s) {
            c.push(*v);
        }
        t.row(
            std::iter::once(name.clone())
                .chain(s.iter().map(|&v| f3(v)))
                .collect(),
        );
    }
    t.row(
        std::iter::once("AVG".to_string())
            .chain(cols.iter().map(|c| f3(arithmetic_mean(c.iter().copied()))))
            .collect(),
    );
    println!("\n# Figure 10{tag}: throughput normalized to the ideal SSD\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join(format!("fig10{tag}.csv")))
        .expect("write csv");
}

/// Figure 10, standalone: both Table 1 configurations across all six
/// systems.
pub fn fig10() {
    for (tag, cfg) in [
        ("a-performance-optimized", SsdConfig::performance_optimized()),
        ("b-cost-optimized", SsdConfig::cost_optimized()),
    ] {
        let rows = run_catalog(&cfg, &all_systems(), requests());
        render_fig10(tag, &rows);
    }
}

/// Renders one workload's Figure 11 tail-latency CDF from all-six-system
/// results (paper order: Baseline, pSSD, pnSSD, NoSSD, Venice, Ideal).
pub fn render_fig11(name: &str, results: &[RunMetrics]) {
    let mut t = Table::new(
        ["quantile", "Baseline", "pSSD", "pnSSD", "NoSSD", "Venice", "Ideal"]
            .map(String::from)
            .to_vec(),
    );
    let points = 21;
    let cdfs: Vec<Vec<(venice_sim::SimDuration, f64)>> = results
        .iter()
        .map(|m| m.latencies.clone().tail_cdf(0.99, points))
        .collect();
    for i in 0..points {
        let q = cdfs[0][i].1;
        t.row(
            std::iter::once(format!("{q:.4}"))
                .chain(cdfs.iter().map(|c| f2(c[i].0.as_micros_f64())))
                .collect(),
        );
    }
    println!("\n# Figure 11: {name} tail latency CDF (latencies in µs at quantile)\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join(format!("fig11-{name}.csv")))
        .expect("write csv");
    // Headline number: p99 reduction of Venice vs Baseline.
    let p99 = |idx: usize| cdfs[idx][0].0.as_micros_f64();
    println!(
        "\nVenice p99 vs Baseline p99: {:.1} µs vs {:.1} µs ({:.0}% lower)\n",
        p99(4),
        p99(0),
        (1.0 - p99(4) / p99(0)) * 100.0
    );
}

/// Figure 11, standalone: src1_0 and hm_0 across all six systems.
pub fn fig11() {
    let cfg = SsdConfig::performance_optimized();
    for name in ["src1_0", "hm_0"] {
        let results = crate::run_workload(&cfg, &all_systems(), name, requests());
        render_fig11(name, &results);
    }
}

/// Renders Figure 12 (mixed-workload speedups) from per-mix all-six-system
/// rows in Table 3 order.
pub fn render_fig12(rows: &[CatalogRow]) {
    let order = [
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
        FabricKind::Ideal,
    ];
    let mut t = Table::new(
        ["mix", "pSSD", "pnSSD", "NoSSD", "Venice", "Path-conflict-free"]
            .map(String::from)
            .to_vec(),
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for (name, results) in rows {
        let s: Vec<f64> = order.iter().map(|&k| speedup(results, k)).collect();
        for (c, v) in cols.iter_mut().zip(&s) {
            c.push(*v);
        }
        t.row(
            std::iter::once(name.clone())
                .chain(s.iter().map(|&v| f2(v)))
                .collect(),
        );
    }
    t.row(
        std::iter::once("GMEAN".to_string())
            .chain(cols.iter().map(|c| f2(geometric_mean(c.iter().copied()))))
            .collect(),
    );
    println!("# Figure 12: mixed workloads (speedup over Baseline)\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("fig12.csv")).expect("write csv");
}

/// Figure 12, standalone: the six Table 3 mixes as a sweep grid (each mix
/// splits the request budget across its constituent streams).
pub fn fig12() {
    let outcome = SweepGrid::new("fig12")
        .config(SsdConfig::performance_optimized())
        .workloads(WorkloadAxis::table3())
        .fabrics(&all_systems())
        .requests(requests())
        .run();
    render_fig12(&outcome.catalog_rows());
}

/// Renders Figure 13 (% of requests experiencing path conflicts) from
/// all-six-system catalog rows.
pub fn render_fig13(rows: &[CatalogRow]) {
    let order = [
        FabricKind::Baseline,
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
    ];
    let mut t = Table::new(
        ["workload", "Baseline", "pSSD", "pnSSD", "NoSSD", "Venice"]
            .map(String::from)
            .to_vec(),
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for (name, results) in rows {
        let s: Vec<f64> = order
            .iter()
            .map(|&k| metrics(results, k).conflict_pct())
            .collect();
        for (c, v) in cols.iter_mut().zip(&s) {
            c.push(*v);
        }
        t.row(
            std::iter::once(name.clone())
                .chain(s.iter().map(|&v| f2(v)))
                .collect(),
        );
    }
    t.row(
        std::iter::once("AVG".to_string())
            .chain(cols.iter().map(|c| f2(arithmetic_mean(c.iter().copied()))))
            .collect(),
    );
    println!("# Figure 13: % of I/O requests experiencing path conflicts\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("fig13.csv")).expect("write csv");
}

/// Figure 13, standalone: performance-optimized catalog across all six
/// systems.
pub fn fig13() {
    let rows = run_catalog(&SsdConfig::performance_optimized(), &all_systems(), requests());
    render_fig13(&rows);
}

/// Renders Figure 14 (power and energy normalized to Baseline) from catalog
/// rows that include the five real systems.
pub fn render_fig14(rows: &[CatalogRow]) {
    let order = [
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
    ];
    for (tag, normalized_power) in [
        ("a-power", true),   // normalized average power
        ("b-energy", false), // normalized energy
    ] {
        let mut t = Table::new(
            ["workload", "pSSD", "pnSSD", "NoSSD", "Venice"]
                .map(String::from)
                .to_vec(),
        );
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
        for (name, results) in rows {
            let base = metrics(results, FabricKind::Baseline);
            let s: Vec<f64> = order
                .iter()
                .map(|&k| {
                    let m = metrics(results, k);
                    if normalized_power {
                        m.avg_power_mw / base.avg_power_mw
                    } else {
                        m.energy_mj / base.energy_mj
                    }
                })
                .collect();
            for (c, v) in cols.iter_mut().zip(&s) {
                c.push(*v);
            }
            t.row(
                std::iter::once(name.clone())
                    .chain(s.iter().map(|&v| f3(v)))
                    .collect(),
            );
        }
        t.row(
            std::iter::once("AVG".to_string())
                .chain(cols.iter().map(|c| f3(arithmetic_mean(c.iter().copied()))))
                .collect(),
        );
        let title = if normalized_power { "power" } else { "energy" };
        println!("\n# Figure 14{tag}: normalized {title} (vs Baseline)\n");
        print!("{}", t.to_markdown());
        t.write_csv(results_dir().join(format!("fig14{tag}.csv")))
            .expect("write csv");
    }
}

/// Figure 14, standalone: the five real systems on the
/// performance-optimized catalog.
pub fn fig14() {
    let rows = run_catalog(
        &SsdConfig::performance_optimized(),
        &crate::real_systems(),
        requests(),
    );
    render_fig14(&rows);
}

/// Renders Figure 15 (controller-count sensitivity) from per-shape catalog
/// rows.
pub fn render_fig15(shape_rows: &[((u16, u16), Vec<CatalogRow>)]) {
    let mut t = Table::new(
        ["shape", "pSSD", "NoSSD", "Venice", "Path-conflict-free"]
            .map(String::from)
            .to_vec(),
    );
    for ((rows_dim, cols_dim), per_workload) in shape_rows {
        let gmean = |k: FabricKind| {
            geometric_mean(per_workload.iter().map(|(_, r)| speedup(r, k)))
        };
        t.row(vec![
            format!("{rows_dim}x{cols_dim}"),
            f2(gmean(FabricKind::Pssd)),
            f2(gmean(FabricKind::NoSsd)),
            f2(gmean(FabricKind::Venice)),
            f2(gmean(FabricKind::Ideal)),
        ]);
    }
    println!("# Figure 15: controller-count sensitivity (GMEAN speedup over Baseline)\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("fig15.csv")).expect("write csv");
}

/// Figure 15, standalone: one grid with a 4×16 / 8×8 / 16×4 shape axis
/// (pnSSD omitted, as in the paper, because it requires an N×N array).
pub fn fig15() {
    let shapes = [(4u16, 16u16), (8, 8), (16, 4)];
    let systems = [
        FabricKind::Baseline,
        FabricKind::Pssd,
        FabricKind::NoSsd,
        FabricKind::Venice,
        FabricKind::Ideal,
    ];
    let outcome = SweepGrid::new("fig15")
        .config(SsdConfig::performance_optimized())
        .workloads(WorkloadAxis::table2())
        .knobs(shapes.map(|(rows, cols)| Knob::Shape(rows, cols)))
        .fabrics(&systems)
        .requests(requests())
        .run();
    let shape_rows: Vec<((u16, u16), Vec<CatalogRow>)> = shapes
        .iter()
        .map(|&shape| {
            let rows =
                outcome.rows_by_workload(|p| (p.config.fabric.rows, p.config.fabric.cols) == shape);
            (shape, rows)
        })
        .collect();
    render_fig15(&shape_rows);
}

/// The routing-adaptivity ablation: full Venice vs minimal-only Venice vs
/// NoSSD's deterministic XY, on a read-intensive workload subset.
pub fn ablate_routing() {
    let names = ["proj_3", "src2_1", "YCSB_B", "ssd-10", "hm_0"];
    let mut t = Table::new(
        ["workload", "NoSSD (XY)", "Venice minimal-only", "Venice (full)"]
            .map(String::from)
            .to_vec(),
    );
    for name in names {
        let trace = catalog::by_name(name).expect("catalog").generate(requests());
        let cfg = SsdConfig::performance_optimized();
        let systems = [FabricKind::Baseline, FabricKind::NoSsd, FabricKind::Venice];
        let full = run_trace(&cfg, &systems, &trace);
        let mut min_cfg = SsdConfig::performance_optimized();
        min_cfg.fabric.venice_minimal_only = true;
        let minimal = run_trace(&min_cfg, &systems, &trace);
        t.row(vec![
            name.into(),
            f2(speedup(&full, FabricKind::NoSsd)),
            f2(speedup(&minimal, FabricKind::Venice)),
            f2(speedup(&full, FabricKind::Venice)),
        ]);
    }
    println!("# Ablation: routing adaptivity (speedup over Baseline)\n");
    print!("{}", t.to_markdown());
    t.write_csv(results_dir().join("ablate_routing.csv"))
        .expect("write csv");
}

/// Reproduces every table and figure in one process, entirely through the
/// shared-pool sweep engine.
///
/// One master grid — both Table 1 configurations × the whole Table 2
/// catalog × all six systems — is executed first and written as a
/// reproducible artifact (`results/sweep_repro_all/manifest.json` plus
/// per-point metrics JSON); the catalog figures are then rendered from
/// that single outcome, so no catalog point simulates twice. Figure 15's
/// shape axis, Figure 12's mixes, and the routing ablation run as their
/// own grids on the same pool.
pub fn repro_all() {
    let master = SweepGrid::new("repro_all")
        .config(SsdConfig::performance_optimized())
        .config(SsdConfig::cost_optimized())
        .workloads(WorkloadAxis::table2())
        .fabrics(&all_systems())
        .requests(requests());
    eprintln!("==> master catalog sweep (2 configs x 19 workloads x 6 systems)");
    let outcome = master.run();
    let summary = outcome.summary();
    eprintln!("[venice-bench] {summary}");
    let dir = outcome.write(&results_dir()).expect("write sweep artifact");
    eprintln!(
        "[venice-bench] sweep artifact: {} (manifest fingerprint {})",
        dir.join("manifest.json").display(),
        outcome.manifest_fingerprint()
    );

    let perf_rows = outcome.rows_by_workload(|p| p.config.name == "performance-optimized");
    let cost_rows = outcome.rows_by_workload(|p| p.config.name == "cost-optimized");
    let workload_row = |name: &str| -> &Vec<RunMetrics> {
        &perf_rows
            .iter()
            .find(|(n, _)| n == name)
            .expect("catalog workload in master sweep")
            .1
    };

    eprintln!("==> tables");
    table1();
    table2();
    table3();
    table4();
    eprintln!("==> catalog figures (rendered from the master sweep)");
    render_fig04(&perf_rows);
    render_fig09("a-performance-optimized", &perf_rows);
    render_fig09("b-cost-optimized", &cost_rows);
    render_fig10("a-performance-optimized", &perf_rows);
    render_fig10("b-cost-optimized", &cost_rows);
    render_fig11("src1_0", workload_row("src1_0"));
    render_fig11("hm_0", workload_row("hm_0"));
    render_fig13(&perf_rows);
    render_fig14(&perf_rows);
    eprintln!("==> dedicated grids (mixes, shape axis, ablation)");
    fig12();
    fig15();
    ablate_routing();
}
