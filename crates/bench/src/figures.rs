//! The paper's tables and figures as library functions over the sweep
//! engine.
//!
//! Each artifact is split into a *runner* (`fig09()`, `table2()`, ...) that
//! the `repro` binary calls (`repro --only fig09`), and, where the catalog
//! sweep feeds several figures, a private *renderer* (`render_fig09`) that
//! formats precomputed rows. The split lets [`repro_all`] (plain `repro`)
//! execute one master catalog sweep on the shared worker pool and render
//! every dependent figure from it without re-simulating, while a single
//! runner still runs exactly the grid the paper's figure needs. Renderers
//! are pure over their inputs, so a figure rendered from the master sweep
//! is byte-identical to one rendered from its standalone grid.
//!
//! Every figure with one column per fabric is built by `fabric_table`, and
//! every table and figure goes out through `emit`.

use venice_interconnect::{table4 as table4_rows, AreaModel, FabricKind, LinkPower};
use venice_sim::stats::{arithmetic_mean, geometric_mean};
use venice_ssd::report::{f2, f3, Table};
use venice_ssd::{RunMetrics, SsdConfig};
use venice_workloads::{catalog, mix, WorkloadAxis};

use crate::sweep::{Knob, SweepGrid};
use crate::{metrics, requests, results_dir, run_catalog, speedup, CatalogRow};

/// Prints `title` and `table` as markdown to stdout and writes the table
/// as `results/<file>`.
fn emit(title: &str, table: &Table, file: &str) {
    println!("{title}\n");
    print!("{}", table.to_markdown());
    table.write_csv(results_dir().join(file)).expect("write csv");
}

/// A fabric's column header: its label, with Ideal shown as the paper's
/// `Path-conflict-free`.
fn column(fabric: FabricKind) -> &'static str {
    match fabric {
        FabricKind::Ideal => "Path-conflict-free",
        other => other.label(),
    }
}

/// The summary row that closes a [`fabric_table`].
#[derive(Clone, Copy, Debug)]
enum Summary {
    /// `GMEAN`: each column's geometric mean (speedups).
    Gmean,
    /// `AVG`: each column's arithmetic mean (ratios and percentages).
    Avg,
}

/// Builds a figure table: a `key` column naming each row, one column per
/// fabric in `order` holding `value(row, fabric)` written by `format`, and
/// a closing `summary` row over each fabric's column.
fn fabric_table<R>(
    key: &str,
    rows: &[(String, R)],
    order: &[FabricKind],
    value: impl Fn(&R, FabricKind) -> f64,
    format: fn(f64) -> String,
    summary: Summary,
) -> Table {
    let header = std::iter::once(key).chain(order.iter().map(|&k| column(k)));
    let mut t = Table::new(header.map(String::from).collect());
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    for (name, row) in rows {
        let values: Vec<f64> = order.iter().map(|&k| value(row, k)).collect();
        for (c, &v) in cols.iter_mut().zip(&values) {
            c.push(v);
        }
        t.row(std::iter::once(name.clone()).chain(values.into_iter().map(format)).collect());
    }
    let (label, mean): (&str, fn(&[f64]) -> f64) = match summary {
        Summary::Gmean => ("GMEAN", |c| geometric_mean(c.iter().copied())),
        Summary::Avg => ("AVG", |c| arithmetic_mean(c.iter().copied())),
    };
    t.row(std::iter::once(label.to_string()).chain(cols.iter().map(|c| format(mean(c)))).collect());
    t
}

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
    emit("# Table 1: evaluated configurations", &t, "table1.csv");
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
    emit("# Table 2: trace characteristics, paper vs generated", &t, "table2.csv");
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
    emit("# Table 3: mixed workloads, paper vs generated", &t, "table3.csv");
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
    emit("# Table 4: power and area overheads of Venice", &t, "table4.csv");
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
}

/// Renders Figure 4 (prior approaches vs the ideal SSD) from catalog rows
/// that include at least Baseline, pSSD, pnSSD, NoSSD, and Ideal.
fn render_fig04(rows: &[CatalogRow]) {
    let order = [FabricKind::Pssd, FabricKind::PnSsd, FabricKind::NoSsd, FabricKind::Ideal];
    let t = fabric_table("workload", rows, &order, |r, k| speedup(r, k), f2, Summary::Gmean);
    emit(
        "# Figure 4: prior approaches vs the ideal SSD (speedup over Baseline)",
        &t,
        "fig04.csv",
    );
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

/// Runs the catalog on all six systems under each Table 1 configuration
/// and renders one panel per configuration, tagged with the output-file
/// suffix (`a-performance-optimized` / `b-cost-optimized`).
fn per_config(render: fn(&str, &[CatalogRow])) {
    for (tag, cfg) in [
        ("a-performance-optimized", SsdConfig::performance_optimized()),
        ("b-cost-optimized", SsdConfig::cost_optimized()),
    ] {
        render(tag, &run_catalog(&cfg, &FabricKind::ALL, requests()));
    }
}

/// Renders one configuration's Figure 9 panel (speedup over Baseline) from
/// all-six-system catalog rows.
fn render_fig09(tag: &str, rows: &[CatalogRow]) {
    let order = &FabricKind::ALL[1..];
    let t = fabric_table("workload", rows, order, |r, k| speedup(r, k), f2, Summary::Gmean);
    emit(&format!("\n# Figure 9{tag}: speedup over Baseline"), &t, &format!("fig09{tag}.csv"));
}

/// Figure 9, standalone: both Table 1 configurations across all six systems.
pub fn fig09() {
    per_config(render_fig09);
}

/// Renders one configuration's Figure 10 panel (IOPS normalized to the
/// ideal SSD) from all-six-system catalog rows.
fn render_fig10(tag: &str, rows: &[CatalogRow]) {
    let normalized = |r: &Vec<RunMetrics>, k| {
        metrics(r, k).iops() / metrics(r, FabricKind::Ideal).iops()
    };
    let t = fabric_table("workload", rows, &FabricKind::ALL[..5], normalized, f3, Summary::Avg);
    emit(
        &format!("\n# Figure 10{tag}: throughput normalized to the ideal SSD"),
        &t,
        &format!("fig10{tag}.csv"),
    );
}

/// Figure 10, standalone: both Table 1 configurations across all six
/// systems.
pub fn fig10() {
    per_config(render_fig10);
}

/// Renders one workload's Figure 11 tail-latency CDF from all-six-system
/// results (paper order: Baseline, pSSD, pnSSD, NoSSD, Venice, Ideal).
fn render_fig11(name: &str, results: &[RunMetrics]) {
    let header = std::iter::once("quantile").chain(results.iter().map(|m| m.system.label()));
    let mut t = Table::new(header.map(String::from).collect());
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
    emit(
        &format!("\n# Figure 11: {name} tail latency CDF (latencies in µs at quantile)"),
        &t,
        &format!("fig11-{name}.csv"),
    );
    // Headline number: p99 reduction of Venice vs Baseline.
    let p99 = |idx: usize| cdfs[idx][0].0.as_micros_f64();
    println!(
        "\nVenice p99 vs Baseline p99: {:.1} µs vs {:.1} µs ({:.0}% lower)\n",
        p99(4),
        p99(0),
        (1.0 - p99(4) / p99(0)) * 100.0
    );
}

/// Figure 11, standalone: src1_0 and hm_0 across all six systems, as one
/// grid.
pub fn fig11() {
    let outcome = SweepGrid::new("fig11")
        .config(SsdConfig::performance_optimized())
        .workloads(["src1_0", "hm_0"].map(|n| WorkloadAxis::catalog(n).expect("catalog")).to_vec())
        .fabrics(&FabricKind::ALL)
        .requests(requests())
        .run();
    for (name, results) in outcome.catalog_rows() {
        render_fig11(&name, &results);
    }
}

/// Renders Figure 12 (mixed-workload speedups) from per-mix all-six-system
/// rows in Table 3 order.
fn render_fig12(rows: &[CatalogRow]) {
    let order = &FabricKind::ALL[1..];
    let t = fabric_table("mix", rows, order, |r, k| speedup(r, k), f2, Summary::Gmean);
    emit("# Figure 12: mixed workloads (speedup over Baseline)", &t, "fig12.csv");
}

/// Figure 12, standalone: the six Table 3 mixes as a sweep grid (each mix
/// splits the request budget across its constituent streams).
pub fn fig12() {
    let outcome = SweepGrid::new("fig12")
        .config(SsdConfig::performance_optimized())
        .workloads(WorkloadAxis::table3())
        .fabrics(&FabricKind::ALL)
        .requests(requests())
        .run();
    render_fig12(&outcome.catalog_rows());
}

/// Renders Figure 13 (% of requests experiencing path conflicts) from
/// all-six-system catalog rows.
fn render_fig13(rows: &[CatalogRow]) {
    let conflicts = |r: &Vec<RunMetrics>, k| metrics(r, k).conflict_pct();
    let t = fabric_table("workload", rows, &FabricKind::ALL[..5], conflicts, f2, Summary::Avg);
    emit("# Figure 13: % of I/O requests experiencing path conflicts", &t, "fig13.csv");
}

/// Figure 13, standalone: performance-optimized catalog across all six
/// systems.
pub fn fig13() {
    let rows = run_catalog(&SsdConfig::performance_optimized(), &FabricKind::ALL, requests());
    render_fig13(&rows);
}

/// Renders Figure 14 (power and energy normalized to Baseline) from catalog
/// rows that include the five real systems.
fn render_fig14(rows: &[CatalogRow]) {
    for (tag, title) in [("a-power", "power"), ("b-energy", "energy")] {
        let of = |m: &RunMetrics| if title == "power" { m.avg_power_mw } else { m.energy_mj };
        let normalized = |r: &Vec<RunMetrics>, k| {
            of(metrics(r, k)) / of(metrics(r, FabricKind::Baseline))
        };
        let order = &FabricKind::ALL[1..5];
        let t = fabric_table("workload", rows, order, normalized, f3, Summary::Avg);
        emit(
            &format!("\n# Figure 14{tag}: normalized {title} (vs Baseline)"),
            &t,
            &format!("fig14{tag}.csv"),
        );
    }
}

/// Figure 14, standalone: the five real systems on the
/// performance-optimized catalog.
pub fn fig14() {
    let rows = run_catalog(&SsdConfig::performance_optimized(), &FabricKind::ALL[..5], requests());
    render_fig14(&rows);
}

/// Figure 15: one grid with a 4×16 / 8×8 / 16×4 shape axis (pnSSD
/// omitted, as in the paper, because it requires an N×N array), one row
/// per shape of GMEAN speedups over Baseline.
pub fn fig15() {
    let shapes = [(4u16, 16u16), (8, 8), (16, 4)];
    let order = [FabricKind::Pssd, FabricKind::NoSsd, FabricKind::Venice, FabricKind::Ideal];
    let outcome = SweepGrid::new("fig15")
        .config(SsdConfig::performance_optimized())
        .workloads(WorkloadAxis::table2())
        .knobs(shapes.map(|(rows, cols)| Knob::Shape(rows, cols)))
        .fabrics(&[FabricKind::Baseline])
        .fabrics(&order)
        .requests(requests())
        .run();
    let header = std::iter::once("shape").chain(order.iter().map(|&k| column(k)));
    let mut t = Table::new(header.map(String::from).collect());
    for (rows_dim, cols_dim) in shapes {
        let per_workload = outcome.rows_by_workload(|p| {
            (p.config.fabric.rows, p.config.fabric.cols) == (rows_dim, cols_dim)
        });
        let gmean = |k| geometric_mean(per_workload.iter().map(|(_, r)| speedup(r, k)));
        t.row(
            std::iter::once(format!("{rows_dim}x{cols_dim}"))
                .chain(order.iter().map(|&k| f2(gmean(k))))
                .collect(),
        );
    }
    emit(
        "# Figure 15: controller-count sensitivity (GMEAN speedup over Baseline)",
        &t,
        "fig15.csv",
    );
}

/// The routing-adaptivity ablation: full Venice vs minimal-only Venice vs
/// NoSSD's deterministic XY, on a read-intensive workload subset. The
/// minimal-only configuration is a second config of the same grid, under
/// its own config name.
pub fn ablate_routing() {
    let names = ["proj_3", "src2_1", "YCSB_B", "ssd-10", "hm_0"];
    let full = SsdConfig::performance_optimized();
    let mut minimal = full.clone();
    minimal.name = "venice-minimal-only";
    minimal.fabric.venice_minimal_only = true;
    let outcome = SweepGrid::new("ablate_routing")
        .config(full)
        .config(minimal)
        .workloads(names.map(|n| WorkloadAxis::catalog(n).expect("catalog")).to_vec())
        .fabrics(&[FabricKind::Baseline, FabricKind::NoSsd, FabricKind::Venice])
        .requests(requests())
        .run();
    let rows = |config: &str| outcome.rows_by_workload(|p| p.config.name == config);
    let mut t = Table::new(
        ["workload", "NoSSD (XY)", "Venice minimal-only", "Venice (full)"]
            .map(String::from)
            .to_vec(),
    );
    let (full, minimal) = (rows("performance-optimized"), rows("venice-minimal-only"));
    for ((name, full), (_, minimal)) in full.iter().zip(&minimal) {
        t.row(vec![
            name.clone(),
            f2(speedup(full, FabricKind::NoSsd)),
            f2(speedup(minimal, FabricKind::Venice)),
            f2(speedup(full, FabricKind::Venice)),
        ]);
    }
    emit("# Ablation: routing adaptivity (speedup over Baseline)", &t, "ablate_routing.csv");
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
        .fabrics(&FabricKind::ALL)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The table builder on hand-made rows: fabric-label headers with Ideal
    /// as `Path-conflict-free`, one line per row in input order, and the
    /// summary row over each column.
    #[test]
    fn fabric_table_writes_exact_csv() {
        let rows: Vec<(String, [f64; 3])> = vec![
            ("hm_0".to_string(), [1.0, 2.0, 0.5]),
            ("proj_3".to_string(), [4.0, 8.0, 0.25]),
        ];
        let value = |r: &[f64; 3], k: FabricKind| match k {
            FabricKind::Baseline | FabricKind::Venice => r[0],
            FabricKind::Ideal => r[1],
            _ => r[2],
        };
        let speedups = [FabricKind::Venice, FabricKind::Ideal];
        let gmean = fabric_table("workload", &rows, &speedups, value, f2, Summary::Gmean);
        assert_eq!(
            gmean.to_csv(),
            "workload,Venice,Path-conflict-free\n\
             hm_0,1.00,2.00\nproj_3,4.00,8.00\nGMEAN,2.00,4.00\n"
        );
        let ratios = [FabricKind::Baseline, FabricKind::Pssd];
        let avg = fabric_table("mix", &rows, &ratios, value, f3, Summary::Avg);
        assert_eq!(
            avg.to_csv(),
            "mix,Baseline,pSSD\nhm_0,1.000,0.500\nproj_3,4.000,0.250\nAVG,2.500,0.375\n"
        );
    }
}
