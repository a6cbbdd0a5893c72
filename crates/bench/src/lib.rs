//! Shared harness code for the figure/table reproduction binary and the
//! sweep tools.
//!
//! The `repro` binary regenerates the Venice paper's tables and figures
//! (all of them by default, one with `repro --only <name>`; the runners
//! live in [`figures`]). Each prints a markdown rendering to stdout and
//! writes a CSV under `results/`.
//!
//! Knobs (environment variables; invalid values warn on stderr and fall
//! back to the default):
//!
//! * `VENICE_REQUESTS` — requests per workload (default 3000),
//! * `VENICE_RESULTS_DIR` — where CSVs land (default `./results`),
//! * `VENICE_PAR` — thread budget of the shared worker pool (default:
//!   available cores, read once when the pool is first used). Every
//!   (workload × system) sweep point is one pool job; results are returned
//!   in grid order and are bit-identical for every `VENICE_PAR` value.
//!
//! Catalog sweeps print a one-line throughput summary to stderr (wall-clock
//! seconds plus simulator events/sec, see [`SweepSummary`]); together with
//! the `results/bench_*.json` files written by [`microbench`] this keeps the
//! engine's performance trajectory measurable run over run.
//!
//! All simulation fan-out goes through the [`sweep`] engine's single shared
//! [`sweep::WorkerPool`] — there is exactly one level of parallelism per
//! process, and `VENICE_PAR × systems` thread multiplication cannot happen.

#![warn(missing_docs)]

pub mod figures;
pub mod microbench;
pub mod sweep;

use std::path::{Path, PathBuf};

use venice_interconnect::FabricKind;
use venice_ssd::{run_single, RunMetrics, SsdConfig};
use venice_workloads::{catalog, Trace, WorkloadAxis};

use sweep::{SweepGrid, WorkerPool};

/// Parses `name` from the environment, warning on stderr (and falling back
/// to `default`) when the value is set but unparsable.
fn parsed_env<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!(
                    "warning: ignoring invalid {name}={raw:?}; using the default"
                );
                default
            }
        },
    }
}

/// Requests per workload for harness runs (`VENICE_REQUESTS`, default 3000).
pub fn requests() -> usize {
    parsed_env("VENICE_REQUESTS", 3000)
}

/// Directory CSV outputs are written to (`VENICE_RESULTS_DIR`, default
/// `./results`). Warns and falls back when the override names an existing
/// non-directory.
pub fn results_dir() -> PathBuf {
    match std::env::var("VENICE_RESULTS_DIR") {
        Err(_) => PathBuf::from("results"),
        Ok(raw) => {
            let p = PathBuf::from(&raw);
            if p.exists() && !p.is_dir() {
                eprintln!(
                    "warning: VENICE_RESULTS_DIR={raw:?} is not a directory; \
                     using the default ./results"
                );
                PathBuf::from("results")
            } else {
                p
            }
        }
    }
}

/// Catalog-sweep worker threads (`VENICE_PAR`, default: available cores).
/// Zero is invalid and warns like an unparsable value.
pub fn venice_par() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let par: usize = parsed_env("VENICE_PAR", cores);
    if par == 0 {
        eprintln!("warning: ignoring invalid VENICE_PAR=0; using the default");
        cores
    } else {
        par
    }
}

/// The five real systems of the main figures (Ideal added separately).
pub fn real_systems() -> [FabricKind; 5] {
    [
        FabricKind::Baseline,
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
    ]
}

/// Throughput summary of one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepSummary {
    /// Workload-axis values replayed.
    pub workloads: usize,
    /// Fabric-axis values per workload.
    pub systems: usize,
    /// Total grid points executed. For a plain catalog sweep this is
    /// `workloads × systems`; multi-axis grids (shapes, timings, queue
    /// depths, several configs) run more.
    pub points: usize,
    /// Worker threads used.
    pub par: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Total simulator events processed across all runs.
    pub events: u64,
}

impl SweepSummary {
    /// Simulator events per wall-clock second (the sweep's throughput).
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }
}

impl std::fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep: {} points ({} workloads x {} systems",
            self.points, self.workloads, self.systems,
        )?;
        if self.points != self.workloads * self.systems {
            write!(f, " x axes")?;
        }
        write!(
            f,
            ") in {:.2}s wall, {:.2}M events, {:.2}M events/s (pool={})",
            self.wall_seconds,
            self.events as f64 / 1e6,
            self.events_per_sec() / 1e6,
            self.par,
        )
    }
}

/// One catalog sweep row: a workload name and its per-system metrics.
pub type CatalogRow = (String, Vec<RunMetrics>);

/// The Table 2 catalog grid: every catalog workload × `systems` under
/// `config` — the sweep behind most of the paper's figures.
fn catalog_grid(config: &SsdConfig, systems: &[FabricKind], requests: usize) -> SweepGrid {
    SweepGrid::new("catalog")
        .config(config.clone())
        .workloads(WorkloadAxis::table2())
        .fabrics(systems)
        .requests(requests)
}

/// Runs every Table 2 workload across `systems` under `config`, returning
/// `(workload name, per-system metrics)` in catalog order.
///
/// Executes on the process-wide shared [`sweep::WorkerPool`] (sized by
/// [`venice_par`] at first use) and prints a throughput summary to stderr;
/// use [`sweep_catalog`] for explicit parallelism control or to consume the
/// [`SweepSummary`].
pub fn run_catalog(
    config: &SsdConfig,
    systems: &[FabricKind],
    requests: usize,
) -> Vec<CatalogRow> {
    let outcome = catalog_grid(config, systems, requests).run();
    eprintln!("[venice-bench] {}", outcome.summary());
    outcome.catalog_rows()
}

/// [`run_catalog`] with an explicit worker-thread count and no summary
/// print, on a dedicated [`WorkerPool`] of that size.
///
/// Every run is fully independent and deterministic per `(config, system,
/// trace)`, so the returned metrics are identical for every `par`; only
/// wall-clock time changes (this is what the pool-size determinism tests
/// assert).
pub fn sweep_catalog(
    config: &SsdConfig,
    systems: &[FabricKind],
    requests: usize,
    par: usize,
) -> (Vec<CatalogRow>, SweepSummary) {
    let pool = WorkerPool::new(par);
    let outcome = catalog_grid(config, systems, requests).run_on(&pool);
    (outcome.catalog_rows(), outcome.summary())
}

/// Runs one named workload across `systems` on the shared pool.
pub fn run_workload(
    config: &SsdConfig,
    systems: &[FabricKind],
    name: &str,
    requests: usize,
) -> Vec<RunMetrics> {
    let trace = catalog::by_name(name)
        .unwrap_or_else(|| panic!("unknown workload {name}"))
        .generate(requests);
    run_trace(config, systems, &trace)
}

/// Runs an arbitrary trace across `systems` on the shared pool (one job
/// per system; identical metrics to serial execution).
pub fn run_trace(config: &SsdConfig, systems: &[FabricKind], trace: &Trace) -> Vec<RunMetrics> {
    WorkerPool::global().run(
        systems
            .iter()
            .map(|&system| move || run_single(config, system, trace))
            .collect(),
    )
}

/// Renders point records as the per-point markdown table of a sweep
/// report, with speedup over the Baseline record at the same grid
/// coordinates when one is present.
fn point_table(records: &[sweep::PointRecord]) -> venice_ssd::report::Table {
    use venice_ssd::report::{f2, Table};
    let mut t = Table::new(
        ["point", "exec (ms)", "kIOPS", "conflict %", "vs Baseline"]
            .map(String::from)
            .to_vec(),
    );
    for sweep::PointRecord { point: p, metrics: m } in records {
        let vs_baseline = records
            .iter()
            .find(|b| b.point.fabric == FabricKind::Baseline && b.point.coord() == p.coord())
            .map_or_else(|| "-".to_string(), |b| format!("{}x", f2(m.speedup_over(&b.metrics))));
        t.row(vec![
            p.label.clone(),
            format!("{:.3}", m.execution_time.as_secs_f64() * 1e3),
            format!("{:.1}", m.iops() / 1e3),
            f2(m.conflict_pct()),
            vs_baseline,
        ]);
    }
    t
}

/// Prints a sweep outcome — a table of the points simulated *this* run,
/// with speedup over a same-coordinate Baseline point when one also ran —
/// and writes its artifact, which indexes every point, under `base_dir`.
/// The summary and the manifest path go to stderr.
pub fn report_sweep(outcome: &sweep::SweepOutcome, base_dir: &Path) {
    let records = outcome.records();
    println!(
        "# Sweep {}: {} points ({} reused, {} executed)\n",
        outcome.name(),
        outcome.points().len(),
        outcome.reused_count(),
        records.len()
    );
    if records.is_empty() {
        println!("all point records reused; pass --fresh to re-simulate\n");
    } else {
        print!("{}", point_table(records).to_markdown());
    }
    eprintln!("[venice-bench] {}", outcome.summary());
    match outcome.write(base_dir) {
        Ok(dir) => eprintln!(
            "[venice-bench] sweep artifact: {} (metrics fingerprint {})",
            dir.join("manifest.json").display(),
            outcome.metrics_fingerprint()
        ),
        Err(e) => eprintln!("warning: cannot write sweep artifact: {e}"),
    }
}

/// Speedup of `system` over the baseline entry in the same result row.
pub fn speedup(results: &[RunMetrics], system: FabricKind) -> f64 {
    let base = results
        .iter()
        .find(|m| m.system == FabricKind::Baseline)
        .expect("baseline present");
    results
        .iter()
        .find(|m| m.system == system)
        .expect("system present")
        .speedup_over(base)
}

/// Metric lookup by system.
pub fn metrics(results: &[RunMetrics], system: FabricKind) -> &RunMetrics {
    results
        .iter()
        .find(|m| m.system == system)
        .expect("system present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_one_workload() {
        let cfg = SsdConfig::performance_optimized();
        let results = run_workload(
            &cfg,
            &[FabricKind::Baseline, FabricKind::Venice],
            "hm_0",
            150,
        );
        assert_eq!(results.len(), 2);
        assert!(speedup(&results, FabricKind::Venice) > 0.0);
        assert_eq!(metrics(&results, FabricKind::Venice).system, FabricKind::Venice);
    }

    /// Every Baseline row of a sweep report reads `1.00x`, and every other
    /// row's ratio uses the Baseline with the same redundancy scheme and
    /// tenant set.
    #[test]
    fn report_ratios_use_the_same_coordinate_baseline() {
        use sweep::Knob;
        use venice_ssd::report::f2;
        use venice_ssd::{FaultPlan, RedundancyKind, TenantSet};

        let outcome = SweepGrid::new("unit-report")
            .workload(WorkloadAxis::congested())
            .knobs([Knob::Fault(FaultPlan::Chip)])
            .knobs(RedundancyKind::ALL.map(Knob::Redundancy))
            .knobs([TenantSet::single(), TenantSet::pair_fair()].map(Knob::Tenants))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(100)
            .run_on(&WorkerPool::new(2));
        let rows = outcome.records();
        assert_eq!(rows.len(), 8);
        let table = point_table(rows).to_markdown();
        let ratios: Vec<&str> = table
            .lines()
            .skip(2)
            .filter_map(|line| line.trim_end_matches(" |").rsplit(" | ").next())
            .collect();
        assert_eq!(ratios.len(), rows.len());
        for (sweep::PointRecord { point: p, metrics: m }, ratio) in rows.iter().zip(ratios) {
            let base = rows
                .iter()
                .map(|r| (&r.point, &r.metrics))
                .find(|(b, _)| {
                    b.fabric == FabricKind::Baseline
                        && b.config.redundancy.label() == p.config.redundancy.label()
                        && b.config.tenants.label() == p.config.tenants.label()
                })
                .expect("same-coordinate Baseline")
                .1;
            let expected = format!("{}x", f2(m.speedup_over(base)));
            assert_eq!(ratio, expected, "{}", p.label);
            if p.fabric == FabricKind::Baseline {
                assert_eq!(ratio, "1.00x", "{}", p.label);
            }
        }
    }

    #[test]
    fn sweep_summary_accounts_events() {
        let cfg = SsdConfig::performance_optimized();
        let (rows, summary) = sweep_catalog(&cfg, &[FabricKind::Ideal], 60, 4);
        assert_eq!(rows.len(), catalog::TABLE2.len());
        assert_eq!(summary.workloads, rows.len());
        assert_eq!(summary.systems, 1);
        let total: u64 = rows.iter().map(|(_, ms)| ms[0].events).sum();
        assert_eq!(summary.events, total);
        assert!(summary.events_per_sec() > 0.0);
        // Catalog order is preserved regardless of which worker ran what.
        for (row, entry) in rows.iter().zip(catalog::TABLE2.iter()) {
            assert_eq!(row.0, entry.name);
        }
    }
}
