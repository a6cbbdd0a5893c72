//! The design-space sweep engine: grids of (config × workload × config
//! axes × fabric) points executed on one shared worker pool, with
//! reproducible JSON artifacts. The config axes — shape, NAND timing,
//! queue depth, dispatch policy, scout cache, fault plan, tenant set,
//! resilience and redundancy — are one [`Knob`] table.
//!
//! This module is the process's only source of simulation parallelism:
//! every simulation of a sweep is one job on a [`WorkerPool`], and the
//! engine crates start no threads of their own.
//!
//! # Determinism contract
//!
//! A sweep point's [`RunMetrics`] depend only on its `(config, system,
//! trace)` triple — never on the pool size, job interleaving, or which
//! worker ran it. Results are returned in point-id order, and the manifest
//! carries content fingerprints ([`SweepOutcome::grid_hash`],
//! [`SweepOutcome::metrics_fingerprint`]) that are bit-identical for every
//! pool size; `tests/integration.rs` asserts this for pool sizes 1 and 4.
//!
//! # Example
//!
//! ```no_run
//! use venice_bench::sweep::{Knob, SweepGrid};
//! use venice_interconnect::FabricKind;
//! use venice_workloads::WorkloadAxis;
//!
//! let outcome = SweepGrid::new("demo")
//!     .workload(WorkloadAxis::catalog("hm_0").unwrap())
//!     .knobs([Knob::QueueDepth(4), Knob::QueueDepth(16)])
//!     .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
//!     .requests(500)
//!     .run();
//! let dir = outcome.write(&venice_bench::results_dir()).unwrap();
//! println!("manifest at {}", dir.join("manifest.json").display());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use venice_interconnect::FabricKind;
use venice_nand::NandTiming;
use venice_ssd::report::Json;
use venice_ssd::{
    run_single, DispatchPolicyKind, FaultPlan, RedundancyKind, ResiliencePolicy, RunMetrics,
    ScoutCacheKind, SsdConfig, TenantSet,
};
use venice_workloads::{Trace, WorkloadAxis};

use crate::{CatalogRow, SweepSummary};

/// The shared worker pool: a fixed thread budget draining a batch of
/// independent jobs through one atomic work queue.
///
/// There is one [`WorkerPool::global`] pool per process (sized by
/// `VENICE_PAR`, default: available cores); explicitly sized pools exist
/// for reproducibility tests. Workers are scoped threads spawned per
/// batch, so idle sweeps keep no threads alive.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

/// The process-wide pool instance behind [`WorkerPool::global`].
static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// Creates a pool with an explicit thread budget (floor of one).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The process-wide shared pool, created on first use and sized by
    /// `VENICE_PAR` (default: available cores) at that moment.
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| WorkerPool::new(crate::venice_par()))
    }

    /// The pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns their results in job order.
    ///
    /// Jobs are claimed from a shared atomic queue by `min(threads, jobs)`
    /// scoped workers, so an expensive job never blocks the queue — idle
    /// workers steal the remaining ones.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let n = jobs.len();
        let workers = self.threads.min(n.max(1));
        let next = AtomicUsize::new(0);
        let jobs: Vec<Mutex<Option<F>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    *slots[i].lock().expect("result slot poisoned") = Some(job());
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job completed")
            })
            .collect()
    }
}

/// One value on one config axis of a [`SweepGrid`].
///
/// The variants are the grid's nine config axes, in expansion order, and
/// this enum's `AXES` table and four matches — `axis`, `of`, `apply` and
/// `label` — are the only place an axis is named: adding an axis is one
/// variant, one table row and one arm in each match.
#[derive(Clone, Debug, PartialEq)]
pub enum Knob {
    /// Array shape (`rows × cols` controller layout). Shapes preserving the
    /// base config's chip count reshape it (the Figure 15 sweep); larger
    /// meshes — 16×16, 32×32 — resize the chip array with the fabric
    /// (`SsdConfig::with_mesh`), putting big-mesh scaling on the grid.
    Shape(u16, u16),
    /// NAND operation latencies.
    Timing(NandTiming),
    /// Submission-queue depth.
    QueueDepth(usize),
    /// Dispatch policy.
    Policy(DispatchPolicyKind),
    /// Venice scout fast-fail cache mode (the cache ablation).
    ScoutCache(ScoutCacheKind),
    /// Scripted fault plan (the degraded-mode ablation).
    Fault(FaultPlan),
    /// Tenant set: tenant→queue partitioning, WRR weights and per-tenant
    /// queue-depth caps (the multi-tenant QoS ablation).
    Tenants(TenantSet),
    /// Host-resilience preset: request deadlines, bounded host retry and
    /// submission-side admission control.
    Resilience(ResiliencePolicy),
    /// Die-level redundancy scheme (the RAIN rebuild ablation).
    Redundancy(RedundancyKind),
}

impl Knob {
    /// Each axis's key in the grid definition JSON and prefix in point
    /// labels, indexed by [`Knob::axis`] — which is also the expansion
    /// order.
    pub(crate) const AXES: [(&'static str, &'static str); 9] = [
        ("shapes", ""),
        ("timings", ""),
        ("queue_depths", "qd"),
        ("policies", ""),
        ("scout_caches", ""),
        ("faults", ""),
        ("tenants", ""),
        ("resilience", ""),
        ("redundancy", ""),
    ];

    /// This value's axis: its index into [`Knob::AXES`].
    pub(crate) fn axis(&self) -> usize {
        match self {
            Knob::Shape(..) => 0,
            Knob::Timing(_) => 1,
            Knob::QueueDepth(_) => 2,
            Knob::Policy(_) => 3,
            Knob::ScoutCache(_) => 4,
            Knob::Fault(_) => 5,
            Knob::Tenants(_) => 6,
            Knob::Resilience(_) => 7,
            Knob::Redundancy(_) => 8,
        }
    }

    /// `config`'s own value on `axis` — what an axis the grid leaves unset
    /// sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is not an index into [`Knob::AXES`].
    pub(crate) fn of(axis: usize, config: &SsdConfig) -> Knob {
        match axis {
            0 => Knob::Shape(config.fabric.rows, config.fabric.cols),
            1 => Knob::Timing(config.timing),
            2 => Knob::QueueDepth(config.hil.queue_depth),
            3 => Knob::Policy(config.dispatch),
            4 => Knob::ScoutCache(config.scout_cache()),
            5 => Knob::Fault(config.fault_plan),
            6 => Knob::Tenants(config.tenants.clone()),
            7 => Knob::Resilience(config.resilience),
            8 => Knob::Redundancy(config.redundancy),
            _ => panic!("no config axis {axis}"),
        }
    }

    /// `config` with this value set.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape (zero rows/cols or a chip count beyond
    /// the u16 id space), like `SsdConfig::with_mesh`.
    pub(crate) fn apply(&self, config: SsdConfig) -> SsdConfig {
        match self {
            Knob::Shape(rows, cols) => config.with_mesh(*rows, *cols),
            Knob::Timing(timing) => config.with_timing(*timing),
            Knob::QueueDepth(depth) => config.with_queue_depth(*depth),
            Knob::Policy(policy) => config.with_dispatch_policy(*policy),
            Knob::ScoutCache(cache) => config.with_scout_cache(*cache),
            Knob::Fault(plan) => config.with_fault_plan(*plan),
            Knob::Tenants(set) => config.with_tenants(set.clone()),
            Knob::Resilience(policy) => config.with_resilience(*policy),
            Knob::Redundancy(kind) => config.with_redundancy(*kind),
        }
    }

    /// The value's name in point labels and the definition JSON (`8x8`,
    /// `z-nand`, `32`, `retry-all`, ...; a timing that is no preset reads
    /// `custom`).
    pub(crate) fn label(&self) -> String {
        match self {
            Knob::Shape(rows, cols) => format!("{rows}x{cols}"),
            Knob::Timing(timing) => timing.preset_name().unwrap_or("custom").to_string(),
            Knob::QueueDepth(depth) => depth.to_string(),
            Knob::Policy(policy) => policy.label().to_string(),
            Knob::ScoutCache(cache) => cache.label().to_string(),
            Knob::Fault(plan) => plan.label().to_string(),
            Knob::Tenants(set) => set.label().to_string(),
            Knob::Resilience(policy) => policy.label().to_string(),
            Knob::Redundancy(kind) => kind.label(),
        }
    }
}

/// A design-space grid: axes that expand into a deterministic, id-stamped
/// list of [`SweepPoint`]s.
///
/// Empty axes fall back to the base: no `configs` means the Table 1
/// performance-optimized preset, no `fabrics` means all six systems, no
/// `workloads` means the whole Table 2 catalog, and a config axis with no
/// [`Knob`] sweeps each config's own value. Expansion order is fixed —
/// configs ▸ workloads ▸ the config axes in [`Knob`] variant order ▸
/// fabrics (innermost) — so point ids are stable for a given grid.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    name: String,
    requests: usize,
    configs: Vec<SsdConfig>,
    workloads: Vec<WorkloadAxis>,
    /// The values of each config axis, indexed by [`Knob::axis`].
    knobs: [Vec<Knob>; Knob::AXES.len()],
    fabrics: Vec<FabricKind>,
}

/// Watchdog event ceiling armed on every sweep point whose config does not
/// set its own (generous: orders of magnitude above any healthy point, so
/// it only ever fires on a genuinely runaway simulation).
pub const SWEEP_MAX_EVENTS: u64 = 2_000_000_000;

/// Watchdog simulated-time ceiling armed on every sweep point whose config
/// does not set its own (one simulated hour).
pub const SWEEP_MAX_SIM_NS: u64 = 3_600_000_000_000;

impl SweepGrid {
    /// Creates an empty grid named `name` (the name keys the output
    /// directory `results/sweep_<name>/`). Requests default to
    /// [`crate::requests`] (`VENICE_REQUESTS`, default 3000).
    pub fn new(name: impl Into<String>) -> Self {
        SweepGrid {
            name: name.into(),
            requests: crate::requests(),
            configs: Vec::new(),
            workloads: Vec::new(),
            knobs: Default::default(),
            fabrics: Vec::new(),
        }
    }

    /// Sets the per-workload request budget.
    pub fn requests(mut self, requests: usize) -> Self {
        self.requests = requests.max(1);
        self
    }

    /// Adds one base configuration to the config axis.
    pub fn config(mut self, config: SsdConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds one workload to the workload axis.
    pub fn workload(mut self, axis: WorkloadAxis) -> Self {
        self.workloads.push(axis);
        self
    }

    /// Extends the workload axis.
    pub fn workloads(mut self, axes: Vec<WorkloadAxis>) -> Self {
        self.workloads.extend(axes);
        self
    }

    /// Extends the fabric axis.
    pub fn fabrics(mut self, fabrics: &[FabricKind]) -> Self {
        self.fabrics.extend_from_slice(fabrics);
        self
    }

    /// Replaces the fabric axis wholesale (CLI `--systems` override).
    pub fn replace_fabrics(mut self, fabrics: &[FabricKind]) -> Self {
        self.fabrics.clear();
        self.fabrics.extend_from_slice(fabrics);
        self
    }

    /// Extends the config axes: each knob is appended to its own axis.
    pub fn knobs(mut self, knobs: impl IntoIterator<Item = Knob>) -> Self {
        for knob in knobs {
            self.knobs[knob.axis()].push(knob);
        }
        self
    }

    /// Replaces every config axis `knobs` names with just these values (a
    /// CLI override such as `--scout-cache`: like
    /// [`SweepGrid::replace_fabrics`], overriding an axis the grid already
    /// sets restricts it instead of appending duplicate points).
    pub fn replace_knobs(mut self, knobs: impl IntoIterator<Item = Knob>) -> Self {
        let knobs: Vec<Knob> = knobs.into_iter().collect();
        for knob in &knobs {
            self.knobs[knob.axis()].clear();
        }
        self.knobs(knobs)
    }

    /// Resolved workload axis (Table 2 catalog when none was set).
    fn effective_workloads(&self) -> Vec<WorkloadAxis> {
        if self.workloads.is_empty() {
            WorkloadAxis::table2()
        } else {
            self.workloads.clone()
        }
    }

    /// Resolved config axis (performance-optimized when none was set).
    fn effective_configs(&self) -> Vec<SsdConfig> {
        if self.configs.is_empty() {
            vec![SsdConfig::performance_optimized()]
        } else {
            self.configs.clone()
        }
    }

    /// Resolved fabric axis (all six systems when none was set).
    fn effective_fabrics(&self) -> Vec<FabricKind> {
        if self.fabrics.is_empty() {
            FabricKind::ALL.to_vec()
        } else {
            self.fabrics.clone()
        }
    }

    /// Expands the grid into its deterministic, id-stamped point list.
    ///
    /// # Panics
    ///
    /// Panics if a shape-axis value is degenerate (zero rows/cols or a
    /// chip count beyond the u16 id space) — fail-fast, before any
    /// simulation runs.
    pub fn build_points(&self) -> Vec<SweepPoint> {
        let workloads = self.effective_workloads();
        let fabrics = self.effective_fabrics();
        let mut points = Vec::new();
        for base in &self.effective_configs() {
            // Sweeps run unattended: arm the generous runaway-run watchdog
            // unless the base config set its own ceilings.
            let armed = if base.max_events.is_none() && base.max_sim_ns.is_none() {
                base.clone()
                    .with_watchdog(Some(SWEEP_MAX_EVENTS), Some(SWEEP_MAX_SIM_NS))
            } else {
                base.clone()
            };
            // The cartesian product of the config axes, last axis fastest:
            // one resolved config and its label segments per coordinate.
            let mut coords = vec![(armed, String::new())];
            for (axis, set) in self.knobs.iter().enumerate() {
                let values = if set.is_empty() {
                    vec![Knob::of(axis, base)]
                } else {
                    set.clone()
                };
                let (_, prefix) = Knob::AXES[axis];
                coords = coords
                    .iter()
                    .flat_map(|(config, segments)| {
                        values.iter().map(move |knob| {
                            let segment = format!("{segments}/{prefix}{}", knob.label());
                            (knob.apply(config.clone()), segment)
                        })
                    })
                    .collect();
            }
            for (workload_idx, workload) in workloads.iter().enumerate() {
                for (config, segments) in &coords {
                    for &fabric in &fabrics {
                        points.push(SweepPoint {
                            id: points.len(),
                            label: format!(
                                "{}/{}{segments}/{}",
                                base.name,
                                workload.name(),
                                fabric.label()
                            ),
                            workload_idx,
                            workload: workload.name().to_string(),
                            fabric,
                            config: config.clone(),
                        });
                    }
                }
            }
        }
        points
    }

    /// Runs the grid on the process-wide [`WorkerPool::global`] pool.
    pub fn run(&self) -> SweepOutcome {
        self.run_on(WorkerPool::global())
    }

    /// Runs the grid on an explicit pool (used by the determinism tests to
    /// compare pool sizes; results are bit-identical for every size).
    ///
    /// Traces are generated once per workload axis value — also on the
    /// pool — and shared by reference across every point that replays
    /// them, so a six-fabric grid does not generate its traces six times.
    pub fn run_on(&self, pool: &WorkerPool) -> SweepOutcome {
        self.complete(pool, |_| None, None)
    }

    /// Runs the grid, reusing any point records already on disk from a
    /// previous run of the *same* grid — the resumable sweep.
    ///
    /// A prior artifact at `base_dir/sweep_<name>/` is trusted when its
    /// `grid.json` stamp byte-equals this grid's definition JSON (name,
    /// requests, every axis — so any change invalidates reuse; the
    /// stamp's FNV hash is the manifest's `grid_hash`). Points whose
    /// record file parses and did not fail are not re-simulated; only the
    /// missing ones run on `pool`. `fresh` forces a full re-run regardless
    /// (the CLI's `--fresh`).
    ///
    /// The grid stamp is written *before* any simulation and every
    /// executed point persists its record (atomically, via a temp-file
    /// rename) *as it completes*, so a killed sweep resumes from the
    /// points it finished. When the stamp does not match, stale point
    /// records are cleared first — records from two different grids can
    /// never mix. Call [`SweepOutcome::write`] afterwards to (re)write
    /// the manifest indexing all points; until then, a prior run's
    /// manifest may lag the stamp.
    pub fn run_resumable(&self, base_dir: &Path, pool: &WorkerPool, fresh: bool) -> SweepOutcome {
        let dir = base_dir.join(format!("sweep_{}", self.name));
        // Best-effort: an unwritable results dir degrades to a
        // non-resumable sweep, not a failure.
        let resumable = claim_dir(&dir, &self.definition(), fresh).unwrap_or(false);
        let reuse = |p: &SweepPoint| {
            let json = std::fs::read_to_string(dir.join(p.file_name())).ok()?;
            // Only a whole document is trusted, and a failed (panicked)
            // point's placeholder is retried rather than reused.
            let doc = Json::parse(&json).ok()?;
            (doc.get("status").and_then(Json::as_str) != Some("failed")).then_some(json)
        };
        self.complete(pool, |p| resumable.then(|| reuse(p)).flatten(), Some(&dir))
    }

    /// Simulates, on `pool`, every point `reuse` has no record for —
    /// generating only the traces those points replay — and, with
    /// `persist`, writes each new record into that sweep directory the
    /// moment its point finishes (best-effort).
    fn complete(
        &self,
        pool: &WorkerPool,
        reuse: impl Fn(&SweepPoint) -> Option<String>,
        persist: Option<&Path>,
    ) -> SweepOutcome {
        let start = Instant::now();
        let points = self.build_points();
        let mut records: Vec<Option<String>> = points.iter().map(reuse).collect();
        let workloads = self.effective_workloads();
        let requests = self.requests;
        let missing: Vec<&SweepPoint> = points.iter().filter(|p| records[p.id].is_none()).collect();
        let traces: Vec<Option<Trace>> = pool.run(
            (0..workloads.len())
                .map(|i| {
                    let need = missing.iter().any(|p| p.workload_idx == i);
                    let axis = &workloads[i];
                    move || need.then(|| axis.trace(requests))
                })
                .collect(),
        );
        let results: Vec<(RunMetrics, String)> = pool.run(
            missing
                .iter()
                .map(|point| {
                    let trace = traces[point.workload_idx]
                        .as_ref()
                        .expect("trace generated for missing point");
                    move || {
                        let metrics = run_point_guarded(point, trace);
                        let json = metrics.to_json();
                        if let Some(dir) = persist {
                            let _ = write_atomic(&dir.join(point.file_name()), json.as_bytes());
                        }
                        (metrics, json)
                    }
                })
                .collect(),
        );
        let ran = missing
            .into_iter()
            .zip(results)
            .map(|(point, (metrics, json))| {
                records[point.id] = Some(json);
                PointRecord {
                    point: point.clone(),
                    metrics,
                }
            })
            .collect();
        SweepOutcome {
            grid: self.definition(),
            name: self.name.clone(),
            requests,
            workload_count: workloads.len(),
            fabric_count: self.effective_fabrics().len(),
            pool_threads: pool.threads(),
            wall_seconds: start.elapsed().as_secs_f64(),
            point_jsons: records
                .into_iter()
                .map(|json| json.expect("every point reused or simulated"))
                .collect(),
            points,
            ran,
        }
    }

    /// The grid definition as one stable JSON object (embedded in the
    /// manifest, and its one-line text is the `grid.json` stamp hashed
    /// into [`SweepOutcome::grid_hash`]). An unset config axis lists
    /// `"base"`.
    pub fn definition(&self) -> Json {
        let list = |labels: Vec<String>| Json::Array(labels.into_iter().map(Json::Str).collect());
        let configs = self.effective_configs().iter().map(|c| c.name.to_string()).collect();
        let workloads = self.effective_workloads().iter().map(|w| w.name().to_string()).collect();
        let fabrics = self.effective_fabrics().iter().map(|f| f.label().to_string()).collect();
        let mut definition = Json::object()
            .with("name", self.name.as_str())
            .with("requests", self.requests as u64)
            .with("configs", list(configs))
            .with("workloads", list(workloads));
        for ((key, _), set) in Knob::AXES.iter().zip(&self.knobs) {
            let labels = if set.is_empty() {
                vec!["base".to_string()]
            } else {
                set.iter().map(Knob::label).collect()
            };
            definition = definition.with(key, list(labels));
        }
        definition.with("fabrics", list(fabrics))
    }
}

/// One expanded grid point: a fully resolved configuration plus the axis
/// coordinates it came from.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Position in the grid's deterministic expansion order (also the
    /// result order and the point-file numbering).
    pub id: usize,
    /// Human-readable coordinates — config, workload, one segment per
    /// config axis in [`Knob`] variant order, fabric — e.g.
    /// `performance-optimized/hm_0/8x8/z-nand/qd8/retry-all/cache-off/none/single/none/none/Venice`.
    pub label: String,
    /// Index into the grid's workload axis (shared-trace lookup).
    pub workload_idx: usize,
    /// Workload axis value name.
    pub workload: String,
    /// The fabric under test.
    pub fabric: FabricKind,
    /// The fully resolved configuration this point simulates (its config
    /// name and every config-axis value live here).
    pub config: SsdConfig,
}

impl SweepPoint {
    /// Every coordinate but the fabric: the workload-axis index (axis
    /// names need not be unique) and the label minus its fabric segment.
    /// Points that differ only in fabric share it — it keys the rows of
    /// [`SweepOutcome::rows_by_workload`] and the report tables' Baseline
    /// lookup.
    pub fn coord(&self) -> (usize, &str) {
        let end = self.label.rfind('/').unwrap_or(self.label.len());
        (self.workload_idx, &self.label[..end])
    }

    /// The point's result file name inside the sweep directory
    /// (`points/p<id>-<sanitized label>.json`).
    pub fn file_name(&self) -> String {
        let slug: String = self
            .label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        format!("points/p{:04}-{}.json", self.id, slug)
    }
}

/// One executed point: its coordinates plus the run's metrics.
#[derive(Clone, Debug)]
pub struct PointRecord {
    /// The grid coordinates and resolved configuration.
    pub point: SweepPoint,
    /// The simulation's metrics.
    pub metrics: RunMetrics,
}

/// The result of running a [`SweepGrid`], by [`SweepGrid::run_on`] or
/// [`SweepGrid::run_resumable`]: every point's stable JSON record in id
/// order — reused from disk or freshly simulated — plus the metrics of the
/// points simulated this run, and everything needed to write a
/// reproducible artifact.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    grid: Json,
    name: String,
    requests: usize,
    workload_count: usize,
    fabric_count: usize,
    pool_threads: usize,
    wall_seconds: f64,
    /// Every grid point, in id order.
    points: Vec<SweepPoint>,
    /// One stable JSON record per point, in id order: the fingerprints,
    /// manifest and artifact writer all read these.
    point_jsons: Vec<String>,
    /// The points simulated this run, with their metrics, in id order.
    ran: Vec<PointRecord>,
}

impl SweepOutcome {
    /// The points simulated this run, with their metrics, in id order:
    /// every point after [`SweepGrid::run_on`], the missing ones after
    /// [`SweepGrid::run_resumable`].
    pub fn records(&self) -> &[PointRecord] {
        &self.ran
    }

    /// Every grid point, in id order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Every point with its parsed JSON record, in id order. Each record
    /// parses — it was just written by `RunMetrics::to_json` or parsed
    /// before reuse — so the `Null` fallback never shows.
    pub fn documents(&self) -> impl Iterator<Item = (&SweepPoint, Json)> {
        self.points
            .iter()
            .zip(&self.point_jsons)
            .map(|(p, json)| (p, Json::parse(json).unwrap_or(Json::Null)))
    }

    /// How many point records were reused from a prior artifact.
    pub fn reused_count(&self) -> usize {
        self.points.len() - self.ran.len()
    }

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sweep artifact directory under `base_dir`: `sweep_<name>`.
    pub fn dir(&self, base_dir: &Path) -> PathBuf {
        base_dir.join(format!("sweep_{}", self.name))
    }

    /// FNV-1a hash of the grid definition JSON: identifies *what* was swept.
    pub fn grid_hash(&self) -> String {
        format!(
            "{:016x}",
            fnv1a(self.grid.to_string().as_bytes(), FNV_OFFSET)
        )
    }

    /// FNV-1a hash chained over every point record in id order, from
    /// `seed`.
    fn chain_points(&self, seed: u64) -> u64 {
        self.point_jsons
            .iter()
            .fold(seed, |h, json| fnv1a(json.as_bytes(), h))
    }

    /// FNV-1a hash chained over every point record in id order: identifies
    /// *what came out*. Bit-identical across pool sizes, execution orders
    /// and resumes; wall-clock time and environment are excluded.
    pub fn metrics_fingerprint(&self) -> String {
        format!("{:016x}", self.chain_points(FNV_OFFSET))
    }

    /// Grid hash and metrics fingerprint folded together (the point chain
    /// seeded with the grid-definition hash): the manifest's single
    /// comparison handle for "same sweep, same results".
    pub fn manifest_fingerprint(&self) -> String {
        let seed = fnv1a(self.grid.to_string().as_bytes(), FNV_OFFSET);
        format!("{:016x}", self.chain_points(seed))
    }

    /// Total simulator events across all points, read back out of the
    /// records, so reused points count too.
    pub fn events(&self) -> u64 {
        self.documents()
            .filter_map(|(_, doc)| doc.get("events").and_then(Json::as_u64))
            .sum()
    }

    /// The sweep's throughput summary (reused points contribute their
    /// recorded events but no fresh wall-clock work).
    pub fn summary(&self) -> SweepSummary {
        SweepSummary {
            workloads: self.workload_count,
            systems: self.fabric_count,
            points: self.points.len(),
            par: self.pool_threads,
            wall_seconds: self.wall_seconds,
            events: self.events(),
        }
    }

    /// Regroups the points simulated this run into `(workload name,
    /// metrics per fabric)` rows for points matching `filter`, preserving
    /// point order — the shape the figure renderers consume.
    ///
    /// A row is one [`SweepPoint::coord`] — every coordinate but the
    /// fabric — so metrics from different configurations are never merged
    /// into one row: on a grid where `filter` leaves several configs or
    /// config-axis values, the same workload name simply appears once per
    /// coordinate. Within a row, metrics are in fabric-axis order.
    pub fn rows_by_workload(
        &self,
        filter: impl Fn(&SweepPoint) -> bool,
    ) -> Vec<CatalogRow> {
        let mut rows: Vec<CatalogRow> = Vec::new();
        let mut last_coord = None;
        for r in self.ran.iter().filter(|r| filter(&r.point)) {
            let key = Some(r.point.coord());
            if last_coord != key {
                rows.push((r.point.workload.clone(), Vec::new()));
                last_coord = key;
            }
            rows.last_mut()
                .expect("row pushed above")
                .1
                .push(r.metrics.clone());
        }
        rows
    }

    /// [`SweepOutcome::rows_by_workload`] over every point — the
    /// single-config catalog-sweep case (one row per workload).
    pub fn catalog_rows(&self) -> Vec<CatalogRow> {
        self.rows_by_workload(|_| true)
    }

    /// The sweep manifest as one JSON document: grid definition, git
    /// revision, environment knobs, pool/wall-clock info, fingerprints,
    /// and the per-point index with headline numbers read back out of the
    /// records (so a reused record and a fresh one index identically).
    pub fn manifest_json(&self) -> String {
        let index = self.documents().map(|(p, doc)| {
            let num = |key| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
            Json::object()
                .with("id", p.id as u64)
                .with("label", p.label.as_str())
                .with("file", p.file_name())
                .with(
                    "status",
                    doc.get("status")
                        .and_then(Json::as_str)
                        .unwrap_or("complete"),
                )
                .with("execution_time_ns", num("execution_time_ns"))
                .with("events", num("events"))
        });
        let env = |name| std::env::var(name).map_or(Json::Null, Json::Str);
        Json::object()
            .with("name", self.name.as_str())
            .with("engine", "venice_bench::sweep")
            .with("git", git_describe())
            .with("requests", self.requests as u64)
            .with("points_total", self.points.len() as u64)
            .with("pool_threads", self.pool_threads as u64)
            .with("wall_seconds", self.wall_seconds)
            .with(
                "env",
                Json::object()
                    .with("VENICE_REQUESTS", env("VENICE_REQUESTS"))
                    .with("VENICE_PAR", env("VENICE_PAR"))
                    .with("VENICE_RESULTS_DIR", env("VENICE_RESULTS_DIR")),
            )
            .with("grid", self.grid.clone())
            .with("grid_hash", self.grid_hash())
            .with("metrics_fingerprint", self.metrics_fingerprint())
            .with("manifest_fingerprint", self.manifest_fingerprint())
            .with("points", Json::Array(index.collect()))
            .document(true)
    }

    /// Writes the sweep artifact into [`SweepOutcome::dir`]: the
    /// `grid.json` stamp, one `points/p<id>-<label>.json` record per point
    /// and the manifest indexing them all, each file atomically. A later
    /// [`SweepGrid::run_resumable`] of the same grid reuses every record.
    /// Returns the sweep directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file writes.
    pub fn write(&self, base_dir: &Path) -> std::io::Result<PathBuf> {
        let dir = self.dir(base_dir);
        claim_dir(&dir, &self.grid, false)?;
        for (p, json) in self.points.iter().zip(&self.point_jsons) {
            write_atomic(&dir.join(p.file_name()), json.as_bytes())?;
        }
        write_atomic(&dir.join("manifest.json"), self.manifest_json().as_bytes())?;
        Ok(dir)
    }
}

/// Runs one point with panic isolation: a panicking simulation becomes a
/// [`RunMetrics::failed`] placeholder (recorded with `"status": "failed"`)
/// instead of killing the worker pool — the rest of the sweep continues,
/// and a resumed sweep retries the point.
fn run_point_guarded(point: &SweepPoint, trace: &Trace) -> RunMetrics {
    catch_unwind(AssertUnwindSafe(|| {
        run_single(&point.config, point.fabric, trace)
    }))
    .unwrap_or_else(|_| {
        eprintln!(
            "warning: sweep point {} panicked; recording a failed placeholder",
            point.label
        );
        RunMetrics::failed(point.fabric, &point.workload, point.config.name)
    })
}

/// FNV-1a 64-bit offset basis (the seed of an unchained hash).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64-bit round over `bytes`, continuing from `seed` so hashes
/// can be chained across records.
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// is renamed over the target, so readers (and a resumed sweep) never see
/// a torn or truncated record.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Makes `dir` the artifact directory of the grid defined by `grid` and
/// stamps it with the definition's one-line text (`grid.json`). When the
/// old stamp names another grid (or `fresh`), the old point records are
/// cleared first, so records of two grids never mix. Returns whether the
/// old records are this grid's.
fn claim_dir(dir: &Path, grid: &Json, fresh: bool) -> std::io::Result<bool> {
    let (stamp, grid_json) = (dir.join("grid.json"), grid.to_string());
    let ours = !fresh && std::fs::read_to_string(&stamp).is_ok_and(|g| g == grid_json);
    if !ours {
        let _ = std::fs::remove_dir_all(dir.join("points"));
    }
    std::fs::create_dir_all(dir.join("points"))?;
    write_atomic(&stamp, grid_json.as_bytes())?;
    Ok(ours)
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a git checkout (recorded in manifests and ledgers for
/// provenance; never part of the fingerprints).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::new("unit")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .workload(WorkloadAxis::catalog("proj_3").expect("catalog"))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(80)
    }

    #[test]
    fn pool_preserves_job_order_and_results() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        // Thread budget floors at one and is visible.
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn grid_expansion_is_deterministic_and_id_stamped() {
        let grid = tiny_grid();
        let a = grid.build_points();
        let b = grid.build_points();
        assert_eq!(a.len(), 4); // 2 workloads × 2 fabrics
        for (i, (pa, pb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(pa.id, i);
            assert_eq!(pa.label, pb.label);
        }
        // Fabrics are the innermost axis.
        assert_eq!(a[0].workload, "hm_0");
        assert_eq!(a[0].fabric, FabricKind::Baseline);
        assert_eq!(a[1].workload, "hm_0");
        assert_eq!(a[1].fabric, FabricKind::Venice);
        assert_eq!(a[2].workload, "proj_3");
    }

    #[test]
    fn axes_expand_multiplicatively() {
        let grid = SweepGrid::new("axes")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Venice])
            .knobs([
                Knob::Shape(4, 16),
                Knob::Shape(8, 8),
                Knob::Timing(NandTiming::z_nand()),
                Knob::Timing(NandTiming::tlc_3d()),
                Knob::QueueDepth(4),
                Knob::QueueDepth(16),
            ])
            .requests(50);
        let points = grid.build_points();
        assert_eq!(points.len(), 8); // 1 × 2 shapes × 2 timings × 2 depths
        let first = &points[0];
        assert!(first.label.contains("/4x16/z-nand/qd4/"), "{}", first.label);
        let last = points.last().expect("non-empty");
        assert!(last.label.contains("/8x8/tlc-3d/qd16/"), "{}", last.label);
        assert_eq!(last.config.hil.queue_depth, 16);
        assert_eq!(last.config.fabric.rows, 8);
        assert_eq!(last.config.timing, NandTiming::tlc_3d());
        // The coordinate is the label minus its fabric segment.
        let coord =
            "performance-optimized/hm_0/4x16/z-nand/qd4/retry-all/cache-off/none/single/none/none";
        assert_eq!(first.coord(), (0, coord));
    }

    #[test]
    fn every_config_axis_expands_and_reaches_the_config() {
        let base = SsdConfig::performance_optimized();
        let tenants: Vec<Knob> = TenantSet::presets()
            .into_iter()
            .map(Knob::Tenants)
            .collect();
        let axes: [Vec<Knob>; Knob::AXES.len()] = [
            vec![Knob::Shape(4, 16), Knob::Shape(16, 16)],
            vec![Knob::Timing(NandTiming::tlc_3d())],
            vec![Knob::QueueDepth(2), Knob::QueueDepth(32)],
            DispatchPolicyKind::ALL.map(Knob::Policy).to_vec(),
            vec![Knob::ScoutCache(ScoutCacheKind::On)],
            FaultPlan::ALL.map(Knob::Fault).to_vec(),
            tenants,
            ResiliencePolicy::ALL.map(Knob::Resilience).to_vec(),
            RedundancyKind::ALL.map(Knob::Redundancy).to_vec(),
        ];
        for (axis, values) in axes.iter().enumerate() {
            assert_eq!(Knob::of(axis, &base).axis(), axis, "axis {axis}");
            let grid = SweepGrid::new("axis")
                .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
                .knobs(values.clone())
                .fabrics(&[FabricKind::Venice])
                .requests(50);
            let points = grid.build_points();
            assert_eq!(points.len(), values.len());
            for (p, knob) in points.iter().zip(values) {
                assert_eq!(knob.axis(), axis, "{knob:?} sits on its own axis");
                assert_eq!(&Knob::of(axis, &p.config), knob, "{}", p.label);
                assert!(p.label.contains(&knob.label()), "label {}", p.label);
            }
            let labels = Json::Array(values.iter().map(|k| Json::Str(k.label())).collect());
            assert_eq!(grid.definition().get(Knob::AXES[axis].0), Some(&labels));
        }
        // An unset axis serializes as the base marker and sweeps the base
        // config's own value.
        let plain = SweepGrid::new("plain")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .requests(50);
        let def = plain.definition();
        let unset = Json::Array(vec![Json::Str("base".to_string())]);
        for (key, _) in Knob::AXES {
            assert_eq!(def.get(key), Some(&unset), "{key}");
        }
        let point = &plain.build_points()[0];
        for axis in 0..Knob::AXES.len() {
            assert_eq!(Knob::of(axis, &point.config), Knob::of(axis, &base));
        }
        // A replaced axis keeps only the override; other axes are untouched.
        let replaced = SweepGrid::new("replaced")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .knobs(DispatchPolicyKind::ALL.map(Knob::Policy))
            .knobs([ScoutCacheKind::Off, ScoutCacheKind::On].map(Knob::ScoutCache))
            .replace_knobs([Knob::ScoutCache(ScoutCacheKind::Checked)])
            .fabrics(&[FabricKind::Venice]);
        let points = replaced.build_points();
        assert_eq!(points.len(), DispatchPolicyKind::ALL.len());
        assert!(points
            .iter()
            .all(|p| p.config.scout_cache() == ScoutCacheKind::Checked));
    }

    #[test]
    fn outcome_rows_group_by_workload_in_axis_order() {
        let outcome = tiny_grid().run_on(&WorkerPool::new(2));
        let rows = outcome.catalog_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "hm_0");
        assert_eq!(rows[1].0, "proj_3");
        assert_eq!(rows[0].1.len(), 2);
        assert_eq!(rows[0].1[0].system, FabricKind::Baseline);
        assert_eq!(rows[0].1[1].system, FabricKind::Venice);
        let venice_only = outcome.rows_by_workload(|p| p.fabric == FabricKind::Venice);
        assert_eq!(venice_only.len(), 2);
        assert_eq!(venice_only[0].1.len(), 1);
    }

    #[test]
    fn rows_never_merge_across_configs_or_axes() {
        // Two configs × one workload × one fabric: an undiscriminating
        // grouping must yield one row per config, not one merged row.
        let outcome = SweepGrid::new("unit-two-configs")
            .config(SsdConfig::performance_optimized())
            .config(SsdConfig::cost_optimized())
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(60)
            .run_on(&WorkerPool::new(1));
        let rows = outcome.catalog_rows();
        assert_eq!(rows.len(), 2, "one row per config coordinate");
        assert_eq!(rows[0].0, "hm_0");
        assert_eq!(rows[1].0, "hm_0");
        assert_eq!(rows[0].1.len(), 2, "fabric order within a row");
        assert_eq!(rows[0].1[0].config, "performance-optimized");
        assert_eq!(rows[1].1[0].config, "cost-optimized");
    }

    /// The manifest reads back the outcome's fingerprints, definition and
    /// exact per-point index.
    #[test]
    fn manifest_carries_fingerprints_and_points() {
        let outcome = tiny_grid().run_on(&WorkerPool::new(2));
        let manifest = Json::parse(&outcome.manifest_json()).expect("manifest parses");
        let text = |key| manifest.get(key).and_then(Json::as_str).map(str::to_string);
        assert_eq!(text("name").as_deref(), Some("unit"));
        assert_eq!(text("grid_hash"), Some(outcome.grid_hash()));
        assert_eq!(text("metrics_fingerprint"), Some(outcome.metrics_fingerprint()));
        assert_eq!(text("manifest_fingerprint"), Some(outcome.manifest_fingerprint()));
        assert_eq!(manifest.get("points_total").and_then(Json::as_u64), Some(4));
        assert_eq!(manifest.get("grid"), Some(&tiny_grid().definition()));
        let index = manifest.get("points").and_then(Json::as_array).expect("index");
        assert_eq!(index.len(), outcome.records().len());
        for (entry, r) in index.iter().zip(outcome.records()) {
            let (num, text) = (|k| entry.get(k)?.as_u64(), |k| entry.get(k)?.as_str());
            assert_eq!(num("id"), Some(r.point.id as u64));
            assert_eq!((text("label"), text("status")), (Some(&*r.point.label), Some("complete")));
            assert_eq!(text("file"), Some(&*r.point.file_name()));
            assert_eq!(num("execution_time_ns"), Some(r.metrics.execution_time.as_nanos()));
            assert_eq!(num("events"), Some(r.metrics.events));
        }
        let summary = outcome.summary();
        assert_eq!((summary.workloads, summary.systems), (2, 2));
        let events: u64 = outcome.records().iter().map(|r| r.metrics.events).sum();
        assert_eq!((summary.events, outcome.events()), (events, events));
    }

    /// An artifact written from a plain run (the `repro` path) carries the
    /// `grid.json` stamp, so a resumable run of the same grid reuses every
    /// record and converges to the same fingerprints; a different grid
    /// written into the same directory clears the old records first.
    #[test]
    fn a_written_artifact_resumes_in_full() {
        let base = std::env::temp_dir().join("venice-sweep-test");
        let _ = std::fs::remove_dir_all(&base);
        let (grid, pool) = (tiny_grid(), WorkerPool::new(2));
        let outcome = grid.run_on(&pool);
        let dir = outcome.write(&base).expect("write artifact");
        assert!(dir.join("manifest.json").is_file());
        let stamp = std::fs::read_to_string(dir.join("grid.json")).expect("stamp");
        assert_eq!(stamp, grid.definition().to_string());
        let resumed = grid.run_resumable(&base, &pool, false);
        assert_eq!(resumed.reused_count(), outcome.points().len());
        assert!(resumed.records().is_empty());
        assert_eq!(resumed.manifest_fingerprint(), outcome.manifest_fingerprint());
        assert_eq!(resumed.events(), outcome.events());

        let other = SweepGrid::new("unit")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Ideal])
            .requests(40);
        other.run_on(&pool).write(&base).expect("write other grid");
        let files = std::fs::read_dir(dir.join("points")).expect("points").count();
        assert_eq!(files, 1, "the old grid's records were cleared");
        assert_eq!(grid.run_resumable(&base, &pool, false).reused_count(), 0);
        let _ = std::fs::remove_dir_all(&base);
    }
}
