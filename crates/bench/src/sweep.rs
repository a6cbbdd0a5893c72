//! The design-space sweep engine: grids of (config × workload × config
//! axes × fabric) points executed on one shared worker pool, with
//! reproducible JSON artifacts. The config axes — shape, NAND timing,
//! queue depth, dispatch policy, scout cache, fault plan, tenant set,
//! resilience and redundancy — are one [`Knob`] table.
//!
//! This module is the process's single arbiter of simulation parallelism.
//! PR 1 had two independent fan-out levels — `run_systems` spawned one
//! thread per system while the catalog sweep spawned `VENICE_PAR` workers,
//! multiplying to `VENICE_PAR × systems` threads — which oversubscribed
//! cores on wide sweeps. Here every simulation of a sweep becomes one job
//! on a [`WorkerPool`]; while the pool is draining jobs,
//! [`venice_ssd::run_systems`] detects it (via the shared-pool guard in
//! `venice_ssd`) and clamps its own fan-out to serial execution.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use venice_interconnect::FabricKind;
use venice_nand::NandTiming;
use venice_ssd::report::json_str;
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
/// batch — idle sweeps keep no threads alive — but the pool's *activity*
/// is process-global: while any batch is draining, nested parallelism
/// requests (a second `run` call, or `venice_ssd::run_systems` invoked
/// from inside a job) log one warning and run inline on the calling
/// thread instead of multiplying threads.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

/// The process-wide pool instance behind [`WorkerPool::global`].
static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// Whether the nested-`run` clamp warning has been printed yet.
static NESTED_RUN_WARNED: AtomicBool = AtomicBool::new(false);

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
    /// workers steal the remaining ones. If the pool is already active
    /// (nested call), the jobs run inline serially on the calling thread
    /// after a once-per-process warning; results are identical either way.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        // Claim-and-check is one atomic fetch_add inside enter_shared_pool,
        // so two concurrent top-level runs can never both take the parallel
        // path (the loser clamps inline).
        let guard = venice_ssd::enter_shared_pool();
        if guard.is_nested() {
            if !NESTED_RUN_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: nested WorkerPool::run ({} jobs) while the shared \
                     pool is active; running inline serially \
                     (further occurrences are silent)",
                    jobs.len()
                );
            }
            return jobs.into_iter().map(|job| job()).collect();
        }
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

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
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
        let start = Instant::now();
        let workloads = self.effective_workloads();
        let requests = self.requests;
        let traces: Vec<Trace> = pool.run(
            workloads
                .iter()
                .map(|axis| move || axis.trace(requests))
                .collect(),
        );
        let points = self.build_points();
        let metrics: Vec<RunMetrics> = pool.run(
            points
                .iter()
                .map(|point| {
                    let trace = &traces[point.workload_idx];
                    move || run_point_guarded(point, trace)
                })
                .collect(),
        );
        let records: Vec<PointRecord> = points
            .into_iter()
            .zip(metrics)
            .map(|(point, metrics)| PointRecord { point, metrics })
            .collect();
        // Serialize each point once up front: the fingerprints, manifest,
        // and artifact writer all reuse these strings.
        let point_jsons = records.iter().map(|r| r.metrics.to_json()).collect();
        SweepOutcome {
            grid_json: self.definition_json(),
            name: self.name.clone(),
            requests: self.requests,
            workload_count: workloads.len(),
            fabric_count: self.effective_fabrics().len(),
            pool_threads: pool.threads(),
            wall_seconds: start.elapsed().as_secs_f64(),
            records,
            point_jsons,
        }
    }

    /// Runs the grid, reusing any point records already on disk from a
    /// previous run of the *same* grid — the resumable sweep.
    ///
    /// A prior artifact at `base_dir/sweep_<name>/` is trusted when its
    /// `grid.json` stamp byte-equals this grid's definition JSON (name,
    /// requests, every axis — so any change invalidates reuse; the
    /// stamp's FNV hash is the manifest's `grid_hash`). Points whose
    /// record file exists are not re-simulated; only the missing ones run
    /// on `pool`. `fresh` forces a full re-run regardless (the CLI's
    /// `--fresh`).
    ///
    /// The grid stamp is written *before* any simulation and every
    /// executed point persists its record (atomically, via a temp-file
    /// rename) *as it completes*, so a killed sweep resumes from the
    /// points it finished. When the stamp does not match, stale point
    /// records are cleared first — records from two different grids can
    /// never mix. Call [`ResumedSweep::write`] afterwards to (re)write
    /// the manifest indexing all points; until then, a prior run's
    /// manifest may lag the stamp.
    pub fn run_resumable(
        &self,
        base_dir: &Path,
        pool: &WorkerPool,
        fresh: bool,
    ) -> ResumedSweep {
        let start = Instant::now();
        let points = self.build_points();
        let grid_json = self.definition_json();
        let dir = base_dir.join(format!("sweep_{}", self.name));
        let grid_file = dir.join("grid.json");
        let resumable = !fresh
            && std::fs::read_to_string(&grid_file).is_ok_and(|g| g == grid_json);
        let jsons: Vec<Option<String>> = points
            .iter()
            .map(|p| {
                if !resumable {
                    return None;
                }
                std::fs::read_to_string(dir.join(p.file_name()))
                    .ok()
                    // Records are written atomically, so this is belt-and-
                    // suspenders: only a structurally whole document is
                    // trusted.
                    .filter(|s| s.starts_with('{') && s.trim_end().ends_with('}'))
                    // A failed (panicked) point's placeholder record is
                    // never reused: the resumed sweep retries it.
                    .filter(|s| !s.contains("\"status\": \"failed\""))
            })
            .collect();
        let reused: Vec<bool> = jsons.iter().map(|j| j.is_some()).collect();
        if !resumable {
            // Different grid (or --fresh): clear stale records before
            // stamping the new definition.
            let _ = std::fs::remove_dir_all(dir.join("points"));
        }
        // Stamp the definition up front (best-effort: an unwritable
        // results dir degrades to a non-resumable sweep, not a failure).
        let _ = std::fs::create_dir_all(dir.join("points"));
        let _ = write_atomic(&grid_file, grid_json.as_bytes());
        // Generate traces only for workloads some missing point still needs.
        let workloads = self.effective_workloads();
        let requests = self.requests;
        let mut needed = vec![false; workloads.len()];
        for p in points.iter().filter(|p| !reused[p.id]) {
            needed[p.workload_idx] = true;
        }
        let traces: Vec<Option<Trace>> = pool.run(
            workloads
                .iter()
                .zip(&needed)
                .map(|(axis, &need)| move || need.then(|| axis.trace(requests)))
                .collect(),
        );
        let missing: Vec<&SweepPoint> = points.iter().filter(|p| !reused[p.id]).collect();
        let dir_ref = &dir;
        let results: Vec<(RunMetrics, String)> = pool.run(
            missing
                .iter()
                .map(|point| {
                    let trace = traces[point.workload_idx]
                        .as_ref()
                        .expect("trace generated for missing point");
                    move || {
                        let m = run_point_guarded(point, trace);
                        // Persist the record the moment the point finishes,
                        // so a killed sweep resumes from here (best-effort).
                        let json = m.to_json();
                        let _ =
                            write_atomic(&dir_ref.join(point.file_name()), json.as_bytes());
                        (m, json)
                    }
                })
                .collect(),
        );
        let mut jsons = jsons;
        let mut executed = Vec::with_capacity(missing.len());
        for (point, (m, json)) in missing.into_iter().zip(results) {
            jsons[point.id] = Some(json);
            executed.push((point.id, m));
        }
        ResumedSweep {
            grid_json,
            name: self.name.clone(),
            requests: self.requests,
            pool_threads: pool.threads(),
            wall_seconds: start.elapsed().as_secs_f64(),
            point_jsons: jsons
                .into_iter()
                .map(|j| j.expect("every point reused or executed"))
                .collect(),
            points,
            reused,
            executed,
            dir,
        }
    }

    /// The grid definition as one stable JSON object (embedded in the
    /// manifest and hashed into [`SweepOutcome::grid_hash`]). An unset
    /// config axis lists `"base"`.
    pub fn definition_json(&self) -> String {
        let configs: Vec<String> = self
            .effective_configs()
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        let workloads: Vec<String> = self
            .effective_workloads()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        let fabrics: Vec<String> = self
            .effective_fabrics()
            .iter()
            .map(|f| f.label().to_string())
            .collect();
        let mut json = format!(
            "{{\"name\": {}, \"requests\": {}, \"configs\": {}, \"workloads\": {}",
            json_str(&self.name),
            self.requests,
            json_str_list(&configs),
            json_str_list(&workloads),
        );
        for ((key, _), set) in Knob::AXES.iter().zip(&self.knobs) {
            let values: Vec<String> = if set.is_empty() {
                vec!["base".to_string()]
            } else {
                set.iter().map(Knob::label).collect()
            };
            json.push_str(&format!(", \"{key}\": {}", json_str_list(&values)));
        }
        json.push_str(&format!(", \"fabrics\": {}}}", json_str_list(&fabrics)));
        json
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

/// The result of running a [`SweepGrid`]: every point's metrics in point-id
/// order, plus everything needed to write a reproducible artifact.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    grid_json: String,
    name: String,
    requests: usize,
    workload_count: usize,
    fabric_count: usize,
    pool_threads: usize,
    wall_seconds: f64,
    records: Vec<PointRecord>,
    /// `records[i].metrics.to_json()`, computed once at construction and
    /// shared by the fingerprints, manifest, and artifact writer.
    point_jsons: Vec<String>,
}

impl SweepOutcome {
    /// The executed points, in point-id order.
    pub fn records(&self) -> &[PointRecord] {
        &self.records
    }

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wall-clock seconds the sweep took.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// FNV-1a hash of the grid definition JSON: identifies *what* was swept.
    pub fn grid_hash(&self) -> String {
        format!("{:016x}", fnv1a(self.grid_json.as_bytes(), FNV_OFFSET))
    }

    /// FNV-1a hash chained over every point's metrics JSON in id order,
    /// from `seed`: identifies *what came out*.
    fn chain_points(&self, seed: u64) -> u64 {
        self.point_jsons
            .iter()
            .fold(seed, |h, json| fnv1a(json.as_bytes(), h))
    }

    /// FNV-1a hash chained over every point's metrics JSON in id order:
    /// identifies *what came out*. Bit-identical across pool sizes and
    /// execution orders; wall-clock time and environment are excluded.
    pub fn metrics_fingerprint(&self) -> String {
        format!("{:016x}", self.chain_points(FNV_OFFSET))
    }

    /// Grid hash and metrics fingerprint folded together (the point chain
    /// seeded with the grid-definition hash): the manifest's single
    /// comparison handle for "same sweep, same results".
    pub fn manifest_fingerprint(&self) -> String {
        let seed = fnv1a(self.grid_json.as_bytes(), FNV_OFFSET);
        format!("{:016x}", self.chain_points(seed))
    }

    /// Total simulator events across all points.
    pub fn events(&self) -> u64 {
        self.records.iter().map(|r| r.metrics.events).sum()
    }

    /// The sweep's throughput summary (compatible with the catalog-sweep
    /// summary line the harness has printed since PR 1).
    pub fn summary(&self) -> SweepSummary {
        SweepSummary {
            workloads: self.workload_count,
            systems: self.fabric_count,
            points: self.records.len(),
            par: self.pool_threads,
            wall_seconds: self.wall_seconds,
            events: self.events(),
        }
    }

    /// Regroups the outcome into `(workload name, metrics per fabric)` rows
    /// for points matching `filter`, preserving point order — the shape the
    /// figure renderers consume.
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
        for r in self.records.iter().filter(|r| filter(&r.point)) {
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
    /// and the per-point index with headline numbers for quick diffing.
    pub fn manifest_json(&self) -> String {
        let points: Vec<SweepPoint> = self.records.iter().map(|r| r.point.clone()).collect();
        manifest_json_for(
            &self.name,
            &self.grid_json,
            self.requests,
            self.pool_threads,
            self.wall_seconds,
            &points,
            &self.point_jsons,
        )
    }

    /// Writes the sweep artifact under `base_dir`: a
    /// `sweep_<name>/manifest.json` plus one `points/p<id>-<label>.json`
    /// metrics record per point. Returns the sweep directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file writes.
    pub fn write(&self, base_dir: &Path) -> std::io::Result<PathBuf> {
        let dir = base_dir.join(format!("sweep_{}", self.name));
        std::fs::create_dir_all(dir.join("points"))?;
        for (r, json) in self.records.iter().zip(&self.point_jsons) {
            std::fs::write(dir.join(r.point.file_name()), json)?;
        }
        std::fs::write(dir.join("manifest.json"), self.manifest_json())?;
        Ok(dir)
    }
}

/// The result of a resumable sweep ([`SweepGrid::run_resumable`]): every
/// point's stable JSON record in id order — reused from disk or freshly
/// simulated — plus the metrics of the points that actually ran.
#[derive(Clone, Debug)]
pub struct ResumedSweep {
    grid_json: String,
    name: String,
    requests: usize,
    pool_threads: usize,
    wall_seconds: f64,
    points: Vec<SweepPoint>,
    /// One stable-JSON record per point, in point-id order.
    point_jsons: Vec<String>,
    /// Whether each point's record was reused from a prior artifact.
    reused: Vec<bool>,
    /// `(point id, metrics)` of the points executed this run, in id order.
    executed: Vec<(usize, RunMetrics)>,
    /// The sweep artifact directory this run resumed from and persists to.
    dir: PathBuf,
}

impl ResumedSweep {
    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every grid point, in id order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The per-point stable-JSON records, in id order.
    pub fn point_jsons(&self) -> &[String] {
        &self.point_jsons
    }

    /// How many point records were reused from the prior artifact.
    pub fn reused_count(&self) -> usize {
        self.reused.iter().filter(|&&r| r).count()
    }

    /// Whether point `id`'s record was reused.
    pub fn point_reused(&self, id: usize) -> bool {
        self.reused[id]
    }

    /// The points executed this run, with their metrics, in id order.
    pub fn executed(&self) -> &[(usize, RunMetrics)] {
        &self.executed
    }

    /// Wall-clock seconds this (partial) run took.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// FNV-1a hash of the grid definition JSON (same as
    /// [`SweepOutcome::grid_hash`] for the same grid).
    pub fn grid_hash(&self) -> String {
        format!("{:016x}", fnv1a(self.grid_json.as_bytes(), FNV_OFFSET))
    }

    /// FNV-1a hash chained over every point record in id order. A resumed
    /// run of a deterministic grid produces the same fingerprint as the
    /// uninterrupted run it is completing.
    pub fn metrics_fingerprint(&self) -> String {
        let h = self
            .point_jsons
            .iter()
            .fold(FNV_OFFSET, |h, j| fnv1a(j.as_bytes(), h));
        format!("{h:016x}")
    }

    /// Total simulator events across all points (parsed back out of the
    /// stable records, so reused points count too).
    pub fn events(&self) -> u64 {
        self.point_jsons
            .iter()
            .map(|j| json_u64_field(j, "events"))
            .sum()
    }

    /// The manifest document (same schema as [`SweepOutcome::manifest_json`]).
    pub fn manifest_json(&self) -> String {
        manifest_json_for(
            &self.name,
            &self.grid_json,
            self.requests,
            self.pool_threads,
            self.wall_seconds,
            &self.points,
            &self.point_jsons,
        )
    }

    /// The sweep artifact directory (`<base_dir>/sweep_<name>`) this run
    /// resumed from; executed point records were already persisted there
    /// as they completed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Completes the on-disk artifact in [`ResumedSweep::dir`]: re-writes
    /// every point record (executed ones were already persisted as they
    /// completed; this repairs any that a full disk dropped) and the full
    /// manifest indexing all points. Returns the sweep directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file writes.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(self.dir.join("points"))?;
        for (p, json) in self.points.iter().zip(&self.point_jsons) {
            let path = self.dir.join(p.file_name());
            if !self.reused[p.id] || !path.is_file() {
                write_atomic(&path, json.as_bytes())?;
            }
        }
        write_atomic(&self.dir.join("manifest.json"), self.manifest_json().as_bytes())?;
        Ok(self.dir.clone())
    }

    /// The sweep's throughput summary (reused points contribute their
    /// recorded events but no fresh wall-clock work).
    pub fn summary(&self) -> crate::SweepSummary {
        let mut systems: Vec<FabricKind> = Vec::new();
        for p in &self.points {
            if !systems.contains(&p.fabric) {
                systems.push(p.fabric);
            }
        }
        crate::SweepSummary {
            workloads: self
                .points
                .iter()
                .map(|p| p.workload_idx)
                .max()
                .map_or(0, |m| m + 1),
            systems: systems.len(),
            points: self.points.len(),
            par: self.pool_threads,
            wall_seconds: self.wall_seconds,
            events: self.events(),
        }
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

/// The `"status"` of a point record (`"complete"` when the field is absent
/// — records written before run status existed).
fn json_status(json: &str) -> &'static str {
    if json.contains("\"status\": \"failed\"") {
        "failed"
    } else if json.contains("\"status\": \"aborted\"") {
        "aborted"
    } else {
        "complete"
    }
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

/// Extracts the unsigned integer value of a `"key": <digits>` field from
/// one of the engine's stable-JSON documents (zero when absent — the
/// engine's own records always carry the fields this module asks for).
fn json_u64_field(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    json.find(&needle)
        .map(|at| {
            json[at + needle.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .fold(0u64, |n, c| n * 10 + u64::from(c as u8 - b'0'))
        })
        .unwrap_or(0)
}

/// The manifest document shared by [`SweepOutcome`] and [`ResumedSweep`]:
/// headline per-point numbers are read back out of the stable point JSON,
/// so a reused record and a fresh one index identically.
fn manifest_json_for(
    name: &str,
    grid_json: &str,
    requests: usize,
    pool_threads: usize,
    wall_seconds: f64,
    points: &[SweepPoint],
    point_jsons: &[String],
) -> String {
    let mut index = String::from("[\n");
    for (i, (p, json)) in points.iter().zip(point_jsons).enumerate() {
        index.push_str(&format!(
            "    {{\"id\": {}, \"label\": {}, \"file\": {}, \"status\": {}, \
             \"execution_time_ns\": {}, \"events\": {}}}{}\n",
            p.id,
            json_str(&p.label),
            json_str(&p.file_name()),
            json_str(json_status(json)),
            json_u64_field(json, "execution_time_ns"),
            json_u64_field(json, "events"),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    index.push_str("  ]");
    let grid_hash = format!("{:016x}", fnv1a(grid_json.as_bytes(), FNV_OFFSET));
    let metrics_fp = format!(
        "{:016x}",
        point_jsons
            .iter()
            .fold(FNV_OFFSET, |h, j| fnv1a(j.as_bytes(), h))
    );
    let manifest_fp = format!(
        "{:016x}",
        point_jsons.iter().fold(
            fnv1a(grid_json.as_bytes(), FNV_OFFSET),
            |h, j| fnv1a(j.as_bytes(), h)
        )
    );
    format!(
        "{{\n  \"name\": {},\n  \"engine\": \"venice_bench::sweep\",\n  \
         \"git\": {},\n  \"requests\": {},\n  \"points_total\": {},\n  \
         \"pool_threads\": {},\n  \"wall_seconds\": {},\n  \
         \"env\": {{\"VENICE_REQUESTS\": {}, \"VENICE_PAR\": {}, \
         \"VENICE_RESULTS_DIR\": {}}},\n  \"grid\": {},\n  \
         \"grid_hash\": {},\n  \"metrics_fingerprint\": {},\n  \
         \"manifest_fingerprint\": {},\n  \"points\": {}\n}}\n",
        json_str(name),
        json_str(&git_describe()),
        requests,
        points.len(),
        pool_threads,
        wall_seconds,
        json_env("VENICE_REQUESTS"),
        json_env("VENICE_PAR"),
        json_env("VENICE_RESULTS_DIR"),
        grid_json,
        json_str(&grid_hash),
        json_str(&metrics_fp),
        json_str(&manifest_fp),
        index,
    )
}

/// JSON array of string literals.
fn json_str_list(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", body.join(", "))
}

/// The raw value of env var `name` as a JSON value (`null` when unset).
fn json_env(name: &str) -> String {
    match std::env::var(name) {
        Ok(v) => json_str(&v),
        Err(_) => "null".to_string(),
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a git checkout (recorded in manifests for provenance; never part
/// of the fingerprints).
fn git_describe() -> String {
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
    fn nested_pool_runs_clamp_inline() {
        let pool = WorkerPool::new(2);
        // Jobs that themselves use a pool: must not deadlock or nest threads.
        let out = pool.run(vec![
            || WorkerPool::new(2).run(vec![|| 1, || 2]),
            || WorkerPool::new(2).run(vec![|| 3, || 4]),
        ]);
        assert_eq!(out, vec![vec![1, 2], vec![3, 4]]);
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
            let labels: Vec<String> = values.iter().map(Knob::label).collect();
            let entry = format!("\"{}\": {}", Knob::AXES[axis].0, json_str_list(&labels));
            let def = grid.definition_json();
            assert!(def.contains(&entry), "{entry} missing from {def}");
        }
        // An unset axis serializes as the base marker and sweeps the base
        // config's own value.
        let plain = SweepGrid::new("plain")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .requests(50);
        let def = plain.definition_json();
        for (key, _) in Knob::AXES {
            assert!(def.contains(&format!("\"{key}\": [\"base\"]")), "{def}");
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

    #[test]
    fn manifest_carries_fingerprints_and_points() {
        let outcome = tiny_grid().run_on(&WorkerPool::new(2));
        let manifest = outcome.manifest_json();
        assert!(manifest.contains("\"name\": \"unit\""));
        assert!(manifest.contains(&format!("\"grid_hash\": \"{}\"", outcome.grid_hash())));
        assert!(manifest
            .contains(&format!("\"metrics_fingerprint\": \"{}\"", outcome.metrics_fingerprint())));
        assert!(manifest.contains("\"points_total\": 4"));
        assert!(manifest.contains("p0000-"));
        let summary = outcome.summary();
        assert_eq!(summary.workloads, 2);
        assert_eq!(summary.systems, 2);
        assert_eq!(summary.events, outcome.events());
    }

    #[test]
    fn sweep_artifact_writes_manifest_and_points() {
        let outcome = SweepGrid::new("unit-write")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .fabrics(&[FabricKind::Ideal])
            .requests(60)
            .run_on(&WorkerPool::new(1));
        let base = std::env::temp_dir().join("venice-sweep-test");
        let _ = std::fs::remove_dir_all(&base);
        let dir = outcome.write(&base).expect("write artifact");
        assert!(dir.join("manifest.json").is_file());
        let point_file = dir.join(outcome.records()[0].point.file_name());
        let json = std::fs::read_to_string(point_file).expect("point record");
        assert!(json.contains("\"workload\": \"hm_0\""));
        let _ = std::fs::remove_dir_all(&base);
    }
}
