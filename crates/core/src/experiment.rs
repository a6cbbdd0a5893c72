//! One-call experiment running: the entry point the figure harnesses,
//! examples, and tests use.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use venice_interconnect::FabricKind;
use venice_workloads::Trace;

use crate::{RunMetrics, SsdConfig, SsdSim};

/// How many shared worker pools are currently executing jobs in this
/// process. While non-zero, [`run_systems`] clamps its own per-system
/// thread fan-out to avoid oversubscribing the machine (the pool's workers
/// already occupy the cores).
static SHARED_POOL_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Whether the nested-parallelism clamp warning has been printed yet
/// (it is printed at most once per process).
static CLAMP_WARNED: AtomicBool = AtomicBool::new(false);

/// RAII marker that a shared worker pool is executing jobs.
///
/// Held by `venice_bench::sweep::WorkerPool` for the duration of a batch;
/// while any guard is alive, [`shared_pool_active`] returns `true` and
/// [`run_systems`] runs its systems serially on the calling thread instead
/// of spawning one thread per system.
#[derive(Debug)]
pub struct SharedPoolGuard {
    nested: bool,
}

impl SharedPoolGuard {
    /// True when another guard was already alive at acquisition time: the
    /// holder is nested inside active pool work and must not fan out
    /// threads. The check-and-claim is one atomic `fetch_add`, so two
    /// concurrent acquirers can never both observe "not nested".
    pub fn is_nested(&self) -> bool {
        self.nested
    }
}

impl Drop for SharedPoolGuard {
    fn drop(&mut self) {
        SHARED_POOL_DEPTH.fetch_sub(1, Ordering::Release);
    }
}

/// Marks a shared worker pool as active until the returned guard drops.
pub fn enter_shared_pool() -> SharedPoolGuard {
    let prev = SHARED_POOL_DEPTH.fetch_add(1, Ordering::AcqRel);
    SharedPoolGuard { nested: prev > 0 }
}

/// True while any shared worker pool is executing jobs in this process.
pub fn shared_pool_active() -> bool {
    SHARED_POOL_DEPTH.load(Ordering::Acquire) > 0
}

/// Prints the nested-parallelism clamp warning, once per process.
fn warn_nested_parallelism(requested: usize) {
    if !CLAMP_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: nested parallelism request ({requested} threads) while \
             the shared sweep pool is active; clamping to serial execution \
             (further occurrences are silent)"
        );
    }
}

/// Re-export: the systems under comparison are exactly the fabrics.
pub type SystemKind = FabricKind;

/// Builder for a single run or a sweep of runs.
///
/// # Example
///
/// ```
/// use venice_ssd::{ExperimentBuilder, SystemKind};
/// use venice_workloads::WorkloadSpec;
///
/// let trace = WorkloadSpec::new("demo", 60.0, 8.0, 50.0)
///     .footprint_mb(64)
///     .generate(300);
/// let m = ExperimentBuilder::performance_optimized()
///     .system(SystemKind::Venice)
///     .run(&trace);
/// assert_eq!(m.completed_requests, 300);
/// ```
#[derive(Clone, Debug)]
pub struct ExperimentBuilder {
    config: SsdConfig,
    system: SystemKind,
}

impl ExperimentBuilder {
    /// Starts from the Table 1 performance-optimized configuration.
    pub fn performance_optimized() -> Self {
        ExperimentBuilder {
            config: SsdConfig::performance_optimized(),
            system: SystemKind::Baseline,
        }
    }

    /// Starts from the Table 1 cost-optimized configuration.
    pub fn cost_optimized() -> Self {
        ExperimentBuilder {
            config: SsdConfig::cost_optimized(),
            system: SystemKind::Baseline,
        }
    }

    /// Selects the fabric under test.
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Reshapes the array to `rows × cols` chips (Figure 15 sweep; see
    /// [`SsdConfig::with_mesh`]).
    pub fn shape(mut self, rows: u16, cols: u16) -> Self {
        self.config = self.config.with_mesh(rows, cols);
        self
    }

    /// Runs the trace on an SSD sized for its footprint.
    pub fn run(&self, trace: &Trace) -> RunMetrics {
        run_single(&self.config, self.system, trace)
    }
}

/// Runs `trace` on one system, on an SSD sized for the trace's footprint.
///
/// This is the primitive every higher-level runner ([`run_systems`],
/// [`ExperimentBuilder::run`], the `venice_bench` sweep engine) funnels
/// through, so a `(config, system, trace)` triple produces bit-identical
/// [`RunMetrics`] no matter which entry point or thread executed it.
pub fn run_single(config: &SsdConfig, system: SystemKind, trace: &Trace) -> RunMetrics {
    let sized = config.clone().sized_for_footprint(trace.footprint_bytes());
    SsdSim::new(sized, system, trace).run()
}

/// Runs `trace` on every system in `systems`, in parallel threads, and
/// returns the metrics in the same order.
///
/// Every run is fully independent (deterministic per `(config, system,
/// trace)`), so thread-parallelism changes nothing but wall-clock time.
///
/// While a shared worker pool is executing jobs ([`shared_pool_active`]),
/// the per-system fan-out would multiply the pool's thread count, so it is
/// clamped: the systems run serially on the calling thread (with a
/// once-per-process warning) and the returned metrics are identical.
pub fn run_systems(
    config: &SsdConfig,
    systems: &[SystemKind],
    trace: &Trace,
) -> Vec<RunMetrics> {
    let guard = enter_shared_pool();
    if guard.is_nested() {
        warn_nested_parallelism(systems.len());
        return systems
            .iter()
            .map(|&system| run_single(config, system, trace))
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = systems
            .iter()
            .map(|&system| scope.spawn(move || run_single(config, system, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation thread panicked"))
            .collect()
    })
}

/// The comparison set of the paper's main figures, in presentation order:
/// Baseline, pSSD, pnSSD, NoSSD, Venice, Ideal.
pub fn all_systems() -> [SystemKind; 6] {
    [
        SystemKind::Baseline,
        SystemKind::Pssd,
        SystemKind::PnSsd,
        SystemKind::NoSsd,
        SystemKind::Venice,
        SystemKind::Ideal,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_workloads::WorkloadSpec;

    #[test]
    fn run_systems_matches_individual_runs() {
        let trace = WorkloadSpec::new("par", 80.0, 8.0, 20.0)
            .footprint_mb(32)
            .generate(200);
        let cfg = SsdConfig::performance_optimized();
        let batch = run_systems(
            &cfg,
            &[SystemKind::Baseline, SystemKind::Venice],
            &trace,
        );
        let solo = ExperimentBuilder::performance_optimized()
            .system(SystemKind::Venice)
            .run(&trace);
        assert_eq!(batch[1].execution_time, solo.execution_time);
        assert_eq!(batch[0].system, SystemKind::Baseline);
    }

    #[test]
    fn pool_guard_clamps_run_systems_to_identical_serial_results() {
        let trace = WorkloadSpec::new("clamp", 60.0, 8.0, 40.0)
            .footprint_mb(32)
            .generate(150);
        let cfg = SsdConfig::performance_optimized();
        let systems = [SystemKind::Baseline, SystemKind::Venice];
        let threaded = run_systems(&cfg, &systems, &trace);
        let guard = enter_shared_pool();
        assert!(shared_pool_active());
        let clamped = run_systems(&cfg, &systems, &trace);
        drop(guard);
        assert_eq!(threaded, clamped);
    }

    #[test]
    fn run_single_matches_builder() {
        let trace = WorkloadSpec::new("single", 70.0, 8.0, 30.0)
            .footprint_mb(32)
            .generate(120);
        let a = run_single(
            &SsdConfig::performance_optimized(),
            SystemKind::Venice,
            &trace,
        );
        let b = ExperimentBuilder::performance_optimized()
            .system(SystemKind::Venice)
            .run(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn all_systems_has_paper_order() {
        let s = all_systems();
        assert_eq!(s[0], SystemKind::Baseline);
        assert_eq!(s[4], SystemKind::Venice);
        assert_eq!(s[5], SystemKind::Ideal);
    }
}
