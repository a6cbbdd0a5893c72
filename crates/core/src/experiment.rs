//! One-call experiment running: the entry point the figure harnesses,
//! examples, and tests use.

use venice_interconnect::FabricKind;
use venice_workloads::Trace;

use crate::{RunMetrics, SsdConfig, SsdSim};

/// Runs `trace` on one fabric, on an SSD sized for the trace's footprint.
///
/// This is the primitive every higher-level runner ([`run_systems`], the
/// `venice_bench` sweep engine) funnels through, so a `(config, system,
/// trace)` triple produces bit-identical [`RunMetrics`] no matter which
/// entry point or thread executed it.
///
/// # Example
///
/// ```
/// use venice_interconnect::FabricKind;
/// use venice_ssd::{run_single, SsdConfig};
/// use venice_workloads::WorkloadSpec;
///
/// let trace = WorkloadSpec::new("demo", 60.0, 8.0, 50.0)
///     .footprint_mb(64)
///     .generate(300);
/// let m = run_single(&SsdConfig::performance_optimized(), FabricKind::Venice, &trace);
/// assert_eq!(m.completed_requests, 300);
/// ```
pub fn run_single(config: &SsdConfig, system: FabricKind, trace: &Trace) -> RunMetrics {
    let sized = config.clone().sized_for_footprint(trace.footprint_bytes());
    SsdSim::new(sized, system, trace).run()
}

/// Runs `trace` on every fabric in `systems`, one after another on the
/// calling thread, and returns the metrics in the same order.
///
/// Parallel runs are the sweep engine's job (`venice_bench::sweep`, one
/// pool job per point); this crate starts no threads.
pub fn run_systems(config: &SsdConfig, systems: &[FabricKind], trace: &Trace) -> Vec<RunMetrics> {
    systems
        .iter()
        .map(|&system| run_single(config, system, trace))
        .collect()
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
            &[FabricKind::Baseline, FabricKind::Venice],
            &trace,
        );
        let solo = run_single(&cfg, FabricKind::Venice, &trace);
        assert_eq!(batch[1].execution_time, solo.execution_time);
        assert_eq!(batch[0].system, FabricKind::Baseline);
    }

    #[test]
    fn all_systems_has_paper_order() {
        let s = FabricKind::ALL;
        assert_eq!(s[0], FabricKind::Baseline);
        assert_eq!(s[4], FabricKind::Venice);
        assert_eq!(s[5], FabricKind::Ideal);
    }
}
