//! Microbenchmark + perf-smoke for the incremental ready-set dispatcher.
//!
//! Runs congestion-heavy workloads on growing meshes with the dispatch
//! round implemented both ways — the default incremental ready-set engine
//! and the retained full-scan reference (`DispatchScanKind`) — asserts the
//! two produce bit-identical metrics, and records the events/sec gain in
//! `results/bench_dispatch.json` (per-engine ns/iter also lands in
//! `results/bench_dispatch_scan.json` via the shared microbench harness).
//!
//! **Perf-smoke contract:** when a checked-in baseline
//! (`results/bench_dispatch_baseline.json`) exists, the run fails (exit 1)
//! if any scenario's incremental-over-full-scan speedup regressed more than
//! 30% below the baseline's. Set `VENICE_PERF_WARN_ONLY=1` to downgrade the
//! failure to a warning on noisy runners. Speedups are wall-clock *ratios*
//! on the same machine and binary, so the gate is robust to absolute
//! machine speed.

use std::hint::black_box;
use std::time::Duration;

use venice_bench::microbench::Runner;
use venice_interconnect::FabricKind;
use venice_ssd::report::Json;
use venice_ssd::{DispatchPolicyKind, DispatchScanKind, RunMetrics, SsdConfig, SsdSim};
use venice_workloads::WorkloadAxis;

/// One benched (mesh shape × fabric × policy × request budget) coordinate.
struct Scenario {
    name: &'static str,
    rows: u16,
    cols: u16,
    fabric: FabricKind,
    policy: DispatchPolicyKind,
    requests: usize,
}

/// Big congested meshes under two regimes. Under `RetryAll` on Venice the
/// run cost is dominated by the failed scout walks themselves (the policy
/// layer's territory, not the scan's), so the headline ready-set scenarios
/// are NoSSD — whose per-attempt cost is a cheap XY probe, leaving the
/// round scan as the overhead — and Venice under its `Auto`-selected
/// backoff, where most rounds dispatch little and the O(chips) scan is
/// pure waste for the reference engine. The Baseline bus under `RetryAll`
/// is where path sleepers pay: most of its visits retry a held row bus.
const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "congested_8x8_venice",
        rows: 8,
        cols: 8,
        fabric: FabricKind::Venice,
        policy: DispatchPolicyKind::RetryAll,
        requests: 400,
    },
    Scenario {
        name: "congested_16x16_nossd",
        rows: 16,
        cols: 16,
        fabric: FabricKind::NoSsd,
        policy: DispatchPolicyKind::RetryAll,
        requests: 400,
    },
    Scenario {
        name: "congested_16x16_venice_auto",
        rows: 16,
        cols: 16,
        fabric: FabricKind::Venice,
        policy: DispatchPolicyKind::Auto,
        requests: 400,
    },
    Scenario {
        name: "congested_32x32_nossd",
        rows: 32,
        cols: 32,
        fabric: FabricKind::NoSsd,
        policy: DispatchPolicyKind::RetryAll,
        requests: 250,
    },
    Scenario {
        name: "congested_8x8_baseline",
        rows: 8,
        cols: 8,
        fabric: FabricKind::Baseline,
        policy: DispatchPolicyKind::RetryAll,
        requests: 400,
    },
];

/// Fraction of the baseline speedup a scenario may lose before the smoke
/// fails (>30% events/sec regression).
const REGRESSION_FLOOR: f64 = 0.7;

fn run(cfg: &SsdConfig, fabric: FabricKind, trace: &venice_workloads::Trace) -> RunMetrics {
    let sized = cfg.clone().sized_for_footprint(trace.footprint_bytes());
    SsdSim::new(sized, fabric, trace).run()
}

fn main() {
    let mut r = Runner::new("dispatch_scan").sample_budget(Duration::from_millis(250));
    let mut scenarios = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for s in &SCENARIOS {
        let trace = WorkloadAxis::congested().trace(s.requests);
        let base = SsdConfig::performance_optimized()
            .with_mesh(s.rows, s.cols)
            .with_dispatch_policy(s.policy);
        let incr_cfg = base.clone().with_dispatch_scan(DispatchScanKind::Incremental);
        let full_cfg = base.clone().with_dispatch_scan(DispatchScanKind::FullScan);
        // Correctness first: the two engines must agree bit-for-bit.
        let m_incr = run(&incr_cfg, s.fabric, &trace);
        let m_full = run(&full_cfg, s.fabric, &trace);
        assert_eq!(m_incr, m_full, "{}: engines diverged", s.name);
        let events = m_incr.events;

        let mut timed: Vec<f64> = Vec::new();
        for (tag, cfg) in [("incremental", &incr_cfg), ("full_scan", &full_cfg)] {
            r.bench(&format!("{}_{}", s.name, tag), || {
                black_box(run(cfg, s.fabric, black_box(&trace)));
            });
            timed.push(r.last_ns_per_iter().expect("bench just ran"));
        }
        let (ns_incr, ns_full) = (timed[0], timed[1]);
        let evps_incr = events as f64 / (ns_incr / 1e9);
        let evps_full = events as f64 / (ns_full / 1e9);
        let speedup = evps_incr / evps_full;
        println!(
            "dispatch_scan {:<28} {:>7.2}M ev/s incremental vs {:>7.2}M full-scan  ({:.2}x)",
            s.name,
            evps_incr / 1e6,
            evps_full / 1e6,
            speedup
        );
        scenarios.push(
            Json::object()
                .with("name", s.name)
                .with("shape", format!("{}x{}", s.rows, s.cols))
                .with("fabric", s.fabric.label())
                .with("policy", s.policy.label())
                .with("requests", s.requests as u64)
                .with("events", events)
                .with("events_per_sec_incremental", Json::fixed(evps_incr, 0))
                .with("events_per_sec_full_scan", Json::fixed(evps_full, 0))
                .with("speedup", Json::fixed(speedup, 3)),
        );
        speedups.push((s.name.to_string(), speedup));
    }
    r.finish();
    let summary = Json::object()
        .with("bench", "dispatch_scan")
        .with("scenarios", Json::Array(scenarios));
    venice_bench::write_result("bench_dispatch", &summary);

    // Perf-smoke gate against the checked-in baseline ratios.
    venice_bench::microbench::enforce_speedup_baseline(
        "dispatch_scan",
        &venice_bench::results_dir().join("bench_dispatch_baseline.json"),
        &speedups,
        REGRESSION_FLOOR,
    );
}
