//! Microbenchmark + perf-smoke for the generation-stamped scout fast-fail
//! cache.
//!
//! Runs congestion-heavy workloads on scout-walk-bound Venice meshes with
//! the fast-fail cache off and on (`ScoutCacheKind`), asserts the two
//! engines produce bit-identical *simulated behavior* (only the cache's own
//! effort counters — fast-fails and invalidations — may differ), and
//! records the events/sec gain in `results/bench_scout.json` (per-engine
//! ns/iter also lands in `results/bench_scout_walk.json` via the shared
//! microbench harness).
//!
//! **Perf-smoke contract:** the run fails (exit 1) if any scenario's
//! cache-on-over-cache-off speedup regressed more than 30% below the
//! checked-in baseline's (`results/bench_scout_baseline.json` in the
//! workspace, or under `VENICE_RESULTS_DIR`), if only the bench or only
//! the baseline names a scenario, or if the baseline is missing or
//! unreadable. Speedups are wall-clock *ratios* on the same machine and
//! binary, so the gate is robust to absolute machine speed.

use std::time::Duration;

use venice_bench::microbench::Runner;
use venice_interconnect::FabricKind;
use venice_ssd::report::Json;
use venice_ssd::{DispatchPolicyKind, RunMetrics, ScoutCacheKind, SsdConfig, SsdSim};
use venice_workloads::{Trace, WorkloadAxis};

/// One benched (mesh shape × queue depth × policy × request budget)
/// coordinate; the fabric is always Venice — the only design with scout
/// walks to skip.
struct Scenario {
    name: &'static str,
    rows: u16,
    cols: u16,
    queue_depth: usize,
    policy: DispatchPolicyKind,
    requests: usize,
}

/// Congested big meshes under the two relevant dispatch regimes. Under
/// `RetryAll` every queued chip re-attempts every round, so the engine is
/// maximally scout-walk-bound — the cache's headline case; the deep-queue
/// variants saturate the dispatch rounds with conflicted chips, raising
/// the number of attempts between fabric state changes (which is what the
/// cache's hit rate is made of). Under the `Auto`-selected backoff most
/// doomed attempts are already suppressed, so the remaining walks are the
/// hard residue; the cache must still not cost anything there, since it
/// rides the per-fabric default path.
const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "congested_16x16_venice",
        rows: 16,
        cols: 16,
        queue_depth: 8,
        policy: DispatchPolicyKind::RetryAll,
        requests: 400,
    },
    Scenario {
        name: "congested_16x16_venice_qd32",
        rows: 16,
        cols: 16,
        queue_depth: 32,
        policy: DispatchPolicyKind::RetryAll,
        requests: 400,
    },
    Scenario {
        name: "congested_32x32_venice",
        rows: 32,
        cols: 32,
        queue_depth: 8,
        policy: DispatchPolicyKind::RetryAll,
        requests: 250,
    },
    Scenario {
        name: "congested_32x32_venice_qd64",
        rows: 32,
        cols: 32,
        queue_depth: 64,
        policy: DispatchPolicyKind::RetryAll,
        requests: 250,
    },
    Scenario {
        name: "congested_32x32_venice_auto",
        rows: 32,
        cols: 32,
        queue_depth: 8,
        policy: DispatchPolicyKind::Auto,
        requests: 250,
    },
];

/// Fraction of the baseline speedup a scenario may lose before the smoke
/// fails (>30% events/sec regression).
const REGRESSION_FLOOR: f64 = 0.7;

/// A Venice simulator for `trace`, sized for its footprint; the benches
/// build it outside the timer, so the gated ratios time only `SsdSim::run`.
fn sim<'t>(cfg: &SsdConfig, trace: &'t Trace) -> SsdSim<'t> {
    let sized = cfg.clone().sized_for_footprint(trace.footprint_bytes());
    SsdSim::new(sized, FabricKind::Venice, trace)
}

/// Asserts the cache-on run is bit-identical to the cache-off run in every
/// simulated-behavior field. The only legal deltas are the cache's own
/// effort counters (`scout_fastfails`, `scout_cache_invalidations`) and
/// the reported cache label itself.
fn assert_behaviorally_identical(off: &RunMetrics, on: &RunMetrics, name: &str) {
    let mut masked = on.clone();
    masked.scout_cache = off.scout_cache;
    masked.fabric.scout_fastfails = off.fabric.scout_fastfails;
    masked.fabric.scout_cache_invalidations = off.fabric.scout_cache_invalidations;
    assert_eq!(
        &masked, off,
        "{name}: cache-on run diverged from cache-off beyond effort counters"
    );
}

fn main() {
    let mut r = Runner::new("scout_walk").sample_budget(Duration::from_millis(250));
    let mut scenarios = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for s in &SCENARIOS {
        let trace = WorkloadAxis::congested().trace(s.requests);
        let base = SsdConfig::performance_optimized()
            .with_mesh(s.rows, s.cols)
            .with_queue_depth(s.queue_depth)
            .with_dispatch_policy(s.policy);
        let off_cfg = base.clone().with_scout_cache(ScoutCacheKind::Off);
        let on_cfg = base.clone().with_scout_cache(ScoutCacheKind::On);
        // Correctness first: the cached engine must be bit-identical in
        // every simulated-behavior field.
        let m_off = sim(&off_cfg, &trace).run();
        let m_on = sim(&on_cfg, &trace).run();
        assert_behaviorally_identical(&m_off, &m_on, s.name);
        let events = m_off.events;
        let fastfails = m_on.fabric.scout_fastfails;
        let invalidations = m_on.fabric.scout_cache_invalidations;
        let failed_steps = m_off.fabric.scout_failed_steps;

        let engines = [&on_cfg, &off_cfg];
        let paired = r.bench_pair(
            s.name,
            ["cache_on", "cache_off"],
            |side| sim(engines[side], &trace),
            SsdSim::run,
        );
        let [evps_on, evps_off] = paired.ns_per_iter.map(|ns| events as f64 / (ns / 1e9));
        let speedup = paired.speedup;
        println!(
            "scout_walk {:<30} {:>7.2}M ev/s cache-on vs {:>7.2}M cache-off  ({:.2}x, \
             {} fast-fails / {} invalidations)",
            s.name,
            evps_on / 1e6,
            evps_off / 1e6,
            speedup,
            fastfails,
            invalidations
        );
        scenarios.push(
            Json::object()
                .with("name", s.name)
                .with("shape", format!("{}x{}", s.rows, s.cols))
                .with("fabric", "Venice")
                .with("queue_depth", s.queue_depth as u64)
                .with("policy", s.policy.label())
                .with("requests", s.requests as u64)
                .with("events", events)
                .with("scout_failed_steps", failed_steps)
                .with("scout_fastfails", fastfails)
                .with("scout_cache_invalidations", invalidations)
                .with("events_per_sec_cache_on", Json::fixed(evps_on, 0))
                .with("events_per_sec_cache_off", Json::fixed(evps_off, 0))
                .with("speedup", Json::fixed(speedup, 3)),
        );
        speedups.push((s.name.to_string(), speedup));
    }
    r.finish();
    let summary = Json::object()
        .with("bench", "scout_walk")
        .with("scenarios", Json::Array(scenarios));
    venice_bench::write_result("bench_scout", &summary);

    // Perf-smoke gate against the checked-in baseline ratios.
    venice_bench::microbench::enforce_speedup_baseline(
        "scout_walk",
        &venice_bench::results_dir().join("bench_scout_baseline.json"),
        &speedups,
        REGRESSION_FLOOR,
    );
}
