//! Cross-crate integration tests: full simulations exercising HIL + FTL +
//! fabric + NAND together, checking paper-level behavioral claims.

use venice::interconnect::FabricKind;
use venice::ssd::{run_single, run_systems, SsdConfig};
use venice::workloads::{catalog, mix, WorkloadAxis, WorkloadSpec};
use venice_bench::sweep::{Knob, SweepGrid, WorkerPool};

fn quick(name: &str, requests: usize) -> venice::workloads::Trace {
    catalog::by_name(name).expect("catalog workload").generate(requests)
}

/// Runs `grid` on a one- and a four-thread pool, asserts the sweep
/// engine's determinism contract — `points` points whose ids, labels,
/// metrics, JSON records and fingerprints agree across pool sizes — and
/// returns the serial outcome.
fn pool_size_stable(grid: &SweepGrid, points: usize) -> venice_bench::sweep::SweepOutcome {
    let serial = grid.run_on(&WorkerPool::new(1));
    let pooled = grid.run_on(&WorkerPool::new(4));
    assert_eq!(serial.records().len(), points);
    assert_eq!(pooled.records().len(), points);
    for (a, b) in serial.records().iter().zip(pooled.records()) {
        assert_eq!((a.point.id, &a.point.label), (b.point.id, &b.point.label));
        assert_eq!(a.metrics, b.metrics, "{}: metrics differ across pool sizes", a.point.label);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json(), "{}: JSON differs", a.point.label);
    }
    assert_eq!(serial.grid_hash(), pooled.grid_hash());
    assert_eq!(serial.metrics_fingerprint(), pooled.metrics_fingerprint());
    assert_eq!(serial.manifest_fingerprint(), pooled.manifest_fingerprint());
    assert_eq!(serial.summary().events, pooled.summary().events);
    serial
}

#[test]
fn catalog_workload_completes_on_all_systems() {
    let trace = quick("hm_0", 400);
    let cfg = SsdConfig::performance_optimized();
    let results = run_systems(&cfg, &FabricKind::ALL, &trace);
    for m in &results {
        assert_eq!(m.completed_requests, 400, "{}", m.system);
        assert_eq!(m.hil.completed, 400, "{}", m.system);
        assert!(m.energy_mj > 0.0);
    }
}

#[test]
fn venice_at_least_ties_baseline_and_always_conflicts_less() {
    // Fully transfer-saturated episodes can slightly favor the baseline's
    // 1.2 GB/s buses over Venice's 1 GB/s links — a structural ceiling of
    // the modelled link rates — so Venice may tie within a few percent
    // on execution time, but it must always resolve more requests
    // conflict-free.
    let cfg = SsdConfig::performance_optimized();
    for name in ["proj_3", "src2_1"] {
        let trace = quick(name, 800);
        let results = run_systems(&cfg, &[FabricKind::Baseline, FabricKind::Venice], &trace);
        let speedup = results[1].speedup_over(&results[0]);
        assert!(speedup >= 0.96, "{name}: venice speedup {speedup}");
        assert!(
            results[1].conflict_pct() < results[0].conflict_pct(),
            "{name}: conflicts must improve"
        );
    }
}

#[test]
fn ideal_upper_bounds_every_system() {
    let trace = quick("ssd-10", 600);
    let cfg = SsdConfig::performance_optimized();
    let results = run_systems(&cfg, &FabricKind::ALL, &trace);
    let ideal = results
        .iter()
        .find(|m| m.system == FabricKind::Ideal)
        .unwrap()
        .execution_time;
    for m in &results {
        assert!(
            m.execution_time >= ideal,
            "{} finished before the ideal SSD",
            m.system
        );
    }
}

#[test]
fn conflict_ordering_matches_figure13() {
    // Baseline suffers the most conflicts; the ideal SSD has none.
    let trace = quick("src2_1", 600);
    let cfg = SsdConfig::performance_optimized();
    let results = run_systems(
        &cfg,
        &[FabricKind::Baseline, FabricKind::Venice, FabricKind::Ideal],
        &trace,
    );
    let base = results[0].conflict_pct();
    let venice = results[1].conflict_pct();
    let ideal = results[2].conflict_pct();
    assert_eq!(ideal, 0.0);
    assert!(venice < base, "venice {venice}% vs baseline {base}%");
}

#[test]
fn cost_optimized_gains_are_smaller_than_performance_optimized() {
    // §6.1's second key observation: faster flash makes the interconnect
    // matter more.
    let trace = quick("ssd-10", 800);
    let perf = run_systems(
        &SsdConfig::performance_optimized(),
        &[FabricKind::Baseline, FabricKind::Ideal],
        &trace,
    );
    let cost = run_systems(
        &SsdConfig::cost_optimized(),
        &[FabricKind::Baseline, FabricKind::Ideal],
        &trace,
    );
    let perf_gain = perf[1].speedup_over(&perf[0]);
    let cost_gain = cost[1].speedup_over(&cost[0]);
    assert!(
        perf_gain >= cost_gain * 0.95,
        "perf-opt ideal gain {perf_gain} vs cost-opt {cost_gain}"
    );
}

#[test]
fn mixes_run_end_to_end() {
    let m = mix::by_name("mix5").expect("table 3 mix");
    let trace = mix::generate(m, 250);
    let metrics = run_single(&SsdConfig::performance_optimized(), FabricKind::Venice, &trace);
    assert_eq!(metrics.completed_requests, trace.len() as u64);
}

#[test]
fn write_heavy_workload_garbage_collects_on_every_fabric() {
    let trace = WorkloadSpec::new("churn-it", 10.0, 16.0, 6.0)
        .footprint_mb(64)
        .generate(2_500);
    for kind in [FabricKind::Baseline, FabricKind::Venice] {
        let mut cfg = SsdConfig::performance_optimized();
        cfg.array.chip.blocks_per_plane = 8;
        cfg.array.chip.pages_per_block = 32;
        let m = venice::ssd::SsdSim::new(cfg, kind, &trace).run();
        assert!(m.ftl.gc_erases > 0, "{kind}: GC never ran");
        assert!(m.ftl.write_amplification() >= 1.0);
        assert_eq!(m.completed_requests, 2_500);
    }
}

/// Repaired fault plans under write-heavy bursts: programs that fail while
/// queued (their chip died, or their path was dead) leave pages the FTL
/// already allocated, and the programs behind them on the same block must
/// still find the chip's write pointer in order once the repair revives
/// the chip.
#[test]
fn repaired_faults_keep_program_order_under_writes() {
    use venice::ssd::FaultPlan;

    let trace = WorkloadSpec::new("w", 30.0, 32.0, 2.0)
        .footprint_mb(64)
        .burst_mean(16.0)
        .generate(300);
    for plan in [FaultPlan::LinkRepair, FaultPlan::Storm] {
        let cfg = SsdConfig::performance_optimized().with_fault_plan(plan);
        for fabric in FabricKind::ALL {
            let m = run_single(&cfg, fabric, &trace);
            assert_eq!(m.completed_requests, 300, "{plan} on {fabric}");
        }
    }
}

#[test]
fn figure15_shapes_all_simulate() {
    let trace = quick("usr_0", 300);
    for (r, c) in [(4u16, 16u16), (8, 8), (16, 4)] {
        let cfg = SsdConfig::performance_optimized().with_mesh(r, c);
        let m = run_single(&cfg, FabricKind::Venice, &trace);
        assert_eq!(m.completed_requests, 300, "{r}x{c}");
    }
}

#[test]
fn runs_are_deterministic_across_threads() {
    let trace = quick("web_1", 300);
    let cfg = SsdConfig::performance_optimized();
    let a = run_systems(&cfg, &[FabricKind::Venice], &trace);
    let b = run_systems(&cfg, &[FabricKind::Venice], &trace);
    assert_eq!(a[0].execution_time, b[0].execution_time);
    assert_eq!(a[0].conflicted_requests, b[0].conflicted_requests);
    assert_eq!(a[0].energy_mj, b[0].energy_mj);
}

#[test]
fn sweep_grid_is_bit_identical_across_pool_sizes() {
    // The sweep engine's determinism contract: the same grid run on a
    // one-thread pool and a four-thread pool must produce bit-identical
    // per-point RunMetrics (and therefore identical JSON records and
    // manifest fingerprints) — pool size may only change wall-clock time.
    let grid = SweepGrid::new("determinism")
        .config(SsdConfig::performance_optimized())
        .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
        .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
        .workload(WorkloadAxis::mix("mix1").expect("table 3"))
        .fabrics(&[FabricKind::Baseline, FabricKind::Venice, FabricKind::Ideal])
        .knobs([Knob::QueueDepth(4), Knob::QueueDepth(8)])
        .requests(120);
    pool_size_stable(&grid, 18); // 3 workloads × 2 depths × 3 fabrics
}

/// The dispatch-policy refactor's ground truth: with the default
/// `RetryAll` policy, the engine must be *bit-identical* to the
/// pre-refactor dispatcher. The constant below was captured by running the
/// pre-refactor engine (commit cf0d979) over the whole Table 2 catalog ×
/// all six fabrics at 120 requests and chaining the behavioral fields of
/// every run into one FNV-1a hash; the same computation must reproduce it
/// today. Any change to dispatch order, event scheduling, conflict
/// accounting, or the time-wheel contract shows up here.
#[test]
fn retry_all_is_bit_identical_to_the_pre_refactor_engine() {
    use venice::workloads::WorkloadAxis;

    const PRE_REFACTOR_TABLE2_HASH: u64 = 0xf87d_2d1e_f6d0_fead;

    fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
        bytes.iter().fold(seed, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    let cfg = SsdConfig::performance_optimized();
    assert_eq!(
        cfg.dispatch,
        venice::ssd::DispatchPolicyKind::RetryAll,
        "the default policy must be the pre-refactor behavior"
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for axis in WorkloadAxis::table2() {
        let trace = axis.trace(120);
        for fabric in FabricKind::ALL {
            let m = venice::ssd::run_single(&cfg, fabric, &trace);
            let line = format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{:016x}\n",
                axis.name(),
                fabric.label(),
                m.execution_time.as_nanos(),
                m.events,
                m.transactions,
                m.conflicted_requests,
                m.fabric.conflicts,
                m.fabric.acquisitions,
                m.energy_mj.to_bits(),
            );
            h = fnv1a(line.as_bytes(), h);
        }
    }
    assert_eq!(
        h, PRE_REFACTOR_TABLE2_HASH,
        "RetryAll diverged from the pre-refactor engine on the table2 grid"
    );
}

/// Golden hash of the *armed* engine: faults, tenants, host resilience and
/// RAIN all on, which the default-off hash above never reaches. Chains
/// FNV-1a over the whole `RunMetrics::to_json()` of 24 runs (two armed
/// configs × two workloads × six fabrics), so every outcome counter, every
/// per-tenant record and every latency summary is pinned. The runs cover
/// data loss, deadline misses, shedding, host retries, degraded reads and
/// rebuilt pages.
#[test]
fn armed_engine_is_bit_identical() {
    use venice::hil::TenantSet;
    use venice::ssd::{FaultPlan, RedundancyKind, ResiliencePolicy};
    use venice::workloads::WorkloadAxis;

    const ARMED_HASH: u64 = 0x69e5_2ec4_b6da_df5e;

    fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
        bytes.iter().fold(seed, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    let configs = [
        SsdConfig::performance_optimized()
            .with_tenants(TenantSet::trio_weighted())
            .with_fault_plan(FaultPlan::ChipAndLink)
            .with_resilience(ResiliencePolicy::Full)
            .with_redundancy(RedundancyKind::Parity { group: 4 }),
        SsdConfig::performance_optimized()
            .with_tenants(TenantSet::deadline_split())
            .with_fault_plan(FaultPlan::Chip)
            .with_resilience(ResiliencePolicy::DeadlineRetry),
    ];
    let traces = [
        WorkloadAxis::noisy_neighbor_trio().trace(600),
        WorkloadAxis::congested().trace(400),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for cfg in &configs {
        for trace in &traces {
            for fabric in FabricKind::ALL {
                let m = venice::ssd::run_single(cfg, fabric, trace);
                h = fnv1a(m.to_json().as_bytes(), h);
            }
        }
    }
    assert_eq!(h, ARMED_HASH, "the armed engine diverged: {h:#018x}");
}

/// Every dispatch policy completes every request and stays fingerprint-
/// stable across worker-pool sizes (the determinism contract extends to
/// the new sweep axis).
#[test]
fn policies_are_deterministic_across_pool_sizes() {
    use venice::ssd::DispatchPolicyKind;

    let grid = SweepGrid::new("policy-determinism")
        .config(SsdConfig::performance_optimized())
        .workload(WorkloadAxis::congested())
        .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
        .knobs(DispatchPolicyKind::ALL.map(Knob::Policy))
        .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
        .requests(150);
    let serial = pool_size_stable(&grid, 12); // 2 workloads × 3 policies × 2 fabrics
    for a in serial.records() {
        assert_eq!(
            a.metrics.policy, a.point.config.dispatch,
            "metrics must carry the policy"
        );
        assert_eq!(a.metrics.completed_requests, 150, "{}", a.point.label);
        assert!(
            a.metrics.dispatch.rounds > 0 && a.metrics.dispatch.attempts > 0,
            "{}: dispatcher stats must be populated",
            a.point.label
        );
    }
    // The policies really behave differently (same workload+fabric, all
    // three policies in one grid must not collapse to one fingerprint).
    let venice_congested: Vec<_> = serial
        .records()
        .iter()
        .filter(|r| r.point.fabric == FabricKind::Venice && r.point.workload == "congested")
        .collect();
    assert_eq!(venice_congested.len(), 3);
    let backoff = venice_congested
        .iter()
        .find(|r| r.point.config.dispatch == DispatchPolicyKind::ConflictBackoff)
        .expect("backoff point");
    assert!(
        backoff.metrics.dispatch.skipped_backoff > 0,
        "congested Venice must actually exercise backoff"
    );
    // Auto resolves to ConflictBackoff on Venice: behaviorally identical to
    // the explicit backoff point, differing only in the reported policy.
    let auto = venice_congested
        .iter()
        .find(|r| r.point.config.dispatch == DispatchPolicyKind::Auto)
        .expect("auto point");
    assert_eq!(auto.metrics.policy, DispatchPolicyKind::Auto);
    assert_eq!(auto.metrics.execution_time, backoff.metrics.execution_time);
    assert_eq!(auto.metrics.dispatch, backoff.metrics.dispatch);
    // And on the bus fabric Auto is RetryAll.
    let base_auto = serial
        .records()
        .iter()
        .find(|r| {
            r.point.fabric == FabricKind::Baseline
                && r.point.workload == "congested"
                && r.point.config.dispatch == DispatchPolicyKind::Auto
        })
        .expect("baseline auto point");
    let base_retry = serial
        .records()
        .iter()
        .find(|r| {
            r.point.fabric == FabricKind::Baseline
                && r.point.workload == "congested"
                && r.point.config.dispatch == DispatchPolicyKind::RetryAll
        })
        .expect("baseline retry-all point");
    assert_eq!(
        base_auto.metrics.execution_time,
        base_retry.metrics.execution_time
    );
    assert_eq!(base_auto.metrics.dispatch, base_retry.metrics.dispatch);
}

/// Resumable sweeps: a second run of the same grid reuses every on-disk
/// point record (simulating nothing) yet converges to the same manifest
/// fingerprint, a changed grid is not resumed, and `fresh` forces
/// re-execution.
#[test]
fn resumable_sweeps_skip_existing_points() {
    use venice_bench::sweep::{SweepGrid, WorkerPool};
    use venice_workloads::WorkloadAxis;

    let base = std::env::temp_dir().join("venice-resume-test");
    let _ = std::fs::remove_dir_all(&base);
    let grid = SweepGrid::new("resume")
        .config(SsdConfig::performance_optimized())
        .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
        .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
        .requests(80);
    let pool = WorkerPool::new(2);

    let first = grid.run_resumable(&base, &pool, false);
    assert_eq!(first.reused_count(), 0, "nothing on disk yet");
    assert_eq!(first.records().len(), 2);

    // Point records persist as they complete (no write() call yet), so a
    // killed sweep resumes from the points it finished.
    let second = grid.run_resumable(&base, &pool, false);
    assert_eq!(second.reused_count(), 2, "all records reused");
    assert!(second.records().is_empty());
    assert_eq!(second.metrics_fingerprint(), first.metrics_fingerprint());
    // Manifests agree up to run-local wall-clock time (whose f64 Display
    // length varies run to run — comparing raw lengths here was flaky).
    let strip_wall = |m: String| -> String {
        m.lines()
            .filter(|l| !l.trim_start().starts_with("\"wall_seconds\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_wall(second.manifest_json()),
        strip_wall(first.manifest_json())
    );
    first.write(&base).expect("write artifact");
    assert!(first.dir(&base).join("manifest.json").is_file());
    assert!(first.dir(&base).join("grid.json").is_file());

    // Deleting one record resumes exactly the missing point.
    let victim = &first.points()[1];
    std::fs::remove_file(first.dir(&base).join(victim.file_name())).expect("remove one record");
    let third = grid.run_resumable(&base, &pool, false);
    assert_eq!(third.reused_count(), 1);
    assert_eq!(third.records().len(), 1);
    assert_eq!(third.records()[0].point.id, victim.id);
    assert_eq!(third.metrics_fingerprint(), first.metrics_fingerprint());

    // A different grid definition must not reuse the artifact.
    let other = SweepGrid::new("resume")
        .config(SsdConfig::performance_optimized())
        .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
        .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
        .requests(90);
    let fourth = other.run_resumable(&base, &pool, false);
    assert_eq!(fourth.reused_count(), 0, "grid definition changed");
    let stamp = std::fs::read_to_string(fourth.dir(&base).join("grid.json"))
        .expect("stamp written before simulation");
    assert!(stamp.contains("\"requests\": 90"), "stamp follows the new grid");

    // A torn (truncated) record is never trusted, even under a matching
    // stamp: the structural filter forces that point to re-run.
    let torn = fourth.dir(&base).join(fourth.points()[0].file_name());
    std::fs::write(&torn, "{\"system\": \"Base").expect("plant torn record");
    let healed = other.run_resumable(&base, &pool, false);
    assert_eq!(healed.reused_count(), 1, "whole record reused");
    assert_eq!(healed.records().len(), 1, "torn record re-executed");
    assert_eq!(healed.records()[0].point.id, fourth.points()[0].id);
    assert_eq!(healed.metrics_fingerprint(), fourth.metrics_fingerprint());

    // And --fresh bypasses matching records.
    let fifth = grid.run_resumable(&base, &pool, true);
    assert_eq!(fifth.reused_count(), 0);
    assert_eq!(fifth.records().len(), 2);
    assert_eq!(fifth.metrics_fingerprint(), first.metrics_fingerprint());
    let _ = std::fs::remove_dir_all(&base);
}

/// A panicking sweep point must not take the sweep down: the worker
/// catches the unwind, records a structured `"status": "failed"`
/// placeholder for that point, and every other point completes normally.
/// A later resumable run of the same grid re-executes the failed point
/// instead of trusting its placeholder record.
#[test]
fn a_panicking_point_is_isolated_and_reported_failed() {
    use venice::ssd::RunStatus;
    use venice_bench::sweep::{SweepGrid, WorkerPool};
    use venice_workloads::WorkloadAxis;

    // The `panic_after_events` fail point panics the engine mid-run — a
    // deterministic stand-in for any engine bug — on the poisoned config
    // axis value only; the healthy preset rides in the same grid.
    let mut poisoned = SsdConfig::performance_optimized().with_panic_after_events(1_000);
    poisoned.name = "poisoned";
    let grid = SweepGrid::new("panic-isolation")
        .config(SsdConfig::performance_optimized())
        .config(poisoned)
        .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
        .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
        .requests(100);
    let pool = WorkerPool::new(2);

    let outcome = grid.run_on(&pool);
    assert_eq!(outcome.records().len(), 4);
    for r in outcome.records() {
        if r.point.config.name == "poisoned" {
            assert_eq!(r.metrics.status, RunStatus::Failed, "{}", r.point.label);
            assert_eq!(r.metrics.completed_requests, 0, "{}", r.point.label);
            assert!(
                r.metrics.to_json().contains("\"status\": \"failed\""),
                "{}: record must carry the failure",
                r.point.label
            );
        } else {
            assert_eq!(r.metrics.status, RunStatus::Complete, "{}", r.point.label);
            assert_eq!(r.metrics.completed_requests, 100, "{}", r.point.label);
        }
    }
    // The manifest index exposes per-point status for sweep_diff.
    assert!(outcome.manifest_json().contains("\"status\": \"failed\""));

    // Resume never trusts a failed placeholder: only the two healthy
    // points are reused, the two poisoned ones re-execute.
    let base = std::env::temp_dir().join("venice-panic-isolation-test");
    let _ = std::fs::remove_dir_all(&base);
    let first = grid.run_resumable(&base, &pool, false);
    assert_eq!(first.reused_count(), 0);
    let second = grid.run_resumable(&base, &pool, false);
    assert_eq!(second.reused_count(), 2, "healthy records reused");
    assert_eq!(second.records().len(), 2, "failed records re-executed");
    assert_eq!(second.metrics_fingerprint(), first.metrics_fingerprint());
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn catalog_sweep_is_deterministic_across_parallelism() {
    // The Table 2 catalog sweep behind most figures must produce
    // bit-identical RunMetrics, in catalog order, whether its points run
    // on one worker thread or four.
    let grid = SweepGrid::new("catalog")
        .config(SsdConfig::performance_optimized())
        .workloads(WorkloadAxis::table2())
        .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
        .requests(120);
    pool_size_stable(&grid, 38); // 19 workloads × 2 fabrics
}

/// Every checked-in artifact is exactly what `Json::document` lays out for
/// its parsed value: point records one field per line (`rows = false`),
/// sweep manifests and `results/*.json` with their arrays one item per
/// line (`rows = true`), and the `grid.json` stamps on one line. For the
/// wall-clock artifacts (`policy_ablation.json`, `bench_*.json`), which no
/// run reproduces, this is the only byte check.
#[test]
fn checked_in_artifacts_rerender_byte_for_byte() {
    use std::path::{Path, PathBuf};
    use venice::ssd::report::Json;
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).expect("artifact reads");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        (text, doc)
    };
    let entries = |dir: PathBuf| {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("directory")
            .map(|e| e.expect("entry").path())
            .collect();
        paths.sort();
        paths
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sweeps = entries(root.join("baselines"));
    assert_eq!(sweeps.len(), 6, "six baselined grids");
    for sweep in sweeps {
        let (text, grid) = read(&sweep.join("grid.json"));
        assert_eq!(grid.to_string(), text, "{}", sweep.display());
        let (text, manifest) = read(&sweep.join("manifest.json"));
        assert_eq!(manifest.document(true), text, "{}", sweep.display());
        let points = entries(sweep.join("points"));
        assert_eq!(
            manifest.get("points_total").and_then(Json::as_u64),
            Some(points.len() as u64)
        );
        for point in points {
            let (text, record) = read(&point);
            assert_eq!(record.document(false), text, "{}", point.display());
        }
    }
    let results: Vec<PathBuf> = entries(root.join("results"))
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert!(
        results.len() >= 9,
        "four ablations, the policy ablation, four bench files"
    );
    for path in results {
        let (text, doc) = read(&path);
        assert_eq!(doc.document(true), text, "{}", path.display());
    }
}
