//! Randomized property tests on the core data structures and invariants the
//! simulator's correctness rests on.
//!
//! The build environment has no crates-registry access, so instead of
//! proptest these properties drive the workspace's own deterministic
//! [`Xorshift64Star`] generator over a few hundred seeded cases each —
//! reproducible across runs and platforms by construction.

use venice::ftl::{ArrayGeometry, Ftl, FtlConfig};
use venice::interconnect::mesh::MeshState;
use venice::interconnect::{FcId, Mesh2D, NodeId};
use venice::nand::ChipGeometry;
use venice::sim::rng::{Lfsr2, Xorshift64Star};
use venice::sim::{EventQueue, ReferenceHeapQueue, SimDuration, SimTime};
use venice::workloads::{WorkloadAxis, WorkloadSpec};
use venice_bench::sweep::{Knob, SweepGrid};

/// Runs `grid` on a one- and a four-thread pool and asserts the sweep
/// engine's determinism contract: `points` points whose labels, metrics and
/// fingerprints agree across pool sizes.
fn assert_pool_size_stable(grid: &SweepGrid, points: usize) {
    use venice_bench::sweep::WorkerPool;
    let serial = grid.run_on(&WorkerPool::new(1));
    let pooled = grid.run_on(&WorkerPool::new(4));
    assert_eq!(serial.records().len(), points);
    for (a, b) in serial.records().iter().zip(pooled.records()) {
        assert_eq!(a.point.label, b.point.label);
        assert_eq!(a.metrics, b.metrics, "{}: metrics differ across pool sizes", a.point.label);
    }
    assert_eq!(serial.metrics_fingerprint(), pooled.metrics_fingerprint());
    assert_eq!(serial.manifest_fingerprint(), pooled.manifest_fingerprint());
}

/// A scout walk either reserves a valid simple path or leaves the mesh
/// exactly as it was — never a partial reservation.
#[test]
fn scout_walk_is_atomic() {
    let mut rng = Xorshift64Star::new(0xA70);
    for case in 0..300 {
        let rows = 2 + (rng.next_bounded(7) as u16);
        let cols = 2 + (rng.next_bounded(7) as u16);
        let topo = Mesh2D::new(rows, cols);
        let mut mesh = MeshState::new(topo, usize::from(rows));
        let mut lfsr = Lfsr2::new();
        // Pre-reserve a few circuits on distinct packet ids (1..rows),
        // keeping packet 0 free for the walk under test.
        let pre = rng.next_bounded(6) as usize;
        for i in 0..pre.min(usize::from(rows) - 1) {
            let src = NodeId(rng.next_bounded(topo.node_count() as u64) as u16);
            let dst = NodeId(rng.next_bounded(topo.node_count() as u64) as u16);
            let _ = mesh.scout_walk((i + 1) as u8, src, dst, &mut lfsr);
        }
        let busy_before = mesh.reserved_link_count();
        let src = topo.fc_node(FcId(0));
        let dst = NodeId(rng.next_bounded(topo.node_count() as u64) as u16);
        if let Ok((path, _)) = mesh.scout_walk(0, src, dst, &mut lfsr) {
            {
                // Valid simple path, every link owned by packet 0.
                assert_eq!(*path.nodes.first().unwrap(), src, "case {case}");
                assert_eq!(*path.nodes.last().unwrap(), dst, "case {case}");
                let uniq: std::collections::HashSet<_> = path.nodes.iter().collect();
                assert_eq!(uniq.len(), path.nodes.len(), "case {case}: self-crossing");
                for &l in &path.links {
                    assert_eq!(mesh.link_owner(l), Some(0), "case {case}");
                }
                mesh.release_owned(path);
            }
        }
        assert_eq!(mesh.reserved_link_count(), busy_before, "case {case}");
    }
}

/// The bucketed time-wheel calendar delivers the exact pop sequence of the
/// reference binary heap — ordering, FIFO tie-breaks among equal
/// timestamps, and `now()` monotonicity — under randomized schedules that
/// cross bucket boundaries and the overflow horizon, at every bucket width
/// the auto-tuner can pick (256 ns default, 512 ns z-nand, 4096 ns tlc-3d).
#[test]
fn event_calendar_matches_reference_heap() {
    for seed in 1..=20u64 {
        // Cycle the widths across seeds so each width sees several schedules.
        let bucket_ns = [256u64, 512, 4096][(seed % 3) as usize];
        let mut rng = Xorshift64Star::new(seed);
        let mut wheel = EventQueue::with_bucket_ns(bucket_ns);
        let mut heap = ReferenceHeapQueue::new();
        let mut id = 0u64;
        let mut last_time = SimTime::ZERO;
        for _ in 0..2_000 {
            if rng.next_bool(0.55) || wheel.is_empty() {
                // Mixed horizons: same-instant ties, sub-bucket, a few
                // buckets ahead, and far beyond the wheel window.
                let delta = match rng.next_bounded(4) {
                    0 => 0,
                    1 => rng.next_bounded(200),
                    2 => rng.next_bounded(20_000),
                    _ => rng.next_bounded(2_000_000),
                };
                let t = wheel.now() + SimDuration::from_nanos(delta);
                wheel.schedule(t, id);
                heap.schedule(t, id);
                id += 1;
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "seed {seed}: pop diverged");
                let (t, _) = a.expect("non-empty");
                assert!(t >= last_time, "seed {seed}: now() went backwards");
                last_time = t;
                assert_eq!(wheel.now(), heap.now(), "seed {seed}");
            }
            assert_eq!(wheel.len(), heap.len(), "seed {seed}");
        }
        // Drain: the tails must agree too.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b, "seed {seed}: drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

/// FTL mapping and valid-count invariants survive arbitrary write/GC
/// interleavings.
#[test]
fn ftl_invariants_under_random_traffic() {
    let mut rng = Xorshift64Star::new(0xF71);
    for _case in 0..60 {
        let array = ArrayGeometry::new(4, ChipGeometry::z_nand_small());
        let mut ftl = Ftl::new(FtlConfig {
            array,
            logical_pages: 256,
            gc_threshold_blocks: 2,
            wear_delta_threshold: 1_000,
        });
        let ops = 1 + rng.next_bounded(400);
        for _ in 0..ops {
            let lpa = rng.next_bounded(256);
            let do_gc = rng.next_bool(0.5);
            if ftl.allocate_write(lpa).is_err() {
                // Out of unreserved space: drive GC to completion.
                for plane in ftl.planes_needing_gc() {
                    if let Some(job) = ftl.start_gc(plane) {
                        for &(l, old) in &job.pages {
                            ftl.relocate(l, old, false).unwrap();
                        }
                        ftl.finish_erase(&job, false);
                    }
                }
                continue;
            }
            if do_gc {
                if let Some(plane) = ftl.planes_needing_gc().first().copied() {
                    if let Some(job) = ftl.start_gc(plane) {
                        for &(l, old) in &job.pages {
                            ftl.relocate(l, old, false).unwrap();
                        }
                        ftl.finish_erase(&job, false);
                    }
                }
            }
        }
        ftl.check_invariants();
    }
}

/// Generated traces always honor their own declared constraints.
#[test]
fn traces_are_well_formed() {
    let mut rng = Xorshift64Star::new(0x77F);
    for case in 0..120 {
        let read_pct = rng.next_f64() * 100.0;
        let kb = 4.0 + rng.next_f64() * 124.0;
        let us = 1.0 + rng.next_f64() * 499.0;
        let n = 1 + rng.next_bounded(300) as usize;
        let burst = 1.0 + rng.next_f64() * 63.0;
        let t = WorkloadSpec::new("prop", read_pct, kb, us)
            .footprint_mb(128)
            .burst_mean(burst)
            .generate(n);
        assert_eq!(t.len(), n, "case {case}");
        let mut last = None;
        for e in t.events() {
            assert!(e.bytes > 0, "case {case}");
            assert!(
                e.offset + u64::from(e.bytes) <= t.footprint_bytes(),
                "case {case}: event beyond footprint"
            );
            if let Some(prev) = last {
                assert!(e.arrival >= prev, "case {case}: arrivals not sorted");
            }
            last = Some(e.arrival);
        }
    }
}

/// The incremental ready-set dispatcher must be *bit-identical* to the
/// retained full-scan reference dispatcher — same `RunMetrics`, same JSON
/// bytes — for every fabric and policy, under randomized workloads. This
/// is the correctness contract that lets the ready-set engine ship as the
/// default: `DispatchScanKind` is a performance knob, never a behavioral
/// axis.
#[test]
fn incremental_dispatch_matches_the_full_scan_reference() {
    use venice::ssd::{run_single, DispatchPolicyKind, DispatchScanKind, SsdConfig};
    use venice::interconnect::FabricKind;

    let mut rng = Xorshift64Star::new(0xD15);
    for case in 0..4u64 {
        // Rotate through the policy table so every policy sees random
        // traffic on every fabric across the case set.
        let policy = DispatchPolicyKind::ALL[case as usize % DispatchPolicyKind::ALL.len()];
        let read_pct = 40.0 + rng.next_f64() * 60.0;
        let kb = 4.0 + rng.next_f64() * 28.0;
        let us = 1.0 + rng.next_f64() * 15.0;
        let n = 80 + rng.next_bounded(120) as usize;
        let trace = WorkloadSpec::new("xcheck", read_pct, kb, us)
            .footprint_mb(48)
            .burst_mean(1.0 + rng.next_f64() * 24.0)
            .generate(n);
        let base = SsdConfig::performance_optimized().with_dispatch_policy(policy);
        for fabric in FabricKind::ALL {
            let incr = run_single(
                &base.clone().with_dispatch_scan(DispatchScanKind::Incremental),
                fabric,
                &trace,
            );
            let full = run_single(
                &base.clone().with_dispatch_scan(DispatchScanKind::FullScan),
                fabric,
                &trace,
            );
            assert_eq!(
                incr, full,
                "case {case}: {fabric}/{policy}: engines diverged"
            );
            assert_eq!(
                incr.to_json(),
                full.to_json(),
                "case {case}: {fabric}/{policy}: JSON records diverged"
            );
        }
    }

    // Big meshes are where the ready set pays — and where an ordering bug
    // would hide: cross-check 16×16 under congestion-heavy traffic too.
    let trace = venice::workloads::WorkloadAxis::congested().trace(150);
    for fabric in [FabricKind::NoSsd, FabricKind::Venice] {
        for policy in [DispatchPolicyKind::RetryAll, DispatchPolicyKind::Auto] {
            let base = SsdConfig::performance_optimized()
                .with_mesh(16, 16)
                .with_dispatch_policy(policy);
            let incr = run_single(
                &base.clone().with_dispatch_scan(DispatchScanKind::Incremental),
                fabric,
                &trace,
            );
            let full = run_single(
                &base.clone().with_dispatch_scan(DispatchScanKind::FullScan),
                fabric,
                &trace,
            );
            assert_eq!(incr, full, "16x16 {fabric}/{policy}: engines diverged");
        }
    }
}

/// The scout fast-fail cache must be *behaviorally invisible*: a cached
/// Venice run is bit-identical to the uncached engine in every
/// simulated-behavior field (execution time, latencies, conflicts,
/// acquisitions, energy, events — everything except the cache's own
/// `scout_fastfails` / `scout_cache_invalidations` effort counters), and
/// `ScoutCacheKind::Checked` re-runs the full walk beside every cache
/// verdict, panicking on any false fast-fail or replay mismatch (verdict,
/// steps, misroutes, or LFSR draws). This is the randomized cross-check
/// pattern that pinned the PR 4 dispatcher, applied to the cache.
#[test]
fn scout_fastfail_cache_is_bit_identical_and_checked() {
    use venice::interconnect::FabricKind;
    use venice::ssd::{run_single, DispatchPolicyKind, ScoutCacheKind, SsdConfig};

    // A cached run equals the uncached run up to the cache's effort
    // counters and its own reported label.
    fn assert_behaviorally_identical(
        off: &venice::ssd::RunMetrics,
        cached: &venice::ssd::RunMetrics,
        ctx: &str,
    ) {
        let mut masked = cached.clone();
        masked.scout_cache = off.scout_cache;
        masked.fabric.scout_fastfails = off.fabric.scout_fastfails;
        masked.fabric.scout_cache_invalidations = off.fabric.scout_cache_invalidations;
        assert_eq!(&masked, off, "{ctx}: cache changed simulated behavior");
    }

    let mut rng = Xorshift64Star::new(0xCAC4E);
    for case in 0..4u64 {
        let policies = venice::ssd::DispatchPolicyKind::ALL;
        let policy = policies[case as usize % policies.len()];
        let read_pct = 40.0 + rng.next_f64() * 60.0;
        let kb = 4.0 + rng.next_f64() * 28.0;
        let us = 1.0 + rng.next_f64() * 10.0;
        let n = 80 + rng.next_bounded(120) as usize;
        let trace = WorkloadSpec::new("cache-xcheck", read_pct, kb, us)
            .footprint_mb(48)
            .burst_mean(1.0 + rng.next_f64() * 24.0)
            .generate(n);
        // The cache is a Venice knob, but run every fabric once in Checked
        // mode on the first case: non-Venice fabrics must carry the knob
        // inertly (same metrics, zero cache counters).
        let fabrics: &[FabricKind] = if case == 0 {
            &FabricKind::ALL
        } else {
            &[FabricKind::Venice]
        };
        for &fabric in fabrics {
            let base = SsdConfig::performance_optimized().with_dispatch_policy(policy);
            let off = run_single(
                &base.clone().with_scout_cache(ScoutCacheKind::Off),
                fabric,
                &trace,
            );
            let on = run_single(
                &base.clone().with_scout_cache(ScoutCacheKind::On),
                fabric,
                &trace,
            );
            // Checked runs the full walk beside every cache verdict and
            // asserts agreement internally — completing is the check.
            let checked = run_single(
                &base.clone().with_scout_cache(ScoutCacheKind::Checked),
                fabric,
                &trace,
            );
            let ctx = format!("case {case}: {fabric}/{policy}");
            assert_behaviorally_identical(&off, &on, &ctx);
            assert_behaviorally_identical(&off, &checked, &ctx);
            if fabric != FabricKind::Venice {
                assert_eq!(on.fabric.scout_fastfails, 0, "{ctx}: knob must be inert");
            }
        }
    }

    // Big congested meshes are where the cache pays — and where a stale
    // fast-fail or a draw-count mismatch would hide: cross-check 16×16
    // under congestion-heavy traffic, in all three modes, for the two
    // policies the per-fabric default table can select.
    let trace = venice::workloads::WorkloadAxis::congested().trace(150);
    for policy in [DispatchPolicyKind::RetryAll, DispatchPolicyKind::Auto] {
        let base = SsdConfig::performance_optimized()
            .with_mesh(16, 16)
            .with_dispatch_policy(policy);
        let off = run_single(
            &base.clone().with_scout_cache(ScoutCacheKind::Off),
            FabricKind::Venice,
            &trace,
        );
        let on = run_single(
            &base.clone().with_scout_cache(ScoutCacheKind::On),
            FabricKind::Venice,
            &trace,
        );
        let checked = run_single(
            &base.clone().with_scout_cache(ScoutCacheKind::Checked),
            FabricKind::Venice,
            &trace,
        );
        let ctx = format!("congested 16x16 Venice/{policy}");
        assert_behaviorally_identical(&off, &on, &ctx);
        assert_behaviorally_identical(&off, &checked, &ctx);
        assert!(
            on.fabric.scout_fastfails > 0,
            "{ctx}: congestion must exercise the fast-fail path"
        );
        assert!(
            checked.fabric.scout_fastfails > 0,
            "{ctx}: checked mode must verify live verdicts"
        );
    }
}

/// Fault injection is sound on every fabric: under every scripted fault
/// plan — link and router outages, repairs, permanent chip death, transient
/// NAND errors, and the randomized storm — and randomized traffic, (a) the
/// calendar always drains (no fault scenario hangs or panics), (b) every
/// request reaches a terminal state and only chip-killing plans produce
/// structured failures, (c) `ScoutCacheKind::Checked` stays green on Venice
/// (down-masked links and generation-stamped invalidations never leave a
/// stale fast-fail behind), and (d) faulted sweeps stay bit-identical
/// across worker-pool sizes, extending the determinism contract to the
/// fault axis.
#[test]
fn fault_injection_is_sound_on_every_fabric() {
    use venice::interconnect::FabricKind;
    use venice::ssd::{run_single, FaultPlan, RunStatus, ScoutCacheKind, SsdConfig};

    let mut rng = Xorshift64Star::new(0xFA17);
    for case in 0..2u64 {
        let read_pct = 20.0 + rng.next_f64() * 70.0;
        let kb = 4.0 + rng.next_f64() * 28.0;
        let us = 1.0 + rng.next_f64() * 10.0;
        let n = 120 + rng.next_bounded(120) as usize;
        let trace = WorkloadSpec::new("fault-prop", read_pct, kb, us)
            .footprint_mb(48)
            .burst_mean(1.0 + rng.next_f64() * 16.0)
            .generate(n);
        for &plan in &FaultPlan::ALL {
            for fabric in FabricKind::ALL {
                let cfg = SsdConfig::performance_optimized().with_fault_plan(plan);
                let m = run_single(&cfg, fabric, &trace);
                let ctx = format!("case {case}: {fabric}/{}", plan.label());
                assert_eq!(m.status, RunStatus::Complete, "{ctx}: run must drain");
                assert_eq!(
                    m.completed_requests, n as u64,
                    "{ctx}: every request must reach a terminal state"
                );
                assert!(m.failed_requests <= m.completed_requests, "{ctx}");
                if plan == FaultPlan::None {
                    assert_eq!(m.faults_injected, 0, "{ctx}: None must be inert");
                    assert_eq!(m.failed_requests, 0, "{ctx}");
                    assert_eq!(m.availability(), 1.0, "{ctx}");
                }
                // Requests to surviving chips complete successfully: plans
                // that never kill a chip (transient NAND errors retry to
                // success) must not fail anything.
                if plan == FaultPlan::TransientNand {
                    assert_eq!(m.failed_requests, 0, "{ctx}: retries must succeed");
                }
                // Determinism extends to faulted runs.
                let again = run_single(&cfg, fabric, &trace);
                assert_eq!(m, again, "{ctx}: faulted run not deterministic");
            }
            // (c) Checked mode re-walks beside every cache verdict and
            // panics on any stale fast-fail — completing is the check.
            let checked = run_single(
                &SsdConfig::performance_optimized()
                    .with_fault_plan(plan)
                    .with_scout_cache(ScoutCacheKind::Checked),
                FabricKind::Venice,
                &trace,
            );
            assert_eq!(
                checked.status,
                RunStatus::Complete,
                "case {case}: Venice/{}/cache-checked must drain",
                plan.label()
            );
        }
    }

    // (d) Fingerprints are pool-size-stable with faults on.
    {
        let grid = SweepGrid::new("fault-determinism")
            .config(venice::ssd::SsdConfig::performance_optimized())
            .workload(WorkloadAxis::congested())
            .knobs([FaultPlan::Link, FaultPlan::LinkRepair, FaultPlan::Storm].map(Knob::Fault))
            .fabrics(&[
                venice::interconnect::FabricKind::Baseline,
                venice::interconnect::FabricKind::NoSsd,
                venice::interconnect::FabricKind::Venice,
            ])
            .requests(150);
        assert_pool_size_stable(&grid, 9); // 3 plans × 3 fabrics
    }
}

/// Multi-tenant QoS invariants under randomized tenancy: (a) the WRR
/// arbiter never fetches a tenant past its queue-depth cap under arbitrary
/// submit/fetch/complete interleavings, and per-tenant HIL stats partition
/// the global counters; (b) end-to-end, per-tenant run metrics partition
/// the global run (completions, failures) with Jain's fairness index in
/// `(0, 1]`, deterministically; (c) tenant-axis sweeps — per-tenant
/// metrics included — are bit-identical across worker-pool sizes.
#[test]
fn tenant_qos_invariants_under_random_tenancy() {
    use venice::hil::{DeadlineClass, HilConfig, HostInterface, HostRequest, TenantSet, TenantSpec};
    use venice::ssd::{run_single, SsdConfig};
    use venice::workloads::{IoOp, Trace};

    const NAMES: [&str; 4] = ["ten-a", "ten-b", "ten-c", "ten-d"];
    let mut rng = Xorshift64Star::new(0x7E4A47);

    // (a) HIL-level: randomized tenancy and interleavings never break the
    // cap or conservation invariants.
    for case in 0..60 {
        let t = 1 + rng.next_bounded(4) as usize;
        let specs: Vec<TenantSpec> = (0..t)
            .map(|i| TenantSpec {
                name: NAMES[i],
                weight: 1 + rng.next_bounded(8) as u32,
                qd_cap: if rng.next_bool(0.5) {
                    0 // unlimited
                } else {
                    1 + rng.next_bounded(6) as u32
                },
                deadline: DeadlineClass::Default,
            })
            .collect();
        let set = TenantSet::custom(format!("prop-{case}"), specs.clone());
        let config = HilConfig {
            queues: 8,
            queue_depth: 2 + rng.next_bounded(7) as usize,
            ..HilConfig::default()
        };
        let mut hil = HostInterface::with_tenants(config, set);
        let mut next_id = 0u64;
        let mut inflight: Vec<u64> = Vec::new();
        for _ in 0..400 {
            match rng.next_bounded(3) {
                0 => {
                    let req = HostRequest {
                        id: next_id,
                        tenant: rng.next_bounded(t as u64) as u8,
                        arrival: SimTime::ZERO,
                        op: if rng.next_bool(0.5) { IoOp::Read } else { IoOp::Write },
                        offset: rng.next_bounded(1 << 30),
                        bytes: 4096,
                        deadline: None,
                    };
                    next_id += 1;
                    let _ = hil.submit(req);
                }
                1 => {
                    if let Some(req) = hil.fetch() {
                        inflight.push(req.id);
                    }
                    for (i, spec) in specs.iter().enumerate() {
                        if spec.qd_cap != 0 {
                            assert!(
                                hil.tenant_inflight(i) <= u64::from(spec.qd_cap),
                                "case {case}: tenant {i} fetched beyond its cap"
                            );
                        }
                    }
                }
                _ => {
                    if !inflight.is_empty() {
                        let k = rng.next_bounded(inflight.len() as u64) as usize;
                        hil.complete(inflight.swap_remove(k), SimTime::ZERO);
                    }
                }
            }
        }
        // Per-tenant stats partition the global counters, and the global
        // in-flight count is the sum of the per-tenant ones.
        let global = hil.stats();
        let per: (u64, u64, u64, u64) = hil.tenant_stats().iter().fold(
            (0, 0, 0, 0),
            |(s, b, f, c), ts| {
                (s + ts.submitted, b + ts.backpressured, f + ts.fetched, c + ts.completed)
            },
        );
        assert_eq!(per.0, global.submitted, "case {case}");
        assert_eq!(per.1, global.backpressured, "case {case}");
        assert_eq!(per.2, global.fetched, "case {case}");
        assert_eq!(per.3, global.completed, "case {case}");
        let tenant_inflight_sum: u64 = (0..t).map(|i| hil.tenant_inflight(i)).sum();
        assert_eq!(tenant_inflight_sum, hil.inflight(), "case {case}");
        assert_eq!(global.fetched - global.completed, hil.inflight(), "case {case}");
    }

    // (b) End-to-end: per-tenant run metrics partition the global run.
    for case in 0..3u64 {
        let t = 1 + rng.next_bounded(3) as usize;
        let specs: Vec<TenantSpec> = (0..t)
            .map(|i| TenantSpec {
                name: NAMES[i],
                weight: 1 + rng.next_bounded(4) as u32,
                qd_cap: if rng.next_bool(0.7) { 0 } else { 2 + rng.next_bounded(4) as u32 },
                deadline: DeadlineClass::Default,
            })
            .collect();
        let set = TenantSet::custom(format!("e2e-{case}"), specs);
        let untagged = WorkloadSpec::new("tenant-prop", 70.0, 4.0, 8.0)
            .footprint_mb(64)
            .burst_mean(1.0 + rng.next_f64() * 12.0)
            .generate(150);
        let tags: Vec<u8> = (0..untagged.len())
            .map(|_| rng.next_bounded(t as u64) as u8)
            .collect();
        let trace = Trace::with_tenants(
            "tenant-prop",
            untagged.footprint_bytes(),
            untagged.events().to_vec(),
            tags,
        );
        let config = SsdConfig::performance_optimized().with_tenants(set.clone());
        for fabric in [
            venice::interconnect::FabricKind::Baseline,
            venice::interconnect::FabricKind::Venice,
        ] {
            let m = run_single(&config, fabric, &trace);
            let ctx = format!("case {case}: {fabric}");
            assert_eq!(m.tenants.len(), set.len(), "{ctx}");
            assert_eq!(
                m.tenants.iter().map(|x| x.completed).sum::<u64>(),
                m.completed_requests,
                "{ctx}: per-tenant completions must partition the global count"
            );
            assert_eq!(
                m.tenants.iter().map(|x| x.failed).sum::<u64>(),
                m.failed_requests,
                "{ctx}"
            );
            let j = m.fairness_index();
            assert!(j > 0.0 && j <= 1.0 + 1e-12, "{ctx}: Jain index {j} out of range");
            let again = run_single(&config, fabric, &trace);
            assert_eq!(m, again, "{ctx}: tenant-tagged run not deterministic");
        }
    }

    // (c) Tenant-axis sweeps — per-tenant metrics included via the full
    // RunMetrics comparison — are pool-size-stable.
    {
        let grid = SweepGrid::new("tenant-determinism")
            .config(SsdConfig::performance_optimized())
            .workload(WorkloadAxis::noisy_neighbor())
            .knobs(TenantSet::presets().into_iter().map(Knob::Tenants))
            .fabrics(&[
                venice::interconnect::FabricKind::Baseline,
                venice::interconnect::FabricKind::Venice,
            ])
            .requests(120);
        assert_pool_size_stable(&grid, 8); // 4 tenant sets × 2 fabrics
    }
}

/// The host resilience layer is sound on every fabric: under every
/// resilience preset, every fault plan that matters to it, and randomized
/// traffic, (a) the calendar always drains and every request reaches
/// exactly one terminal outcome — `completed + shed` partitions the trace
/// and `deadline_met + failed` partitions the completions; (b) disarmed
/// mechanisms stay inert (no misses without a deadline, no retries without
/// retry, no sheds without admission control) and armed retries respect
/// the per-request cap; (c) `ResiliencePolicy::None` is bit-identical to
/// the pre-resilience engine; (d) resilience-axis sweeps are bit-identical
/// across worker-pool sizes, extending the determinism contract to the
/// resilience axis.
#[test]
fn host_resilience_is_sound_on_every_fabric() {
    use venice::interconnect::FabricKind;
    use venice::ssd::{run_single, FaultPlan, ResiliencePolicy, RunStatus, SsdConfig};

    let mut rng = Xorshift64Star::new(0x4E51);
    for case in 0..2u64 {
        let read_pct = 20.0 + rng.next_f64() * 70.0;
        let kb = 4.0 + rng.next_f64() * 28.0;
        let us = 1.0 + rng.next_f64() * 10.0;
        let n = 120 + rng.next_bounded(120);
        let trace = WorkloadSpec::new("resilience-prop", read_pct, kb, us)
            .footprint_mb(48)
            .burst_mean(1.0 + rng.next_f64() * 16.0)
            .generate(n as usize);
        // The storm exercises timeouts and retries against transient
        // outages; the permanent link fault exercises terminal failures.
        for plan in [FaultPlan::None, FaultPlan::Link, FaultPlan::Storm] {
            for &policy in &ResiliencePolicy::ALL {
                let cfg = SsdConfig::performance_optimized()
                    .with_fault_plan(plan)
                    .with_resilience(policy);
                for fabric in FabricKind::ALL {
                    let m = run_single(&cfg, fabric, &trace);
                    let ctx =
                        format!("case {case}: {fabric}/{}/{}", plan.label(), policy.label());
                    assert_eq!(m.status, RunStatus::Complete, "{ctx}: run must drain");
                    // (a) Exactly one terminal outcome per request.
                    assert_eq!(
                        m.completed_requests + m.shed_requests,
                        n,
                        "{ctx}: completed + shed must partition the trace"
                    );
                    assert_eq!(
                        m.deadline_met_requests + m.failed_requests,
                        m.completed_requests,
                        "{ctx}: met + failed must partition the completions"
                    );
                    assert!(m.deadline_misses <= m.failed_requests, "{ctx}");
                    // (b) Disarmed mechanisms stay inert; armed retries
                    // respect the per-request cap.
                    let params = policy.params();
                    if params.deadline.is_none() {
                        assert_eq!(m.deadline_misses, 0, "{ctx}: no deadline, no misses");
                    }
                    match params.retry {
                        None => assert_eq!(m.host_retries, 0, "{ctx}: retry disarmed"),
                        Some(r) => assert!(
                            m.host_retries <= u64::from(r.max_retries) * n,
                            "{ctx}: {} retries exceed the cap",
                            m.host_retries
                        ),
                    }
                    if params.admission.is_none() {
                        assert_eq!(m.shed_requests, 0, "{ctx}: admission disarmed");
                    }
                    // Per-tenant breakdowns partition the global counters.
                    assert_eq!(
                        m.tenants.iter().map(|t| t.shed).sum::<u64>(),
                        m.shed_requests,
                        "{ctx}"
                    );
                    assert_eq!(
                        m.tenants.iter().map(|t| t.host_retries).sum::<u64>(),
                        m.host_retries,
                        "{ctx}"
                    );
                    assert_eq!(
                        m.tenants.iter().map(|t| t.deadline_misses).sum::<u64>(),
                        m.deadline_misses,
                        "{ctx}"
                    );
                    // Determinism extends to resilient runs.
                    let again = run_single(&cfg, fabric, &trace);
                    assert_eq!(m, again, "{ctx}: resilient run not deterministic");
                }
            }
            // (c) The None preset is the pre-resilience engine, bit for bit.
            let bare = SsdConfig::performance_optimized().with_fault_plan(plan);
            let off = run_single(&bare, FabricKind::Venice, &trace);
            let none = run_single(
                &bare.clone().with_resilience(ResiliencePolicy::None),
                FabricKind::Venice,
                &trace,
            );
            assert_eq!(off, none, "case {case}: {}: None preset not inert", plan.label());
        }
    }

    // (d) Resilience-axis sweeps are pool-size-stable.
    {
        let grid = SweepGrid::new("resilience-determinism")
            .config(SsdConfig::performance_optimized())
            .workload(WorkloadAxis::congested())
            .knobs([Knob::Fault(FaultPlan::None), Knob::Fault(FaultPlan::Storm)])
            .knobs(ResiliencePolicy::ALL.map(Knob::Resilience))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(150);
        assert_pool_size_stable(&grid, 24); // 2 plans × 6 policies × 2 fabrics
    }
}

/// Die-level parity redundancy is sound on every fabric: under the
/// permanent chip-death plan and randomized traffic, (a) the calendar
/// always drains with the rebuild engine armed and every request reaches
/// a terminal state; (b) parity turns the chip death into zero data-loss
/// requests on every fabric, while the bare run's losses stay a strict
/// subset of its failures; (c) the background rebuild runs to completion
/// — pages recovered, a finite MTTR endpoint after the 20 µs death —
/// deterministically; (d) `RedundancyKind::None` is bit-identical to the
/// pre-redundancy engine; (e) redundancy-axis sweeps are bit-identical
/// across worker-pool sizes, extending the determinism contract to the
/// redundancy axis.
#[test]
fn rebuild_is_sound_on_every_fabric() {
    use venice::interconnect::FabricKind;
    use venice::ssd::{run_single, FaultPlan, RedundancyKind, RunStatus, SsdConfig};

    let mut rng = Xorshift64Star::new(0x4EB1);
    for case in 0..2u64 {
        let read_pct = 60.0 + rng.next_f64() * 40.0;
        let kb = 4.0 + rng.next_f64() * 12.0;
        let us = 1.0 + rng.next_f64() * 6.0;
        let n = 150 + rng.next_bounded(150);
        let trace = WorkloadSpec::new("rebuild-prop", read_pct, kb, us)
            .footprint_mb(32)
            .burst_mean(1.0 + rng.next_f64() * 8.0)
            .generate(n as usize);
        // A 4×4 mesh keeps a meaningful share of the pages on the victim
        // die, so the rebuild and the degraded-read window both matter.
        let bare = SsdConfig::performance_optimized()
            .with_mesh(4, 4)
            .with_fault_plan(FaultPlan::Chip);
        let parity = bare
            .clone()
            .with_redundancy(RedundancyKind::Parity { group: 4 });
        for fabric in FabricKind::ALL {
            let ctx = format!("case {case}: {fabric}");
            let m = run_single(&parity, fabric, &trace);
            assert_eq!(m.status, RunStatus::Complete, "{ctx}: run must drain");
            assert_eq!(
                m.completed_requests, n,
                "{ctx}: every request must reach a terminal state"
            );
            // (b) Parity averts the data loss the bare run suffers.
            assert_eq!(m.data_loss_requests, 0, "{ctx}: parity must avert data loss");
            assert!(
                m.tenants.iter().all(|t| t.data_loss == 0),
                "{ctx}: per-tenant data loss must be zero too"
            );
            // (c) The rebuild ran to completion after the 20 µs death.
            assert!(m.rebuilt_pages > 0, "{ctx}: rebuild must recover pages");
            assert!(m.rebuild_done_ns > 20_000, "{ctx}: MTTR endpoint recorded");
            let again = run_single(&parity, fabric, &trace);
            assert_eq!(m, again, "{ctx}: rebuilt run not deterministic");
            let lost = run_single(&bare, fabric, &trace);
            assert_eq!(lost.status, RunStatus::Complete, "{ctx}: bare run must drain");
            assert!(
                lost.data_loss_requests <= lost.failed_requests,
                "{ctx}: data loss must stay a subset of failures"
            );
            assert_eq!(lost.rebuilt_pages, 0, "{ctx}: no redundancy, no rebuild");
            assert_eq!(lost.rebuild_done_ns, 0, "{ctx}");
            // (d) The None scheme is the pre-redundancy engine, bit for bit.
            let none = run_single(
                &bare.clone().with_redundancy(RedundancyKind::None),
                fabric,
                &trace,
            );
            assert_eq!(lost, none, "{ctx}: None scheme not inert");
        }
    }

    // (e) Redundancy-axis sweeps are pool-size-stable.
    {
        let grid = SweepGrid::new("rebuild-determinism")
            .config(SsdConfig::performance_optimized().with_mesh(4, 4))
            .workload(WorkloadAxis::congested())
            .knobs([Knob::Fault(FaultPlan::Chip)])
            .knobs(RedundancyKind::ALL.map(Knob::Redundancy))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(150);
        assert_pool_size_stable(&grid, 4); // 2 schemes × 2 fabrics
    }
}

/// Page-address packing over arbitrary geometry is a bijection.
#[test]
fn gppa_roundtrip() {
    let mut rng = Xorshift64Star::new(0x6EA);
    for case in 0..300 {
        let chip = ChipGeometry {
            dies: 1 + rng.next_bounded(2) as u32,
            planes_per_die: 1 + rng.next_bounded(2) as u32,
            blocks_per_plane: 1 + rng.next_bounded(15) as u32,
            pages_per_block: 1 + rng.next_bounded(31) as u32,
            page_size: 4096,
        };
        let chips = 1 + rng.next_bounded(15) as u16;
        let array = ArrayGeometry::new(chips, chip);
        let idx = rng.next_u64() % array.total_pages();
        let addr = array.unpack(venice::ftl::Gppa(idx));
        assert_eq!(array.pack(addr), venice::ftl::Gppa(idx), "case {case}");
    }
}
