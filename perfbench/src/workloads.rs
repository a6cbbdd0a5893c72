//! The benchmark's four workloads: which traces they generate from the
//! seed, and which (fabric, config) points run on each trace.

use venice_interconnect::{FabricKind, ScoutCacheKind};
use venice_ssd::{FaultPlan, RedundancyKind, ResiliencePolicy, SsdConfig, TenantSet};
use venice_workloads::{catalog, Trace, TraceEvent, WorkloadAxis, WorkloadSpec};

/// Seed used when none is given, and the one to develop a change against.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept back for confirming a claim: never run it while writing a change.
pub const HELD_OUT_SEED: u64 = 7777;

/// Sub-seeds per seed. Pass `k` of a run uses sub-seed `k mod SUBSEEDS`,
/// so one run spans several traces of each workload: a single trace's host
/// cost and tail latency swing with its burst lengths far more than the
/// median or mean of several do.
pub const SUBSEEDS: u64 = 4;

/// The trace seed of sub-seed `sub` of benchmark seed `seed`: `seed × 4 +
/// sub`, so seed 0's sub-seed 0 is the library's own trace.
pub fn trace_seed(seed: u64, sub: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(sub)
}

/// Watchdog ceiling: a runaway point ends as `Aborted` (a failed point)
/// instead of hanging the benchmark. Far above any point's event count.
const MAX_EVENTS: u64 = 200_000_000;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_mix",
    "congested_bigmesh",
    "write_gc",
    "degraded_tenants",
];

/// Where a trace comes from.
#[derive(Clone, Debug)]
enum Source {
    /// A public `WorkloadSpec`, reseeded from the trace seed.
    Spec(WorkloadSpec),
    /// The three-tenant noisy-neighbor scenario (see [`trio`]).
    Trio,
}

/// One trace of a workload, at a fixed request count.
#[derive(Clone, Debug)]
pub struct TraceDef {
    source: Source,
    requests: usize,
}

impl TraceDef {
    /// The trace's name (the point-label prefix).
    pub fn name(&self) -> &str {
        match &self.source {
            Source::Spec(spec) => &spec.name,
            Source::Trio => "noisy-neighbor-trio",
        }
    }

    /// Generates the trace for trace seed `seed` (see [`trace_seed`]).
    pub fn generate(&self, seed: u64) -> Trace {
        match &self.source {
            Source::Spec(spec) => reseed(spec, seed).generate(self.requests),
            Source::Trio => trio(self.requests / 3, seed),
        }
    }
}

/// One point: a trace run on one fabric with one scout-cache mode.
#[derive(Clone, Debug)]
pub struct Point {
    /// Index into [`Workload::traces`].
    pub trace: usize,
    /// The fabric under test.
    pub kind: FabricKind,
    /// Scout fast-fail cache mode (only Venice consults it).
    pub cache: ScoutCacheKind,
}

impl Point {
    /// Metric key of the point's fabric: the lowercased label, with
    /// `_cache` appended for Venice with the scout cache on.
    pub fn fabric_key(&self) -> String {
        let mut key = self.kind.label().to_ascii_lowercase();
        if self.cache != ScoutCacheKind::Off {
            key.push_str("_cache");
        }
        key
    }

    /// Venice with the scout cache off: the points `venice_*` metrics use.
    pub fn is_venice(&self) -> bool {
        self.kind == FabricKind::Venice && self.cache == ScoutCacheKind::Off
    }
}

/// A named workload: its configuration, traces and points.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Configuration before per-point cache mode and footprint sizing.
    pub config: SsdConfig,
    /// Traces, generated once per pass.
    pub traces: Vec<TraceDef>,
    /// Points, grouped by trace.
    pub points: Vec<Point>,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = SsdConfig::performance_optimized().with_watchdog(Some(MAX_EVENTS), None);
        let off = ScoutCacheKind::Off;
        let (config, traces, fabrics): (_, Vec<TraceDef>, Vec<(FabricKind, ScoutCacheKind)>) =
            match name {
                // The paper's own traffic on all six fabrics at 8×8.
                "paper_mix" => (
                    base,
                    ["hm_0", "proj_3", "YCSB_B", "src1_0"]
                        .iter()
                        .map(|n| spec_trace(catalog::by_name(n).expect("Table 2 name"), 2_000))
                        .collect(),
                    FabricKind::ALL.iter().map(|&k| (k, off)).collect(),
                ),
                // Scout-bound: the 32×32 mesh under near-saturating bursts.
                "congested_bigmesh" => {
                    let WorkloadAxis::Spec(spec) = WorkloadAxis::congested() else {
                        unreachable!("the congested axis is a custom spec")
                    };
                    (
                        base.with_mesh(32, 32),
                        vec![spec_trace(spec, 500)],
                        vec![
                            (FabricKind::Baseline, off),
                            (FabricKind::NoSsd, off),
                            (FabricKind::Venice, off),
                            (FabricKind::Venice, ScoutCacheKind::On),
                        ],
                    )
                }
                // Sustained writes past the over-provisioning: GC-bound.
                "write_gc" => (
                    base,
                    vec![spec_trace(
                        WorkloadSpec::new("write_gc", 5.0, 32.0, 16.0).footprint_mb(768),
                        6_000,
                    )],
                    vec![
                        (FabricKind::Baseline, off),
                        (FabricKind::Venice, off),
                        (FabricKind::Ideal, off),
                    ],
                ),
                // Every armed subsystem: tenants, faults, resilience, RAIN.
                "degraded_tenants" => (
                    base.with_tenants(TenantSet::trio_weighted())
                        .with_fault_plan(FaultPlan::ChipAndLink)
                        .with_resilience(ResiliencePolicy::Full)
                        .with_redundancy(RedundancyKind::Parity { group: 4 }),
                    vec![TraceDef {
                        source: Source::Trio,
                        requests: 48_000,
                    }],
                    vec![
                        (FabricKind::Baseline, off),
                        (FabricKind::PnSsd, off),
                        (FabricKind::Venice, off),
                    ],
                ),
                _ => return None,
            };
        let points = (0..traces.len())
            .flat_map(|trace| {
                fabrics
                    .iter()
                    .map(move |&(kind, cache)| Point { trace, kind, cache })
            })
            .collect();
        Some(Workload {
            name: NAMES.iter().find(|&&n| n == name).expect("listed name"),
            config,
            traces,
            points,
        })
    }

    /// The point's configuration, sized for its trace's footprint.
    pub fn point_config(&self, point: &Point, trace: &Trace) -> SsdConfig {
        self.config
            .clone()
            .with_scout_cache(point.cache)
            .sized_for_footprint(trace.footprint_bytes())
    }

    /// `<trace>#<sub-seed>/<fabric>` label of a point.
    pub fn label(&self, point: &Point, sub: u64) -> String {
        let mut label = format!(
            "{}#{sub}/{}",
            self.traces[point.trace].name(),
            point.kind.label()
        );
        if point.cache != ScoutCacheKind::Off {
            label.push_str("+cache");
        }
        label
    }
}

fn spec_trace(spec: WorkloadSpec, requests: usize) -> TraceDef {
    TraceDef {
        source: Source::Spec(spec),
        requests,
    }
}

/// The spec's own seed moved by the trace seed; trace seed 0 keeps the
/// library's trace, the one the figure binaries use.
fn reseed(spec: &WorkloadSpec, seed: u64) -> WorkloadSpec {
    let moved = spec
        .seed
        .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    spec.clone().seed(moved)
}

/// `venice_workloads::mix::noisy_neighbor_trio`, reseedable.
///
/// The library keeps the trio's stream specs private, so this carries a
/// copy of them and of its merge; at seed 0 the result is byte-identical to
/// the library's trace (pinned by a unit test). The fault plan's
/// injection script and the resilience policy's retry jitter
/// (`RETRY_JITTER_SEED`) take no seed at all, so they stay fixed.
fn trio(requests_per_stream: usize, seed: u64) -> Trace {
    let streams = [
        WorkloadSpec::new("victim-reads", 100.0, 4.0, 20.0)
            .footprint_mb(64)
            .burst_mean(1.0)
            .seq_fraction(0.05),
        WorkloadSpec::new("victim-mixed", 70.0, 8.0, 40.0)
            .footprint_mb(96)
            .burst_mean(4.0)
            .seq_fraction(0.2),
        WorkloadSpec::new("aggressor-writes", 0.0, 32.0, 30.0)
            .footprint_mb(192)
            .burst_mean(96.0)
            .intra_burst_gap_us(0.1)
            .zipf_theta(1.05)
            .seq_fraction(0.3),
    ]
    .map(|spec| reseed(&spec, seed).generate(requests_per_stream));
    // Disjoint partitions, then a stable merge by arrival time.
    let mut merged: Vec<(TraceEvent, u8)> = Vec::new();
    let mut base = 0;
    for (tenant, trace) in streams.iter().enumerate() {
        merged.extend(trace.events().iter().map(|e| {
            let event = TraceEvent {
                offset: base + e.offset,
                ..*e
            };
            (event, tenant as u8)
        }));
        base += trace.footprint_bytes();
    }
    merged.sort_by_key(|(e, _)| e.arrival);
    let (events, tenants) = merged.into_iter().unzip();
    Trace::with_tenants("noisy-neighbor-trio", base, events, tenants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_workloads::mix;

    #[test]
    fn trio_at_seed_zero_is_the_library_trio() {
        let ours = trio(300, 0);
        let lib = mix::noisy_neighbor_trio(300);
        assert_eq!(ours.events(), lib.events());
        assert_eq!(ours.footprint_bytes(), lib.footprint_bytes());
        for i in 0..ours.len() {
            assert_eq!(ours.tenant_of(i), lib.tenant_of(i));
        }
        assert_ne!(trio(300, 1).events(), lib.events());
    }

    #[test]
    fn seed_zero_keeps_catalog_traces_and_other_seeds_move_them() {
        let hm = catalog::by_name("hm_0").unwrap();
        let def = spec_trace(hm.clone(), 200);
        assert_eq!(def.generate(0).events(), hm.generate(200).events());
        assert_ne!(def.generate(1).events(), def.generate(0).events());
        assert_eq!(def.generate(5).events(), def.generate(5).events());
    }

    #[test]
    fn every_listed_workload_resolves() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            assert!(!w.points.is_empty());
            assert!(w.points.iter().any(Point::is_venice));
            assert!(w.points.iter().any(|p| p.kind == FabricKind::Baseline));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
