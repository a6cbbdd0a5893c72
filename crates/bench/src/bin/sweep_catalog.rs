//! Design-space sweep CLI: expand a named grid, run it on the shared
//! worker pool, print a per-point table, and write a reproducible artifact
//! under `results/sweep_<grid>/`.
//!
//! ```sh
//! cargo run --release -p venice-bench --bin sweep_catalog -- --grid mini
//! cargo run --release -p venice-bench --bin sweep_catalog -- --grid shapes --requests 1000
//! cargo run --release -p venice-bench --bin sweep_catalog -- --list
//! ```
//!
//! Grids: `mini` (3 workloads × Baseline/Venice smoke test, 200 requests
//! unless overridden), `table2` (the whole catalog × all six systems),
//! `mixes` (Table 3), `shapes` (4×16 / 8×8 / 16×4 reshapes plus the 16×16 /
//! 32×32 big meshes), `nand` (z-nand vs tlc-3d timing axis), `qd`
//! (queue-depth axis), `design` (shape × timing × queue-depth cross on a
//! workload subset), `policy` (dispatch-policy ablation on the congested
//! bursty workload plus two catalog entries), `bigmesh` (8×8 / 16×16 /
//! 32×32 meshes × retry-all/auto policies on congestion-heavy traffic —
//! the incremental ready-set dispatcher is what makes these cheap enough
//! to sweep), `scoutcache` (the scout fast-fail cache ablation: cache-off
//! vs cache-on Venice on congested 16×16/32×32 meshes; diff the two
//! halves with the `sweep_diff` bin), `faults` (the degraded-mode
//! ablation: every fault plan × the five real fabrics on congestion-heavy
//! traffic; also distills `results/fault_ablation.json` comparing Venice
//! against the bus fabrics under a single link failure), `tenants` (the
//! multi-tenant QoS ablation: the victim-solo / noisy-neighbor scenario
//! pair × every tenant-set preset × the bus fabrics and Venice; also
//! distills `results/tenant_isolation.json` comparing each fabric's
//! victim-tenant p99 degradation under the aggressor burst), `resilience`
//! (the host-resilience ablation: congestion-heavy traffic × fault-free,
//! permanent-link, and fault-storm plans × every resilience preset ×
//! single vs deadline-split tenant sets × the five real fabrics; also
//! distills `results/resilience_ablation.json` comparing Venice against
//! the bus fabrics' goodput under the link fault with the full resilience
//! layer armed), `rebuild` (the RAIN redundancy ablation: congestion-heavy
//! traffic × the permanent chip-death plan × no-redundancy vs die-level
//! parity × the five real fabrics; also distills
//! `results/rebuild_ablation.json` comparing data loss, degraded-read
//! service, and rebuild MTTR across fabrics).
//!
//! Sweeps are *resumable*: when `results/sweep_<grid>/` already holds a
//! `grid.json` stamp of this exact grid, points whose record file parses
//! and did not fail are reused instead of re-simulated; `--fresh` forces a
//! full re-run.
//!
//! Flags: `--grid <name>`, `--requests <n>` (default: `VENICE_REQUESTS`,
//! except `mini`/`policy`/`bigmesh`/`scoutcache`/`faults`/`tenants`/
//! `resilience`/`rebuild`, which have their own defaults), `--par <n>`
//! (dedicated pool size; default: the shared pool),
//! `--systems a,b,c` (override the fabric axis by label, e.g.
//! `Baseline,Venice`), `--scout-cache <off|on|checked>` (override the
//! scout fast-fail-cache axis), `--fresh`, `--list`. A bad argument
//! prints the error and a usage line and exits 2.

use venice_bench::sweep::{Knob, SweepGrid, SweepOutcome, WorkerPool};
use venice_bench::{flag_value, report_sweep};
use venice_interconnect::FabricKind;
use venice_nand::NandTiming;
use venice_ssd::report::Json;
use venice_ssd::{
    DispatchPolicyKind, FaultPlan, RedundancyKind, ResiliencePolicy, ScoutCacheKind, SsdConfig,
    TenantSet,
};
use venice_workloads::WorkloadAxis;

/// The read-intensity-diverse workload subset used by the multi-axis grids
/// (running the full catalog across a cross of axes would be hours, not a
/// smoke-able sweep).
const SUBSET: [&str; 5] = ["hm_0", "proj_3", "src1_0", "YCSB_B", "ssd-10"];

fn subset_axes() -> Vec<WorkloadAxis> {
    SUBSET
        .iter()
        .map(|n| WorkloadAxis::catalog(n).expect("subset workload in catalog"))
        .collect()
}

/// Builds a named grid; `None` for an unknown name. `requests` of `None`
/// means "the grid's own default".
fn named_grid(name: &str, requests: Option<usize>) -> Option<SweepGrid> {
    let grid = match name {
        "mini" => SweepGrid::new("mini")
            .workload(WorkloadAxis::catalog("hm_0").expect("catalog"))
            .workload(WorkloadAxis::catalog("proj_3").expect("catalog"))
            .workload(WorkloadAxis::catalog("YCSB_B").expect("catalog"))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(requests.unwrap_or(200)),
        "table2" => SweepGrid::new("table2")
            .workloads(WorkloadAxis::table2())
            .fabrics(&FabricKind::ALL),
        "mixes" => SweepGrid::new("mixes")
            .workloads(WorkloadAxis::table3())
            .fabrics(&FabricKind::ALL),
        "shapes" => SweepGrid::new("shapes")
            .workloads(subset_axes())
            .knobs([
                Knob::Shape(4, 16),
                Knob::Shape(8, 8),
                Knob::Shape(16, 4),
                Knob::Shape(16, 16),
                Knob::Shape(32, 32),
            ])
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::NoSsd,
                FabricKind::Venice,
                FabricKind::Ideal,
            ]),
        "nand" => SweepGrid::new("nand")
            .workloads(subset_axes())
            .knobs([NandTiming::z_nand(), NandTiming::tlc_3d()].map(Knob::Timing))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice, FabricKind::Ideal]),
        "qd" => SweepGrid::new("qd")
            .workloads(subset_axes())
            .knobs([2, 8, 32].map(Knob::QueueDepth))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice]),
        "design" => SweepGrid::new("design")
            .workloads(subset_axes())
            .knobs([Knob::Shape(4, 16), Knob::Shape(8, 8), Knob::Shape(16, 4)])
            .knobs([NandTiming::z_nand(), NandTiming::tlc_3d()].map(Knob::Timing))
            .knobs([4, 16].map(Knob::QueueDepth))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice]),
        "policy" => SweepGrid::new("policy")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .workload(WorkloadAxis::catalog("YCSB_B").expect("catalog"))
            .knobs(DispatchPolicyKind::ALL.map(Knob::Policy))
            .fabrics(&[FabricKind::Baseline, FabricKind::Venice])
            .requests(requests.unwrap_or(800)),
        "bigmesh" => SweepGrid::new("bigmesh")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .knobs([Knob::Shape(8, 8), Knob::Shape(16, 16), Knob::Shape(32, 32)])
            .knobs([DispatchPolicyKind::RetryAll, DispatchPolicyKind::Auto].map(Knob::Policy))
            .fabrics(&[FabricKind::Baseline, FabricKind::NoSsd, FabricKind::Venice])
            .requests(requests.unwrap_or(400)),
        "faults" => SweepGrid::new("faults")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .knobs(FaultPlan::ALL.map(Knob::Fault))
            .fabrics(&FabricKind::ALL[..5])
            .requests(requests.unwrap_or(400)),
        "tenants" => SweepGrid::new("tenants")
            .workload(WorkloadAxis::victim_solo())
            .workload(WorkloadAxis::noisy_neighbor())
            .workload(WorkloadAxis::noisy_neighbor_trio())
            .knobs([Knob::QueueDepth(32)])
            .knobs(TenantSet::presets().into_iter().map(Knob::Tenants))
            .fabrics(&[
                FabricKind::Baseline,
                FabricKind::Pssd,
                FabricKind::PnSsd,
                FabricKind::Venice,
            ])
            .requests(requests.unwrap_or(600)),
        "resilience" => SweepGrid::new("resilience")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .knobs([FaultPlan::None, FaultPlan::Link, FaultPlan::Storm].map(Knob::Fault))
            .knobs([TenantSet::single(), TenantSet::deadline_split()].map(Knob::Tenants))
            .knobs(ResiliencePolicy::ALL.map(Knob::Resilience))
            .fabrics(&FabricKind::ALL[..5])
            .requests(requests.unwrap_or(800)),
        "rebuild" => SweepGrid::new("rebuild")
            .workload(WorkloadAxis::congested())
            .knobs([FaultPlan::Chip, FaultPlan::ChipAndLink].map(Knob::Fault))
            .knobs([Knob::Resilience(ResiliencePolicy::DeadlineRetry)])
            .knobs(RedundancyKind::ALL.map(Knob::Redundancy))
            .fabrics(&FabricKind::ALL[..5])
            .requests(requests.unwrap_or(800)),
        "scoutcache" => SweepGrid::new("scoutcache")
            .workload(WorkloadAxis::congested())
            .workload(WorkloadAxis::catalog("src2_1").expect("catalog"))
            .knobs([Knob::Shape(16, 16), Knob::Shape(32, 32)])
            .knobs([DispatchPolicyKind::RetryAll, DispatchPolicyKind::Auto].map(Knob::Policy))
            .knobs([ScoutCacheKind::Off, ScoutCacheKind::On].map(Knob::ScoutCache))
            .fabrics(&[FabricKind::Venice])
            .requests(requests.unwrap_or(400)),
        _ => return None,
    };
    // Re-applying a budget is idempotent, so this only matters for the
    // grids without their own default.
    let grid = grid.config(SsdConfig::performance_optimized());
    Some(match requests {
        Some(r) => grid.requests(r),
        None => grid,
    })
}

const GRID_NAMES: [&str; 14] = [
    "mini", "table2", "mixes", "shapes", "nand", "qd", "design", "policy", "bigmesh",
    "scoutcache", "faults", "tenants", "resilience", "rebuild",
];

/// The number at `path` in a point record (`0` when absent).
fn field(doc: &Json, path: &str) -> f64 {
    doc.get(path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The value at `path` in a point record, copied as the record wrote it
/// (`null` when absent).
fn copy(doc: &Json, path: &str) -> Json {
    doc.get(path).cloned().unwrap_or(Json::Null)
}

/// The value at `key` in tenant `name`'s entry of a point record's
/// `tenants` array.
fn tenant_field<'a>(doc: &'a Json, name: &str, key: &str) -> Option<&'a Json> {
    doc.get("tenants")?
        .as_array()?
        .iter()
        .find(|t| t.get("name").and_then(Json::as_str) == Some(name))?
        .get(key)
}

/// Per-(fault plan, fabric) availability accumulator cell.
type AvailabilityCell<'a> = ((&'a str, &'a str), (f64, u32));

/// Distills the `faults` grid into `results/fault_ablation.json`: one
/// entry per point plus per-(plan × fabric) mean availability, with a
/// headline comparing Venice against the bus fabrics under the single-link
/// plan (the bus loses a whole row to one dead link; the mesh reroutes).
fn fault_ablation(outcome: &SweepOutcome) -> Json {
    let mut points = Vec::new();
    // (plan label, fabric label) -> (availability sum, points)
    let mut agg: Vec<AvailabilityCell> = Vec::new();
    for (p, doc) in outcome.documents() {
        let avail = field(&doc, "faults.availability");
        points.push(
            Json::object()
                .with("label", p.label.as_str())
                .with("workload", p.workload.as_str())
                .with("fabric", p.fabric.label())
                .with("fault_plan", p.config.fault_plan.label())
                .with("completed_requests", copy(&doc, "completed_requests"))
                .with("failed_requests", copy(&doc, "faults.failed_requests"))
                .with("availability", copy(&doc, "faults.availability")),
        );
        let key = (p.config.fault_plan.label(), p.fabric.label());
        match agg.iter_mut().find(|(k, _)| *k == key) {
            Some((_, (sum, n))) => {
                *sum += avail;
                *n += 1;
            }
            None => agg.push((key, (avail, 1))),
        }
    }
    let mean = |plan: &str, fabric: &str| {
        agg.iter()
            .find(|((pl, fb), _)| *pl == plan && *fb == fabric)
            .map(|(_, (sum, n))| sum / f64::from(*n))
    };
    let by_plan = agg.iter().map(|((plan, fabric), (sum, n))| {
        Json::object()
            .with("fault_plan", *plan)
            .with("fabric", *fabric)
            .with("mean_availability", sum / f64::from(*n))
    });
    // Two-tier headline. A single dead link strands a whole row on the
    // row-bus designs (Baseline, pSSD) while the mesh reroutes; pnSSD's
    // row+column redundancy genuinely survives one bus outage, so the
    // all-bus comparison uses the crossing row+column pair (`link-cross`),
    // where only the mesh fabrics still have path diversity left.
    let venice_link = mean("link", "Venice").unwrap_or(0.0);
    let best_row_bus = ["Baseline", "pSSD"]
        .iter()
        .filter_map(|b| mean("link", b))
        .fold(0.0f64, f64::max);
    let venice_cross = mean("link-cross", "Venice").unwrap_or(0.0);
    let best_bus_cross = ["Baseline", "pSSD", "pnSSD"]
        .iter()
        .filter_map(|b| mean("link-cross", b))
        .fold(0.0f64, f64::max);
    let sustains = venice_link > best_row_bus && venice_cross > best_bus_cross;
    let single_link = Json::object()
        .with("fault_plan", "link")
        .with("venice_availability", venice_link)
        .with("best_row_bus_availability", best_row_bus);
    let crossing_links = Json::object()
        .with("fault_plan", "link-cross")
        .with("venice_availability", venice_cross)
        .with("best_bus_availability", best_bus_cross);
    Json::object()
        .with("name", "fault_ablation")
        .with("grid", "faults")
        .with(
            "headline",
            Json::object()
                .with("venice_sustains_higher", sustains)
                .with("single_link", single_link)
                .with("crossing_links", crossing_links),
        )
        .with("availability_by_plan", Json::Array(by_plan.collect()))
        .with("points", Json::Array(points))
}

/// Distills the `tenants` grid into `results/tenant_isolation.json`.
///
/// For each fabric, the victim tenant's p99 under the aggressor burst
/// (the `noisy-neighbor` workload) is compared against the same stream
/// running alone (`victim-solo` × the `single` tenant set): the ratio is
/// the fabric's *victim degradation*. The headline
/// `venice_protects_victim` asserts Venice's degradation under the
/// fair-share tenant set is strictly lower than every bus design's — path
/// diversity, not just queue arbitration, is what isolates the victim.
fn tenant_isolation(outcome: &SweepOutcome) -> Json {
    let mut points = Vec::new();
    // (workload, tenant set, fabric) -> victim p99 ns
    let mut victim_p99: Vec<((&str, &str, &str), f64)> = Vec::new();
    for (p, doc) in outcome.documents() {
        // Single-tenant points carry one pooled "all" tenant; the victim
        // stream is tenant "victim" on the multi-tenant sets.
        let victim = tenant_field(&doc, "victim", "p99_ns")
            .or_else(|| tenant_field(&doc, "all", "p99_ns"))
            .cloned()
            .unwrap_or_else(|| 0u64.into());
        let key = (p.workload.as_str(), p.config.tenants.label(), p.fabric.label());
        victim_p99.push((key, victim.as_f64().unwrap_or(0.0)));
        let aggressor = tenant_field(&doc, "aggressor", "p99_ns");
        points.push(
            Json::object()
                .with("label", p.label.as_str())
                .with("workload", p.workload.as_str())
                .with("tenants", p.config.tenants.label())
                .with("fabric", p.fabric.label())
                .with("victim_p99_ns", victim)
                .with("aggressor_p99_ns", aggressor.cloned().unwrap_or(Json::Null))
                .with("fairness_index", copy(&doc, "fairness_index")),
        );
    }
    let lookup = |workload: &str, tenants: &str, fabric: &str| {
        victim_p99
            .iter()
            .find(|((w, t, f), _)| *w == workload && *t == tenants && *f == fabric)
            .map(|(_, v)| *v)
            .filter(|v| *v > 0.0)
    };
    // Victim p99 degradation per fabric: shared run over solo run.
    let degradation = |fabric: &str, set: &str| {
        let solo = lookup("victim-solo", "single", fabric)?;
        let shared = lookup("noisy-neighbor", set, fabric)?;
        Some(shared / solo)
    };
    let buses = ["Baseline", "pSSD", "pnSSD"];
    let by_fabric = ["Baseline", "pSSD", "pnSSD", "Venice"].map(|fabric| {
        Json::object()
            .with("fabric", fabric)
            .with("pair_fair", degradation(fabric, "pair-fair").unwrap_or(0.0))
            .with(
                "victim_boost",
                degradation(fabric, "victim-boost").unwrap_or(0.0),
            )
    });
    let venice = degradation("Venice", "pair-fair").unwrap_or(f64::MAX);
    let worst_bus = buses
        .iter()
        .filter_map(|b| degradation(b, "pair-fair"))
        .fold(0.0f64, f64::max);
    let best_bus = buses
        .iter()
        .filter_map(|b| degradation(b, "pair-fair"))
        .fold(f64::MAX, f64::min);
    let protects = venice < best_bus;
    Json::object()
        .with("name", "tenant_isolation")
        .with("grid", "tenants")
        .with(
            "headline",
            Json::object()
                .with("venice_protects_victim", protects)
                .with("venice_victim_p99_degradation", venice)
                .with("best_bus_victim_p99_degradation", best_bus)
                .with("worst_bus_victim_p99_degradation", worst_bus),
        )
        .with(
            "victim_p99_degradation_by_fabric",
            Json::Array(by_fabric.into()),
        )
        .with("points", Json::Array(points))
}

/// Per-(fault plan, resilience policy, tenant set, fabric) goodput
/// accumulator cell.
type GoodputCell<'a> = ((&'a str, &'a str, &'a str, &'a str), (f64, u32));

/// Distills the `resilience` grid into `results/resilience_ablation.json`:
/// one entry per point plus per-(plan × policy × fabric) mean goodput
/// (deadline-met completions per second), with a headline comparing
/// Venice against the bus fabrics under the permanent link fault with the
/// full resilience layer armed. Venice keeps more requests inside their
/// deadlines when faults and overload hit together — path diversity turns
/// the host layer's aborts and retries into recovered goodput instead of
/// repeated misses against a dead row.
fn resilience_ablation(outcome: &SweepOutcome) -> Json {
    let mut points = Vec::new();
    let mut agg: Vec<GoodputCell> = Vec::new();
    for (p, doc) in outcome.documents() {
        let goodput = field(&doc, "resilience.goodput");
        // On deadline-split points, the per-class miss counts show the
        // latency class absorbing the policy's pressure while the batch
        // class (relaxed deadline) and the unarmed class stay clean.
        let class_misses = |class| {
            tenant_field(&doc, class, "deadline_misses")
                .cloned()
                .unwrap_or_else(|| 0u64.into())
        };
        points.push(
            Json::object()
                .with("label", p.label.as_str())
                .with("workload", p.workload.as_str())
                .with("fabric", p.fabric.label())
                .with("fault_plan", p.config.fault_plan.label())
                .with("resilience", p.config.resilience.label())
                .with("tenants", p.config.tenants.label())
                .with("completed_requests", copy(&doc, "completed_requests"))
                .with("deadline_met", copy(&doc, "resilience.deadline_met"))
                .with("deadline_misses", copy(&doc, "resilience.deadline_misses"))
                .with("latency_class_misses", class_misses("victim"))
                .with("batch_class_misses", class_misses("batch"))
                .with("host_retries", copy(&doc, "resilience.host_retries"))
                .with("shed_requests", copy(&doc, "resilience.shed_requests"))
                .with("goodput", copy(&doc, "resilience.goodput")),
        );
        let key = (
            p.config.fault_plan.label(),
            p.config.resilience.label(),
            p.config.tenants.label(),
            p.fabric.label(),
        );
        match agg.iter_mut().find(|(k, _)| *k == key) {
            Some((_, (sum, n))) => {
                *sum += goodput;
                *n += 1;
            }
            None => agg.push((key, (goodput, 1))),
        }
    }
    // Headline means are scoped to the single-tenant rows so adding the
    // deadline-split axis can never shift the fabric comparison.
    let mean = |plan: &str, policy: &str, fabric: &str| {
        agg.iter()
            .find(|((pl, po, tn, fb), _)| {
                *pl == plan && *po == policy && *tn == "single" && *fb == fabric
            })
            .map(|(_, (sum, n))| sum / f64::from(*n))
    };
    let by_policy = agg
        .iter()
        .map(|((plan, policy, tenants, fabric), (sum, n))| {
            Json::object()
                .with("fault_plan", *plan)
                .with("resilience", *policy)
                .with("tenants", *tenants)
                .with("fabric", *fabric)
                .with("mean_goodput", sum / f64::from(*n))
        });
    // Headline: the permanent link fault with the whole host layer armed.
    // The bus fabrics lose a whole row to the dead link, so a slice of
    // every tenant's requests burns through its retry budget and goes
    // terminal while the survivors' tails push past the deadline; Venice
    // reroutes around the fault and keeps completions inside their
    // deadlines. (The storm plan's outages are short-lived repairs that
    // every fabric rides out, so it differentiates policies, not fabrics —
    // its cells are in `goodput_by_policy` but not the headline.)
    let venice = mean("link", "full", "Venice").unwrap_or(0.0);
    let best_bus = ["Baseline", "pSSD", "pnSSD"]
        .iter()
        .filter_map(|b| mean("link", "full", b))
        .fold(0.0f64, f64::max);
    let highest = venice > best_bus;
    Json::object()
        .with("name", "resilience_ablation")
        .with("grid", "resilience")
        .with(
            "headline",
            Json::object()
                .with("venice_highest_goodput", highest)
                .with("fault_plan", "link")
                .with("resilience", "full")
                .with("venice_goodput", venice)
                .with("best_bus_goodput", best_bus),
        )
        .with("goodput_by_policy", Json::Array(by_policy.collect()))
        .with("points", Json::Array(points))
}

/// Simulated nanosecond at which [`FaultPlan::Chip`] kills its die — the
/// MTTR clock's start (`rebuild_done_ns - CHIP_DEATH_NS`).
const CHIP_DEATH_NS: f64 = 20_000.0;

/// One parity cell of the rebuild grid: the numbers the headline booleans
/// compare per `(fault plan, fabric)` coordinate.
struct RebuildCell {
    fault: &'static str,
    redundancy: String,
    fabric: &'static str,
    data_loss: u64,
    goodput: f64,
    mttr_ns: f64,
    rebuilt: u64,
    skipped: u64,
}

impl RebuildCell {
    /// A recovery is complete only when every dead-chip page was actually
    /// reconstructed: the engine drained (`mttr_ns > 0`), rebuilt
    /// something, and skipped nothing. A bus fabric whose severed row
    /// hides the survivors drains *fast* but skips every page — that is a
    /// failed recovery, not a low MTTR.
    fn recovered(&self) -> bool {
        self.mttr_ns > 0.0 && self.rebuilt > 0 && self.skipped == 0
    }
}

/// Distills the `rebuild` grid into `results/rebuild_ablation.json`: one
/// entry per point plus a headline with three claims. (1) Die-level
/// parity turns the permanent chip death from silent data loss into
/// degraded-but-correct service: every parity point on every fabric and
/// fault plan has zero data-loss requests
/// ([`venice_ssd::RunMetrics::data_loss_requests`]).
/// (2, 3) On the `chip-link` plan — the chip death landing on an
/// already-degraded fabric: the severed row link plus the crossing column
/// cut through the east-neighbor survivor — Venice sustains the highest
/// foreground goodput (successful completions only) AND the lowest
/// rebuild MTTR of the bus designs, *completing* the recovery: Baseline
/// and pSSD cannot reach the survivors behind the severed row bus, and
/// even pnSSD's row+column redundancy loses the east-neighbor survivor,
/// so strict parity forces their rebuilds to skip pages (an incomplete
/// recovery never wins the MTTR comparison, however fast it drained).
/// NoSSD, the other mesh, is excluded from the booleans (its points still
/// land in the artifact), mirroring the bus-only precedent of the fault,
/// tenant-isolation, and resilience ablation headlines.
fn rebuild_ablation(outcome: &SweepOutcome) -> Json {
    let mut points = Vec::new();
    let mut cells: Vec<RebuildCell> = Vec::new();
    for (p, doc) in outcome.documents() {
        let data_loss = field(&doc, "redundancy.data_loss_requests") as u64;
        let rebuilt = field(&doc, "redundancy.rebuilt_pages") as u64;
        let skipped = field(&doc, "redundancy.rebuild_skipped_pages") as u64;
        let done_ns = field(&doc, "redundancy.rebuild_done_ns");
        let completed = field(&doc, "completed_requests");
        let failed = field(&doc, "faults.failed_requests");
        let exec_ns = field(&doc, "execution_time_ns");
        // Successful completions only: a fabric that fast-fails the
        // severed row's requests must not "win" goodput on error
        // completions it never actually served.
        let goodput = if exec_ns > 0.0 {
            (completed - failed).max(0.0) / (exec_ns / 1e9)
        } else {
            0.0
        };
        let mttr_ns = if done_ns > CHIP_DEATH_NS {
            done_ns - CHIP_DEATH_NS
        } else {
            0.0
        };
        points.push(
            Json::object()
                .with("label", p.label.as_str())
                .with("workload", p.workload.as_str())
                .with("fault", p.config.fault_plan.label())
                .with("fabric", p.fabric.label())
                .with("redundancy", p.config.redundancy.label())
                .with("completed_requests", copy(&doc, "completed_requests"))
                .with(
                    "data_loss_requests",
                    copy(&doc, "redundancy.data_loss_requests"),
                )
                .with("degraded_reads", copy(&doc, "redundancy.degraded_reads"))
                .with("rebuilt_pages", copy(&doc, "redundancy.rebuilt_pages"))
                .with(
                    "rebuild_skipped_pages",
                    copy(&doc, "redundancy.rebuild_skipped_pages"),
                )
                .with("rebuild_mttr_ns", mttr_ns)
                .with("foreground_goodput", goodput),
        );
        cells.push(RebuildCell {
            fault: p.config.fault_plan.label(),
            redundancy: p.config.redundancy.label(),
            fabric: p.fabric.label(),
            data_loss,
            goodput,
            mttr_ns,
            rebuilt,
            skipped,
        });
    }
    let parity: Vec<&RebuildCell> = cells
        .iter()
        .filter(|c| c.redundancy.starts_with("parity"))
        .collect();
    // Claim 1: parity turns the chip death into zero data-loss requests on
    // every fabric and every plan (the no-redundancy half records the
    // losses for contrast).
    let parity_zero_data_loss = !parity.is_empty() && parity.iter().all(|c| c.data_loss == 0);
    let bare_data_loss: u64 = cells
        .iter()
        .filter(|c| c.redundancy == "none")
        .map(|c| c.data_loss)
        .sum();
    // Claims 2 and 3 read the chip-link parity points: the degraded-fabric
    // head-to-head where the fabric — not the NAND — is the rebuild's
    // bottleneck, bus-scoped per the repo's ablation precedent.
    let bus = |f: &str| matches!(f, "Baseline" | "pSSD" | "pnSSD");
    let head: Vec<&&RebuildCell> = parity.iter().filter(|c| c.fault == "chip-link").collect();
    let venice = head.iter().find(|c| c.fabric == "Venice");
    let venice_highest_goodput = venice.is_some_and(|v| {
        let rivals: Vec<&&&RebuildCell> = head.iter().filter(|c| bus(c.fabric)).collect();
        !rivals.is_empty() && rivals.iter().all(|c| v.goodput > c.goodput)
    });
    let venice_lowest_mttr = venice.is_some_and(|v| {
        let rivals: Vec<&&&RebuildCell> = head.iter().filter(|c| bus(c.fabric)).collect();
        v.recovered()
            && !rivals.is_empty()
            && rivals.iter().all(|c| !c.recovered() || v.mttr_ns < c.mttr_ns)
    });
    let (venice_goodput, venice_mttr) =
        venice.map_or((0.0, 0.0), |v| (v.goodput, v.mttr_ns));
    Json::object()
        .with("name", "rebuild_ablation")
        .with("grid", "rebuild")
        .with(
            "headline",
            Json::object()
                .with("parity_zero_data_loss", parity_zero_data_loss)
                .with("venice_highest_goodput", venice_highest_goodput)
                .with("venice_lowest_mttr", venice_lowest_mttr)
                .with("bare_data_loss_requests", bare_data_loss)
                .with("venice_foreground_goodput", venice_goodput)
                .with("venice_mttr_ns", venice_mttr),
        )
        .with("points", Json::Array(points))
}

/// The one-line synopsis printed after an argument error.
const USAGE: &str = "usage: sweep_catalog [--grid <name>] [--requests <n>] [--par <n>] \
                     [--systems a,b,c] [--scout-cache off|on|checked] [--fresh] [--list]";

/// What the command line asks for.
#[derive(Debug)]
struct Cli {
    grid: &'static str,
    requests: Option<usize>,
    par: Option<usize>,
    systems: Option<Vec<FabricKind>>,
    scout_cache: Option<ScoutCacheKind>,
    fresh: bool,
    list: bool,
}

/// Parses the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        grid: "table2",
        requests: None,
        par: None,
        systems: None,
        scout_cache: None,
        fresh: false,
        list: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--list" => cli.list = true,
            "--fresh" => cli.fresh = true,
            "--requests" => cli.requests = Some(flag_value(flag, &mut rest)?),
            "--par" => cli.par = Some(flag_value(flag, &mut rest)?),
            "--grid" => {
                let name: String = flag_value(flag, &mut rest)?;
                cli.grid = GRID_NAMES.into_iter().find(|g| *g == name).ok_or_else(|| {
                    format!("unknown grid {name:?}; available: {}", GRID_NAMES.join(", "))
                })?;
            }
            "--scout-cache" => {
                let mode: String = flag_value(flag, &mut rest)?;
                let cache = ScoutCacheKind::by_label(&mode)
                    .ok_or_else(|| format!("unknown scout-cache mode {mode:?} (off|on|checked)"))?;
                cli.scout_cache = Some(cache);
            }
            "--systems" => {
                let labels: String = flag_value(flag, &mut rest)?;
                let systems = labels
                    .split(',')
                    .map(|label| {
                        FabricKind::by_label(label.trim())
                            .ok_or_else(|| format!("unknown system {label:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                cli.systems = Some(systems);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("sweep_catalog: {err}\n{USAGE}");
        std::process::exit(2);
    });
    if cli.list {
        println!("available grids:");
        for name in GRID_NAMES {
            let g = named_grid(name, None).expect("named grid");
            println!("  {:<8} {} points", name, g.build_points().len());
        }
        return;
    }
    let mut grid = named_grid(cli.grid, cli.requests).expect("parse_args checks the grid name");
    if let Some(systems) = cli.systems {
        grid = grid.replace_fabrics(&systems);
    }
    if let Some(cache) = cli.scout_cache {
        grid = grid.replace_knobs([Knob::ScoutCache(cache)]);
    }
    let results = venice_bench::results_dir();
    let outcome = match cli.par {
        Some(par) => grid.run_resumable(&results, &WorkerPool::new(par), cli.fresh),
        None => grid.run_resumable(&results, WorkerPool::global(), cli.fresh),
    };
    report_sweep(&outcome, &results);
    let distilled = match cli.grid {
        "faults" => Some(("fault_ablation", fault_ablation(&outcome))),
        "tenants" => Some(("tenant_isolation", tenant_isolation(&outcome))),
        "resilience" => Some(("resilience_ablation", resilience_ablation(&outcome))),
        "rebuild" => Some(("rebuild_ablation", rebuild_ablation(&outcome))),
        _ => None,
    };
    if let Some((name, doc)) = distilled {
        venice_bench::write_result(name, &doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64 over `bytes` from `seed` (an own copy, so the pin does not
    /// depend on the code it checks).
    fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
        bytes.iter().fold(seed, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// One hash over everything a resumed sweep or `sweep_diff` matches on:
    /// the definition JSON (the `grid.json` stamp behind `grid_hash`) and
    /// every point's id, label and file name.
    fn expansion_hash(grid: &SweepGrid) -> u64 {
        let def = fnv1a(
            grid.definition().to_string().as_bytes(),
            0xcbf2_9ce4_8422_2325,
        );
        grid.build_points().iter().fold(def, |h, p| {
            let line = format!("{}|{}|{}\n", p.id, p.label, p.file_name());
            fnv1a(line.as_bytes(), h)
        })
    }

    /// Good arguments parse; an unknown flag, a missing value, a bad number,
    /// an unknown system and an unknown grid are errors, not panics.
    #[test]
    fn bad_arguments_are_errors() {
        let parse = |line: &str| {
            parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
        };
        let cli = parse("--grid faults --requests 200 --par 2 --systems Baseline,venice --fresh")
            .expect("valid arguments");
        assert_eq!((cli.grid, cli.requests, cli.par), ("faults", Some(200), Some(2)));
        assert!(cli.fresh && !cli.list);
        assert_eq!(cli.systems, Some(vec![FabricKind::Baseline, FabricKind::Venice]));
        for (line, error) in [
            ("--bogus", "unknown flag \"--bogus\""),
            ("--requests", "missing value after --requests"),
            ("--requests abc", "bad value \"abc\" for --requests"),
            ("--systems Venice,Nope", "unknown system \"Nope\""),
            ("--grid nope", "unknown grid \"nope\"; available: mini, table2"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.starts_with(error), "{line}: {err}");
        }
    }

    /// Every named grid expands byte-identically to the constants below,
    /// both at its default request budget and at `--requests 123`. The
    /// default case of the grids without their own budget reads
    /// `VENICE_REQUESTS`, so this test expects that variable unset.
    #[test]
    fn named_grids_expand_byte_identically() {
        const PINS: [(&str, u64, u64); 14] = [
            ("mini", 0x4344_2fae_bd1b_f532, 0xa1c9_a6f9_d6d6_8248),
            ("table2", 0x93e9_281f_48fc_4eb8, 0x7056_5e59_398c_6703),
            ("mixes", 0xc102_e15f_7682_c05a, 0x717a_ac8c_cdc2_935f),
            ("shapes", 0x4a12_f2ed_e9f9_08e7, 0x2fd6_ef5b_dd61_1afe),
            ("nand", 0x97b2_dedb_22db_8b28, 0x42ee_6177_75cb_d8e3),
            ("qd", 0x1115_ae19_6e4c_cf57, 0x4de1_8617_ecef_bdd2),
            ("design", 0xa009_1278_e782_c4b5, 0x009c_f479_6d54_b0ee),
            ("policy", 0x1d72_ba17_0766_c6bf, 0x5962_7516_91e0_bde3),
            ("bigmesh", 0xf384_58bf_c098_aad7, 0x2afd_e318_8192_19f3),
            ("scoutcache", 0xdb23_bfd6_37c6_d63d, 0xae82_e221_d3c4_5695),
            ("faults", 0x1092_ce67_3cc3_0ff1, 0xd256_59b9_bf94_4c65),
            ("tenants", 0x0093_78de_0d45_e6f8, 0x16b8_dc8f_dd8b_9fea),
            ("resilience", 0x83e0_21f3_b7ca_376b, 0xd83f_ac1e_a409_f2c3),
            ("rebuild", 0x6bb0_5beb_7ab8_53d4, 0x058c_8b90_82f6_b95c),
        ];
        let got = GRID_NAMES.map(|name| {
            let hash = |requests| expansion_hash(&named_grid(name, requests).expect("named grid"));
            (name, hash(None), hash(Some(123)))
        });
        assert_eq!(
            got, PINS,
            "a named grid no longer expands byte-identically (VENICE_REQUESTS must be unset)"
        );
    }
}
