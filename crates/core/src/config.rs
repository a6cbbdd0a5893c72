//! SSD configurations: the paper's Table 1 presets and scaling knobs.

use venice_ftl::{ArrayGeometry, PageMap};
use venice_hil::{HilConfig, TenantSet};
use venice_interconnect::{FabricParams, ScoutCacheKind};
use venice_nand::{ChipGeometry, NandTiming, OpEnergy};
use venice_sim::SimDuration;

use crate::{DispatchPolicyKind, DispatchScanKind, FaultPlan, RedundancyKind, ResiliencePolicy};

/// Static (load-independent) power draw of the SSD, used by the Figure 14
/// energy model: controller, DRAM, and per-chip standby power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StaticPower {
    /// SSD controller static power, mW.
    pub controller_mw: f64,
    /// DRAM static power, mW.
    pub dram_mw: f64,
}

impl Default for StaticPower {
    fn default() -> Self {
        StaticPower {
            controller_mw: 1_500.0,
            dram_mw: 500.0,
        }
    }
}

/// A complete SSD configuration.
///
/// Use [`SsdConfig::performance_optimized`] / [`SsdConfig::cost_optimized`]
/// for the paper's Table 1 presets, then [`SsdConfig::sized_for_footprint`]
/// to scale the flash capacity to the workload (the reproduction scales both
/// trace footprint and device capacity together, preserving the utilization
/// pressure that drives garbage collection).
#[derive(Clone, Debug, PartialEq)]
pub struct SsdConfig {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Flash array geometry (chips × per-chip layout).
    pub array: ArrayGeometry,
    /// NAND operation latencies.
    pub timing: NandTiming,
    /// NAND per-operation energy.
    pub energy: OpEnergy,
    /// Interconnect parameters (shape, bandwidths, electrical model).
    pub fabric: FabricParams,
    /// Host interface parameters.
    pub hil: HilConfig,
    /// Tenancy model: tenants mapped to namespace queue ranges with WRR
    /// weights and queue-depth caps (a sweep axis). The default,
    /// [`TenantSet::single()`], reproduces the pre-tenancy host interface
    /// bit-for-bit.
    pub tenants: TenantSet,
    /// Fraction of physical capacity exposed as logical space.
    pub utilization: f64,
    /// Bytes of a command burst on the wire (opcode + address + CRC).
    pub command_bytes: u64,
    /// Firmware latency to process one flash transaction in the FTL.
    pub ftl_latency: SimDuration,
    /// Static power model.
    pub static_power: StaticPower,
    /// Dispatch policy of the transaction dispatcher (a sweep-engine axis;
    /// [`DispatchPolicyKind::RetryAll`] reproduces the pre-policy engine
    /// bit-for-bit).
    pub dispatch: DispatchPolicyKind,
    /// Dispatch-round implementation: the incremental ready-set engine
    /// (default) or the retained full-scan reference. Metrics are
    /// bit-identical either way; this is a performance/cross-check knob,
    /// not a behavioral axis.
    pub scan: DispatchScanKind,
    /// Scripted fault plan delivered through the event calendar (a sweep
    /// axis). [`FaultPlan::None`] (the default) schedules zero events and
    /// reproduces the fault-free engine bit-for-bit.
    pub fault_plan: FaultPlan,
    /// Host-side resilience policy: deadlines/timeouts, bounded retry, and
    /// overload admission control (a sweep axis).
    /// [`ResiliencePolicy::None`] (the default) schedules zero events and
    /// reproduces the pre-resilience engine bit-for-bit.
    pub resilience: ResiliencePolicy,
    /// Die-level redundancy scheme: RAIN parity groups with
    /// reconstruct-on-read and background rebuild (a sweep axis).
    /// [`RedundancyKind::None`] (the default) schedules zero events and
    /// allocates identically — the pre-redundancy engine bit-for-bit.
    pub redundancy: RedundancyKind,
    /// Runaway-run watchdog: abort the run once this many calendar events
    /// have been scheduled. `None` (the preset default) disables the check;
    /// sweeps enable a generous ceiling so no fault scenario can spin the
    /// calendar forever.
    pub max_events: Option<u64>,
    /// Runaway-run watchdog: abort the run once simulated time passes this
    /// many nanoseconds. `None` disables the check.
    pub max_sim_ns: Option<u64>,
    /// Test-only fail point: panic the engine once this many calendar
    /// events have been scheduled. Stands in for "any engine bug" in the
    /// sweep-isolation tests (a panicking point must be caught and recorded
    /// as failed without taking the sweep down). `None` — the only value
    /// presets ever carry — compiles the check down to a branch that never
    /// fires.
    pub panic_after_events: Option<u64>,
}

impl SsdConfig {
    /// Table 1 performance-optimized configuration (Samsung Z-NAND-like):
    /// 8 channels × 8 chips, 1.2 GB/s channels, 4 KiB pages, tR = 3 µs.
    ///
    /// The per-plane block count is simulation-scaled (fewer, shorter blocks
    /// than the 240 GB device) — capacity is set per workload via
    /// [`SsdConfig::sized_for_footprint`]; parallelism (channels, chips,
    /// dies, planes) matches the paper exactly.
    pub fn performance_optimized() -> Self {
        let chip = ChipGeometry {
            dies: 1,
            planes_per_die: 2,
            blocks_per_plane: 64,
            pages_per_block: 256,
            page_size: 4 * 1024,
        };
        SsdConfig {
            name: "performance-optimized",
            array: ArrayGeometry::new(64, chip),
            timing: NandTiming::z_nand(),
            energy: OpEnergy::z_nand(),
            fabric: FabricParams::table1(),
            hil: HilConfig::default(),
            tenants: TenantSet::single(),
            utilization: 0.75,
            command_bytes: 8,
            ftl_latency: SimDuration::from_nanos(250),
            static_power: StaticPower::default(),
            dispatch: DispatchPolicyKind::RetryAll,
            scan: DispatchScanKind::Incremental,
            fault_plan: FaultPlan::None,
            resilience: ResiliencePolicy::None,
            redundancy: RedundancyKind::None,
            max_events: None,
            max_sim_ns: None,
            panic_after_events: None,
        }
    }

    /// Table 1 cost-optimized configuration (PM9A3-like 3D TLC): the
    /// performance-optimized preset with 16 KiB pages, tR = 45 µs and 3D
    /// TLC energy.
    pub fn cost_optimized() -> Self {
        let perf = SsdConfig::performance_optimized();
        let chip = ChipGeometry {
            page_size: 16 * 1024,
            ..perf.array.chip
        };
        SsdConfig {
            name: "cost-optimized",
            array: ArrayGeometry::new(perf.array.chips, chip),
            timing: NandTiming::tlc_3d(),
            energy: OpEnergy::tlc_3d(),
            ..perf
        }
    }

    /// Resizes the flash array to a `rows × cols` mesh: the fabric shape
    /// *and* the chip count become `rows × cols` (per-chip geometry is
    /// kept). Shapes that preserve the chip count only reshape the array
    /// (Figure 15's 4×16 / 8×8 / 16×4 sweep); larger meshes (16×16, 32×32 —
    /// the big-mesh sweep entries) grow it, scaling chip-level parallelism
    /// with the fabric. Capacity is re-derived per workload by
    /// [`SsdConfig::sized_for_footprint`], so over-provisioning pressure is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero or exceeds 256 (controller ids
    /// are `u8`: one controller per row, and pnSSD drives column buses by
    /// controller index too), or if the chip count exceeds the `u16`
    /// chip-id space.
    pub fn with_mesh(mut self, rows: u16, cols: u16) -> Self {
        assert!(rows > 0 && cols > 0, "mesh must be non-empty");
        assert!(
            rows <= 256 && cols <= 256,
            "mesh {rows}x{cols} exceeds the u8 controller-id space (max 256 rows/cols)"
        );
        let chips = u32::from(rows) * u32::from(cols);
        assert!(
            u16::try_from(chips).is_ok(),
            "mesh {rows}x{cols} exceeds the u16 chip-id space"
        );
        self.array.chips = chips as u16;
        self.fabric = FabricParams {
            rows,
            cols,
            ..self.fabric
        };
        self
    }

    /// Selects the dispatch-round implementation (incremental ready-set
    /// engine vs the retained full-scan reference). Metrics are
    /// bit-identical for both — this knob exists for cross-checks and the
    /// `dispatch_scan` microbench, not for sweeps.
    pub fn with_dispatch_scan(mut self, scan: DispatchScanKind) -> Self {
        self.scan = scan;
        self
    }

    /// Overrides the NAND operation latencies (a sweep-engine timing axis).
    ///
    /// Only latencies change: the per-operation energy model and page
    /// geometry keep the preset's values, so a timing axis isolates timing
    /// sensitivity from the rest of the NAND model.
    pub fn with_timing(mut self, timing: NandTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the per-queue submission-queue depth (a sweep-engine
    /// queue-depth axis). Deeper queues admit more host-side outstanding
    /// requests before back-pressure.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.hil.queue_depth = depth.max(1);
        self
    }

    /// Overrides the dispatch policy (a sweep-engine policy axis). Only
    /// the dispatcher's retry strategy changes; conflict accounting and
    /// every other model parameter keep the preset's semantics.
    pub fn with_dispatch_policy(mut self, policy: DispatchPolicyKind) -> Self {
        self.dispatch = policy;
        self
    }

    /// Selects the Venice scout fast-fail cache mode (a sweep-engine axis;
    /// only the Venice fabric consults it). `Off` (the default) reproduces
    /// the pre-cache engine bit-for-bit; `On` is pinned bit-identical in
    /// every simulated-behavior field by the `Checked` cross-check — only
    /// the cache's own effort counters (`scout_fastfails`,
    /// `scout_cache_invalidations`) differ.
    pub fn with_scout_cache(mut self, cache: ScoutCacheKind) -> Self {
        self.fabric.scout_cache = cache;
        self
    }

    /// The configured scout fast-fail cache mode.
    pub fn scout_cache(&self) -> ScoutCacheKind {
        self.fabric.scout_cache
    }

    /// Selects the tenancy model (a sweep-engine axis). [`TenantSet::single()`]
    /// — the preset default — reproduces the pre-tenancy host interface
    /// bit-for-bit; multi-tenant sets partition the submission queues into
    /// per-tenant namespace ranges with WRR arbitration and queue-depth
    /// caps. Tenant tags on the trace beyond the set's size are clamped to
    /// the last tenant, so a single-tenant set merges any tagged trace back
    /// into one stream.
    pub fn with_tenants(mut self, tenants: TenantSet) -> Self {
        self.tenants = tenants;
        self
    }

    /// Selects the scripted fault plan (a sweep-engine axis).
    /// [`FaultPlan::None`] reproduces the fault-free engine bit-for-bit —
    /// it schedules zero calendar events.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Selects the host-side resilience policy (a sweep-engine axis).
    /// [`ResiliencePolicy::None`] reproduces the pre-resilience engine
    /// bit-for-bit — it schedules zero calendar events and takes no
    /// admission branches.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Selects the die-level redundancy scheme (a sweep-engine axis).
    /// [`RedundancyKind::None`] reproduces the pre-redundancy engine
    /// bit-for-bit — it schedules zero calendar events and allocates
    /// identically; `Parity` changes nothing until a chip actually dies.
    pub fn with_redundancy(mut self, redundancy: RedundancyKind) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Arms the runaway-run watchdog: the run aborts with a structured
    /// [`crate::RunStatus::Aborted`] outcome once either ceiling is
    /// crossed, instead of spinning the calendar forever. `None` leaves a
    /// dimension unchecked.
    pub fn with_watchdog(mut self, max_events: Option<u64>, max_sim_ns: Option<u64>) -> Self {
        self.max_events = max_events;
        self.max_sim_ns = max_sim_ns;
        self
    }

    /// Arms the test-only fail point: the engine panics once `events`
    /// calendar events have been scheduled. Exists so sweep-isolation tests
    /// can inject a deterministic engine bug; never set it outside tests.
    pub fn with_panic_after_events(mut self, events: u64) -> Self {
        self.panic_after_events = Some(events);
        self
    }

    /// Scales the per-plane block count so that the physical capacity is
    /// `footprint_bytes / utilization`, rounding up to whole blocks per
    /// plane. This keeps over-provisioning pressure constant across
    /// workloads with different footprints.
    pub fn sized_for_footprint(mut self, footprint_bytes: u64) -> Self {
        let physical_bytes = footprint_bytes as f64 / self.utilization;
        let planes = u64::from(self.array.total_planes());
        let block_bytes =
            u64::from(self.array.chip.pages_per_block) * u64::from(self.array.chip.page_size);
        let blocks = (physical_bytes / (planes * block_bytes) as f64).ceil() as u32;
        // Floor of 8 blocks/plane keeps GC hysteresis meaningful.
        self.array.chip.blocks_per_plane = blocks.max(8);
        self
    }

    /// Logical pages exposed for a given workload footprint.
    pub fn logical_pages_for(&self, footprint_bytes: u64) -> u64 {
        footprint_bytes.div_ceil(u64::from(self.array.chip.page_size))
    }

    /// Bytes per physical page.
    pub fn page_bytes(&self) -> u64 {
        u64::from(self.array.chip.page_size)
    }

    /// Event-calendar bucket width (ns) auto-tuned to this configuration's
    /// NAND timing: the smallest power of two such that the wheel's
    /// horizon (`WHEEL_BUCKETS × width`) covers two program latencies, so
    /// the dominant long-horizon events (tPROG completions) stay in the
    /// O(1) wheel instead of the overflow heap. Floored at 256 ns — the
    /// PR 1 constant — so short-timing configs are unchanged.
    pub fn wheel_bucket_ns(&self) -> u64 {
        let horizon_needed = self.timing.t_prog.as_nanos().saturating_mul(2).max(1);
        let width = horizon_needed.div_ceil(venice_sim::WHEEL_BUCKETS as u64);
        width.next_power_of_two().max(256)
    }

    /// Consistency checks: the chip count must equal the mesh node count,
    /// and the array must hold fewer than 2^32 pages (the FTL's map stores
    /// physical pages as `u32`).
    pub fn validate(&self) {
        assert_eq!(
            usize::from(self.array.chips),
            self.fabric.mesh().node_count(),
            "chip array and interconnect mesh must agree"
        );
        assert!(
            self.array.total_pages() <= PageMap::MAX_GPPA + 1,
            "{} physical pages exceed the FTL map's 2^32 - 1",
            self.array.total_pages()
        );
        assert!(
            self.utilization > 0.0 && self.utilization < 1.0,
            "utilization must be in (0,1)"
        );
        assert!(
            self.tenants.len() <= self.hil.queues,
            "every tenant needs at least one submission queue"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let p = SsdConfig::performance_optimized();
        assert_eq!(p.array.chips, 64);
        assert_eq!(p.array.chip.page_size, 4 * 1024);
        assert_eq!(p.timing, NandTiming::z_nand());
        assert_eq!(p.fabric.rows, 8);
        assert_eq!(p.fabric.cols, 8);
        p.validate();
        let c = SsdConfig::cost_optimized();
        assert_eq!(c.array.chip.page_size, 16 * 1024);
        assert_eq!(c.timing, NandTiming::tlc_3d());
        c.validate();
    }

    #[test]
    fn shape_sweep_preserves_chip_count() {
        for (r, c) in [(4u16, 16u16), (8, 8), (16, 4)] {
            let cfg = SsdConfig::performance_optimized().with_mesh(r, c);
            assert_eq!(cfg.array.chips, 64);
            assert_eq!(cfg.fabric.rows, r);
            assert_eq!(cfg.fabric.cols, c);
            cfg.validate();
        }
    }

    #[test]
    fn with_mesh_resizes_the_array_with_the_fabric() {
        // Big meshes grow the chip array to match.
        for (r, c) in [(16u16, 16u16), (32, 32)] {
            let big = SsdConfig::performance_optimized().with_mesh(r, c);
            assert_eq!(big.array.chips, r * c);
            assert_eq!((big.fabric.rows, big.fabric.cols), (r, c));
            big.validate();
            // Capacity sizing still tracks the workload footprint.
            let sized = big.sized_for_footprint(256 << 20);
            assert!(sized.array.chip.blocks_per_plane >= 8);
            sized.validate();
        }
    }

    #[test]
    #[should_panic(expected = "exceed the FTL map")]
    fn validate_rejects_arrays_of_2_pow_32_pages() {
        let mut cfg = SsdConfig::performance_optimized();
        let block_row =
            u64::from(cfg.array.total_planes()) * u64::from(cfg.array.chip.pages_per_block);
        // The largest array under the bound passes; one more block per
        // plane reaches 2^32 pages.
        cfg.array.chip.blocks_per_plane = (u64::from(u32::MAX) / block_row) as u32;
        cfg.validate();
        cfg.array.chip.blocks_per_plane += 1;
        assert!(cfg.array.total_pages() >= 1 << 32);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "controller-id space")]
    fn with_mesh_rejects_meshes_beyond_the_controller_id_space() {
        // 300 rows would alias FcId(44..) onto FcId(0..) through the u8
        // controller ids — must fail fast, not corrupt fabric bookkeeping.
        SsdConfig::performance_optimized().with_mesh(300, 2);
    }

    #[test]
    fn dispatch_scan_defaults_to_incremental() {
        let cfg = SsdConfig::performance_optimized();
        assert_eq!(cfg.scan, DispatchScanKind::Incremental);
        assert_eq!(cfg.scan.label(), "incremental");
        let full = cfg.with_dispatch_scan(DispatchScanKind::FullScan);
        assert_eq!(full.scan, DispatchScanKind::FullScan);
        assert_eq!(full.scan.label(), "full-scan");
    }

    #[test]
    fn axis_overrides_apply() {
        let cfg = SsdConfig::performance_optimized()
            .with_timing(NandTiming::tlc_3d())
            .with_queue_depth(32)
            .with_dispatch_policy(DispatchPolicyKind::ConflictBackoff);
        assert_eq!(cfg.timing, NandTiming::tlc_3d());
        assert_eq!(cfg.hil.queue_depth, 32);
        assert_eq!(cfg.dispatch, DispatchPolicyKind::ConflictBackoff);
        // The default is the pre-policy engine's behavior.
        assert_eq!(
            SsdConfig::performance_optimized().dispatch,
            DispatchPolicyKind::RetryAll
        );
        // Energy and geometry keep the preset's values.
        assert_eq!(cfg.energy, OpEnergy::z_nand());
        assert_eq!(cfg.array.chip.page_size, 4 * 1024);
        // Queue depth has a floor of one.
        assert_eq!(SsdConfig::performance_optimized().with_queue_depth(0).hil.queue_depth, 1);
    }

    #[test]
    fn fault_plan_and_watchdog_default_off_and_apply() {
        let cfg = SsdConfig::performance_optimized();
        assert_eq!(cfg.fault_plan, FaultPlan::None);
        assert_eq!(cfg.max_events, None);
        assert_eq!(cfg.max_sim_ns, None);
        assert_eq!(SsdConfig::cost_optimized().fault_plan, FaultPlan::None);
        let armed = cfg
            .with_fault_plan(FaultPlan::Link)
            .with_watchdog(Some(1_000_000), Some(5_000_000_000));
        assert_eq!(armed.fault_plan, FaultPlan::Link);
        assert_eq!(armed.max_events, Some(1_000_000));
        assert_eq!(armed.max_sim_ns, Some(5_000_000_000));
        armed.validate();
    }

    #[test]
    fn resilience_defaults_off_and_applies() {
        let cfg = SsdConfig::performance_optimized();
        assert_eq!(cfg.resilience, ResiliencePolicy::None);
        assert_eq!(SsdConfig::cost_optimized().resilience, ResiliencePolicy::None);
        let armed = cfg.with_resilience(ResiliencePolicy::Full);
        assert_eq!(armed.resilience, ResiliencePolicy::Full);
        assert!(armed.resilience.params().deadline.is_some());
        armed.validate();
    }

    #[test]
    fn redundancy_defaults_none_and_applies() {
        let cfg = SsdConfig::performance_optimized();
        assert_eq!(cfg.redundancy, RedundancyKind::None);
        assert_eq!(SsdConfig::cost_optimized().redundancy, RedundancyKind::None);
        let armed = cfg.with_redundancy(RedundancyKind::Parity { group: 4 });
        assert_eq!(armed.redundancy, RedundancyKind::Parity { group: 4 });
        assert!(armed.redundancy.is_armed());
        armed.validate();
    }

    #[test]
    fn tenants_default_single_and_apply() {
        let cfg = SsdConfig::performance_optimized();
        assert_eq!(cfg.tenants, TenantSet::single());
        assert!(cfg.tenants.is_single());
        assert_eq!(SsdConfig::cost_optimized().tenants, TenantSet::single());
        let pair = cfg.with_tenants(TenantSet::pair_fair());
        assert_eq!(pair.tenants.label(), "pair-fair");
        assert_eq!(pair.tenants.len(), 2);
        pair.validate();
    }

    #[test]
    #[should_panic(expected = "at least one submission queue")]
    fn more_tenants_than_queues_fails_validation() {
        let mut cfg = SsdConfig::performance_optimized().with_tenants(TenantSet::pair_fair());
        cfg.hil.queues = 1;
        cfg.validate();
    }

    #[test]
    fn sizing_tracks_footprint() {
        let cfg = SsdConfig::performance_optimized().sized_for_footprint(2 << 30);
        let physical = cfg.array.total_pages() * cfg.page_bytes();
        let logical = 2u64 << 30;
        let util = logical as f64 / physical as f64;
        assert!(util <= cfg.utilization + 0.05, "util {util}");
        assert!(util > 0.4, "device should not be vastly oversized: {util}");
    }

    #[test]
    fn logical_pages_round_up() {
        let cfg = SsdConfig::performance_optimized();
        assert_eq!(cfg.logical_pages_for(4096), 1);
        assert_eq!(cfg.logical_pages_for(4097), 2);
    }

    #[test]
    fn wheel_bucket_tracks_nand_timing() {
        // z-nand: 2 × 100 µs over 512 buckets → 391 ns → 512 ns buckets.
        assert_eq!(SsdConfig::performance_optimized().wheel_bucket_ns(), 512);
        // tlc-3d: 2 × 650 µs over 512 buckets → 2539 ns → 4096 ns buckets.
        assert_eq!(SsdConfig::cost_optimized().wheel_bucket_ns(), 4096);
        // Very fast flash floors at the PR 1 constant.
        let mut fast = SsdConfig::performance_optimized();
        fast.timing.t_prog = SimDuration::from_nanos(100);
        assert_eq!(fast.wheel_bucket_ns(), 256);
    }
}
