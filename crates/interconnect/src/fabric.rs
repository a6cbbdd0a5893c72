//! The six intra-SSD communication fabrics behind one interface.
//!
//! Each fabric implements [`Fabric`]: a controller-to-chip *path* is
//! acquired for one transfer burst (a command, or a page of data), held for
//! the duration returned by [`Fabric::transfer`], and released. This mirrors
//! the service timeline of Figure 3: the path is free while the flash array
//! operation (tR/tPROG/tBERS) executes inside the chip.
//!
//! The six designs (§3 and §4 of the paper) come in three organizations:
//!
//! * **Bus**: one bus fabric that differs only in its table, the bus
//!   bandwidth and whether every column has a bus too.
//!   * [`FabricKind::Baseline`] — multi-channel shared bus, one channel per
//!     row.
//!   * [`FabricKind::Pssd`] — packetized SSD: same topology, 2× bus
//!     bandwidth.
//!   * [`FabricKind::PnSsd`] — packetized network SSD: a row bus *and* a
//!     column bus reach every chip; each controller drives one row and one
//!     column bus.
//! * **Mesh**: one 2D mesh with one controller pool (a controller at the
//!   west edge of every row, nearest-free first) and one transfer model
//!   (Equation 1), under two different routers.
//!   * [`FabricKind::NoSsd`] — buffered routers and deterministic
//!     dimension-order (XY) routing.
//!   * [`FabricKind::Venice`] — router chips with scout-packet path
//!     reservation, non-minimal fully-adaptive routing and circuit
//!     switching.
//! * **Dedicated**: [`FabricKind::Ideal`], the path-conflict-free SSD, with a
//!   channel (and controller) per chip; requests only ever wait on the chip
//!   itself.

use std::fmt;

use venice_sim::rng::Lfsr2;
use venice_sim::{DenseBitSet, SimDuration};

use crate::mesh::{MeshState, ReservedPath};
use crate::scout::{FailedWalk, ScoutCache, ScoutCacheKind};
use crate::{FcId, LinkPower, Mesh2D, NodeId};

/// Which fabric design an SSD uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Multi-channel shared bus (the Baseline SSD).
    Baseline,
    /// Packetized SSD: 2× channel bandwidth at 20% flash-die area cost.
    Pssd,
    /// Packetized network SSD: row + column shared buses.
    PnSsd,
    /// Network-on-SSD: buffered-router mesh with XY routing.
    NoSsd,
    /// Venice: circuit-switched mesh with scout-based path reservation.
    Venice,
    /// Ideal path-conflict-free SSD (upper bound).
    Ideal,
}

impl FabricKind {
    /// All fabrics, in the order the paper's figures present them.
    pub const ALL: [FabricKind; 6] = [
        FabricKind::Baseline,
        FabricKind::Pssd,
        FabricKind::PnSsd,
        FabricKind::NoSsd,
        FabricKind::Venice,
        FabricKind::Ideal,
    ];

    /// Looks up a fabric by its report label (`"Venice"`, `"pSSD"`, ...),
    /// case-insensitively — the config-from-axis constructor used when
    /// parsing sweep-grid definitions and CLI system lists.
    pub fn by_label(label: &str) -> Option<FabricKind> {
        FabricKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(label))
    }

    /// Short label used in reports ("pSSD", "Venice", ...).
    pub fn label(&self) -> &'static str {
        match self {
            FabricKind::Baseline => "Baseline",
            FabricKind::Pssd => "pSSD",
            FabricKind::PnSsd => "pnSSD",
            FabricKind::NoSsd => "NoSSD",
            FabricKind::Venice => "Venice",
            FabricKind::Ideal => "Ideal",
        }
    }
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Physical parameters shared by all fabrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricParams {
    /// Flash-array rows; also the controller/channel count.
    pub rows: u16,
    /// Chips per row.
    pub cols: u16,
    /// Shared-channel bandwidth in bytes per nanosecond (1.2 for Table 1's
    /// 1.2 GB/s flash channel I/O rate).
    pub bus_bytes_per_ns: f64,
    /// Fixed per-burst bus arbitration/turnaround overhead.
    pub bus_overhead: SimDuration,
    /// Mesh link width in bytes (8-bit links → 1).
    pub link_width_bytes: u32,
    /// Latency of one link transfer of `link_width_bytes` (1 ns at 1 GHz).
    pub link_latency: SimDuration,
    /// Per-hop pipeline latency of NoSSD's buffered routers.
    pub nossd_router_latency: SimDuration,
    /// Ablation knob: restrict Venice's routing to minimal paths (disables
    /// the §4.3 non-minimal misrouting stage; backtracking still works).
    pub venice_minimal_only: bool,
    /// Whether Venice runs the generation-stamped scout fast-fail cache
    /// (see [`crate::scout::ScoutCache`]); [`ScoutCacheKind::Off`] is the
    /// default and reproduces the pre-cache engine exactly.
    pub scout_cache: ScoutCacheKind,
    /// Electrical power model (Table 4 constants).
    pub power: LinkPower,
}

impl FabricParams {
    /// Table 1 parameters: 8×8 array, 1.2 GB/s buses, 8-bit 1 GHz links.
    pub fn table1() -> Self {
        FabricParams {
            rows: 8,
            cols: 8,
            bus_bytes_per_ns: 1.2,
            bus_overhead: SimDuration::from_nanos(3),
            link_width_bytes: 1,
            link_latency: SimDuration::from_nanos(1),
            nossd_router_latency: SimDuration::from_nanos(2),
            venice_minimal_only: false,
            scout_cache: ScoutCacheKind::Off,
            power: LinkPower::paper(),
        }
    }

    /// The mesh topology implied by these parameters.
    pub fn mesh(&self) -> Mesh2D {
        Mesh2D::new(self.rows, self.cols)
    }

    /// Duration of a bus burst of `bytes` at `mult`× the base bandwidth.
    fn bus_duration(&self, bytes: u64, mult: f64) -> SimDuration {
        self.bus_overhead
            + SimDuration::from_nanos_f64(bytes as f64 / (self.bus_bytes_per_ns * mult))
    }

    /// Equation 1 of the paper: circuit transfer time over `hops` links.
    fn circuit_duration(&self, hops: u32, bytes: u64) -> SimDuration {
        let beats = bytes.div_ceil(u64::from(self.link_width_bytes));
        self.link_latency * (u64::from(hops) + beats)
    }
}

/// Why a path acquisition failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireError {
    /// Every eligible flash controller is busy with another transfer.
    NoFreeController,
    /// A controller was available but the path/bus to the chip was occupied —
    /// this is the paper's *path conflict* (Figure 13).
    PathConflict,
    /// The ideal SSD's dedicated per-chip channel is mid-transfer; by the
    /// paper's definition this is a chip-side delay, not a path conflict.
    ChannelBusy,
    /// The path's resource (bus row, chip port, or dedicated channel) is
    /// failed: **no retry can succeed until a repair event restores it**.
    /// Unlike [`AcquireError::PathConflict`] this is not a transient
    /// conflict — it never counts toward Figure 13's path conflicts, never
    /// triggers conflict backoff, and the dispatcher responds by failing
    /// the chip's queued requests instead of re-arming on a release.
    ResourceDead,
}

impl AcquireError {
    /// Whether this failure counts as a path conflict in Figure 13's metric.
    pub fn is_path_conflict(&self) -> bool {
        matches!(self, AcquireError::PathConflict)
    }
}

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AcquireError::NoFreeController => "no free flash controller",
            AcquireError::PathConflict => "path conflict",
            AcquireError::ChannelBusy => "dedicated channel busy",
            AcquireError::ResourceDead => "path resource failed",
        })
    }
}

impl std::error::Error for AcquireError {}

/// The route held by a grant (opaque outside this crate).
#[derive(Clone, Debug)]
enum Route {
    /// A shared bus (row bus `0..rows`, or `rows + c` for pnSSD column buses).
    Bus { bus: u16 },
    /// A mesh path held for the burst (a Venice circuit, or NoSSD's whole
    /// XY path), with the latency before its first flit: the scout's round
    /// trip on Venice, zero on NoSSD.
    Mesh {
        path: ReservedPath,
        setup: SimDuration,
    },
    /// The ideal SSD's dedicated channel to one chip.
    Dedicated { chip: NodeId },
}

/// A granted controller + path, held for one transfer burst.
///
/// Obtain with [`Fabric::try_acquire`]; pass to [`Fabric::transfer`] to get
/// the burst duration; return with [`Fabric::release`] when the burst ends.
#[derive(Clone, Debug)]
pub struct PathGrant {
    /// The controller servicing the burst.
    pub fc: FcId,
    /// Destination chip node.
    pub chip: NodeId,
    route: Route,
}

impl PathGrant {
    /// Number of mesh hops held by this grant (0 for bus/dedicated routes).
    pub fn hops(&self) -> u32 {
        match &self.route {
            Route::Mesh { path, .. } => path.hops(),
            _ => 0,
        }
    }
}

/// A fault (or repair) event delivered to a fabric by the fault-injection
/// calendar.
///
/// Faults are expressed against the *physical* 2D layout every design
/// shares (the flash array is a `rows × cols` grid whether or not the
/// fabric is a mesh); each fabric maps the event onto its own topology and
/// reports the blast radius via [`FaultImpact`]:
///
/// * Bus designs have no mesh links — a `LinkDown` between two same-row
///   nodes breaks the row's shared bus, stranding the **whole row** (the
///   degraded-mode story the fault ablation measures). pnSSD keeps its
///   chips reachable over the column buses until a column link also dies.
/// * Mesh designs mask the link/router in [`MeshState`]; the scout DFS and
///   XY reservation treat it as blocked and route around it, so a link
///   fault strands **no** chips.
/// * `RouterDown` kills the chip attached to that node on every design
///   (the chip's port into the fabric is gone). On mesh designs it also
///   blocks through-traffic; on the ideal SSD it is the chip's dedicated
///   channel failing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricFault {
    /// The link between two physically adjacent nodes fails.
    LinkDown {
        /// One endpoint of the failing link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The link between two physically adjacent nodes is repaired.
    LinkUp {
        /// One endpoint of the repaired link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The router / fabric port at a node fails.
    RouterDown(NodeId),
    /// The router / fabric port at a node is repaired.
    RouterUp(NodeId),
}

impl FabricFault {
    /// True for the `*Down` halves (injections), false for repairs.
    pub fn is_down(&self) -> bool {
        matches!(self, FabricFault::LinkDown { .. } | FabricFault::RouterDown(_))
    }

    /// The repair event that undoes this fault (`*Down` → `*Up`); repairs
    /// return themselves. Fault plans use this to pair every scripted
    /// outage with the matching repair.
    pub fn repaired(&self) -> FabricFault {
        match *self {
            FabricFault::LinkDown { a, b } | FabricFault::LinkUp { a, b } => {
                FabricFault::LinkUp { a, b }
            }
            FabricFault::RouterDown(n) | FabricFault::RouterUp(n) => FabricFault::RouterUp(n),
        }
    }
}

/// What a [`Fabric::inject_fault`] changed — the engine's contract for
/// degraded-mode bookkeeping.
///
/// `dead_chips` lists chips that just became unreachable on this design
/// (the engine fails their queued work and drops them from its ready
/// sets); `revived_chips` lists chips a repair just made reachable again
/// (the engine re-arms dispatch for them).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultImpact {
    /// Chips this fault made unreachable.
    pub dead_chips: Vec<NodeId>,
    /// Chips this repair made reachable again.
    pub revived_chips: Vec<NodeId>,
}

/// Cumulative fabric statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FabricStats {
    /// Successful path acquisitions.
    pub acquisitions: u64,
    /// Failed acquisitions that count as path conflicts (Fig. 13).
    pub conflicts: u64,
    /// Failed acquisitions because no controller was free.
    pub controller_unavailable: u64,
    /// Failed acquisitions on the ideal SSD's dedicated channels.
    pub channel_busy: u64,
    /// Completed transfer bursts.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Transfer energy (links/buses + routers), nanojoules.
    pub transfer_energy_nj: f64,
    /// Scout steps walked (Venice only).
    pub scout_steps: u64,
    /// Scout walks that detoured (misrouted or backtracked) before success.
    pub scout_detours: u64,
    /// Misroute (non-minimal port) selections across all scout walks.
    pub scout_misroutes: u64,
    /// Scout steps spent in walks that ultimately failed (the fast-fail
    /// cache's target; a subset of [`FabricStats::scout_steps`]).
    pub scout_failed_steps: u64,
    /// Acquisition attempts resolved by the scout fast-fail cache without a
    /// DFS (in `Checked` mode: cache verdicts verified against a live
    /// walk). Zero when the cache is off — an *effort* stat, excluded from
    /// behavioral cross-checks.
    pub scout_fastfails: u64,
    /// Cache entries dropped because a reservation change intersected
    /// their extent. Zero when the cache is off (effort stat).
    pub scout_cache_invalidations: u64,
    /// Sum of hops over all granted mesh paths (mean path length diagnostics).
    pub hops_total: u64,
}

/// A communication fabric between flash controllers and flash chips.
///
/// Implementations are deterministic and instantaneous: time only passes via
/// the durations they return, which the caller turns into simulation events.
pub trait Fabric {
    /// Number of flash controllers (concurrent transfer bound).
    fn controller_count(&self) -> usize;

    /// Attempts to acquire a controller and a path to `chip` for one burst.
    ///
    /// # Errors
    ///
    /// See [`AcquireError`]; callers retry when the fabric next changes
    /// state (a release), which the simulation core tracks.
    fn try_acquire(&mut self, chip: NodeId) -> Result<PathGrant, AcquireError>;

    /// True when the chip's *closest* controller is available right now.
    ///
    /// Schedulers use this as a dispatch-affinity hint: issuing transfers to
    /// chips whose home-row controller is free keeps circuits short and
    /// row-local (the paper's §4.2 controller-selection policy), which both
    /// shortens transfers and leaves the mesh free for other circuits.
    fn home_controller_free(&self, chip: NodeId) -> bool;

    /// What [`Fabric::try_acquire`] on `chip` would return right now (`Ok`
    /// for a grant), without changing any state or statistic; `None` on
    /// designs that cannot tell without walking or probing, the default.
    /// A design with a [`Fabric::release_scope`] must answer it. For debug
    /// checks, never the dispatch path.
    fn acquire_outcome(&self, chip: NodeId) -> Option<Result<(), AcquireError>> {
        let _ = chip;
        None
    }

    /// Duration of a `bytes`-byte burst over the granted path, including any
    /// reservation latency. Also accrues transfer energy into the stats.
    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration;

    /// Releases the grant's controller and path. On the designs with a
    /// controller pool (NoSSD, Venice), every release returns a controller
    /// to it.
    fn release(&mut self, grant: PathGrant);

    /// The chips whose [`AcquireError::PathConflict`] a release of
    /// controller `fc`'s grant can turn into a success, on a design where a
    /// failed [`Fabric::try_acquire`] changes nothing but
    /// [`FabricStats::conflicts`] and fails again until such a release or
    /// a fault. The dispatcher lets those chips sleep instead of retrying
    /// them, and charges their retries with [`Fabric::charge_conflicts`].
    /// `None` on designs whose failed attempts move other state (NoSSD's
    /// XY probes, Venice's shared scout LFSR) or are not path conflicts
    /// (the ideal SSD's busy channels).
    fn release_scope(&self, fc: FcId) -> Option<&DenseBitSet> {
        let _ = fc;
        None
    }

    /// Counts `n` path conflicts that the dispatcher knew the outcome of
    /// without calling [`Fabric::try_acquire`]. Only a design with a
    /// [`Fabric::release_scope`] is ever charged.
    fn charge_conflicts(&mut self, n: u64) {
        assert_eq!(n, 0, "conflicts charged to a fabric without release scopes");
    }

    /// Applies a fault or repair event, reporting its blast radius (see
    /// [`FabricFault`] for the per-design semantics and [`FaultImpact`]
    /// for what the engine does with the report). Grants already in
    /// flight over the failed resource drain normally — faults are
    /// fail-stop at burst boundaries; only *new* acquisitions see the
    /// mask.
    fn inject_fault(&mut self, fault: FabricFault) -> FaultImpact;

    /// Cumulative statistics.
    fn stats(&self) -> FabricStats;
}

/// Constructs the fabric for `kind` with the given parameters.
///
/// # Example
///
/// ```
/// use venice_interconnect::{build_fabric, FabricKind, FabricParams, NodeId};
/// let mut fabric = build_fabric(FabricKind::Venice, FabricParams::table1());
/// let grant = fabric.try_acquire(NodeId(42)).unwrap();
/// let d = fabric.transfer(&grant, 4096);
/// assert!(d.as_nanos() >= 4096);
/// fabric.release(grant);
/// ```
pub fn build_fabric(kind: FabricKind, params: FabricParams) -> Box<dyn Fabric> {
    match kind {
        FabricKind::Baseline => Box::new(BusFabric::new(params, 1.0, false)),
        FabricKind::Pssd => Box::new(BusFabric::new(params, 2.0, false)),
        FabricKind::PnSsd => Box::new(BusFabric::new(params, 1.0, true)),
        FabricKind::NoSsd => {
            let (latency, mw) = (params.nossd_router_latency, params.power.buffered_router_mw);
            Box::new(MeshFabric::new(params, None, latency, mw))
        }
        FabricKind::Venice => {
            let (scout, mw) = (Scout::new(&params), params.power.router_mw);
            Box::new(MeshFabric::new(params, Some(scout), SimDuration::ZERO, mw))
        }
        FabricKind::Ideal => Box::new(IdealFabric::new(params)),
    }
}

// ---------------------------------------------------------------------------
// Baseline / pSSD / pnSSD: shared channel buses
// ---------------------------------------------------------------------------

/// Charges one burst over a bus-style channel — a shared bus at `mult`×
/// the base bandwidth, or the ideal SSD's dedicated channel at 1× — and
/// returns its duration. Bus active power scales with the multiplier (pSSD
/// drives the pins twice as often), so energy per bit is constant.
fn bus_transfer(
    params: &FabricParams,
    stats: &mut FabricStats,
    bytes: u64,
    mult: f64,
) -> SimDuration {
    let d = params.bus_duration(bytes, mult);
    stats.transfers += 1;
    stats.bytes += bytes;
    stats.transfer_energy_nj += params.power.bus_mw * mult * d.as_nanos() as f64 / 1e3;
    d
}

/// Baseline, pSSD and pnSSD: one bus organization with different tables.
/// Every row has a shared bus driven by the row's controller; pSSD runs the
/// same buses at 2× bandwidth, and pnSSD adds one bus per column, driven by
/// the controller of the column's index (paper §3). A transfer holds its
/// controller and its bus — the paper's path conflict in its purest form.
#[derive(Debug)]
struct BusFabric {
    params: FabricParams,
    /// Bus bandwidth over the base channel rate (2× on pSSD).
    bandwidth_mult: f64,
    /// Whether every column also has a bus (pnSSD).
    column_buses: bool,
    /// `rows` row buses, followed by `cols` column buses on pnSSD.
    bus_busy: Vec<bool>,
    fc_busy: Vec<bool>,
    /// Active link-fault count per bus (same indexing as `bus_busy`). A
    /// chip is stranded only when every bus reaching it is dead: one break
    /// anywhere along a row bus strands the whole row on Baseline/pSSD (the
    /// fault ablation's headline contrast with the mesh), while pnSSD loses
    /// only the chips whose column bus is dead too — its two-path
    /// redundancy, bought back by the mesh's full path diversity.
    bus_dead: Vec<u8>,
    /// Per controller, the chips one of whose paths it drives: its row, and
    /// on pnSSD its column too ([`Fabric::release_scope`]).
    scopes: Vec<DenseBitSet>,
    stats: FabricStats,
}

impl BusFabric {
    fn new(params: FabricParams, bandwidth_mult: f64, column_buses: bool) -> Self {
        if column_buses {
            assert_eq!(
                params.rows, params.cols,
                "pnSSD requires an N×N flash array (paper §6.5 footnote)"
            );
        }
        let buses = usize::from(params.rows) + usize::from(column_buses) * usize::from(params.cols);
        let mesh = params.mesh();
        let scopes = (0..params.rows)
            .map(|k| {
                let mut scope = DenseBitSet::with_capacity(mesh.node_count());
                for n in (0..mesh.node_count()).map(|n| NodeId(n as u16)) {
                    if mesh.row(n) == k || (column_buses && mesh.col(n) == k) {
                        scope.insert(usize::from(n.0));
                    }
                }
                scope
            })
            .collect();
        BusFabric {
            bandwidth_mult,
            column_buses,
            bus_busy: vec![false; buses],
            fc_busy: vec![false; usize::from(params.rows)],
            bus_dead: vec![0; buses],
            scopes,
            params,
            stats: FabricStats::default(),
        }
    }

    /// Bus index of the link between `a` and `b`: a same-row link is part
    /// of that row's bus, a same-column link part of that column's bus on
    /// pnSSD. Baseline and pSSD have no column wiring.
    fn bus_of_link(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let mesh = self.params.mesh();
        if mesh.row(a) == mesh.row(b) {
            Some(usize::from(mesh.row(a)))
        } else if self.column_buses && mesh.col(a) == mesh.col(b) {
            Some(usize::from(self.params.rows) + usize::from(mesh.col(a)))
        } else {
            None
        }
    }

    /// The path [`Fabric::try_acquire`] would grant to `chip`, as (driving
    /// controller, bus): the row bus first (it is the baseline path), then
    /// pnSSD's column bus. Any failure short of every bus being dead is a
    /// path conflict, because the controller *is* the bus driver.
    fn free_path(&self, chip: NodeId) -> Result<(u16, usize), AcquireError> {
        let mesh = self.params.mesh();
        let (row, col) = (mesh.row(chip), mesh.col(chip));
        let paths = [
            (row, usize::from(row)),
            (col, usize::from(self.params.rows) + usize::from(col)),
        ];
        let paths = &paths[..1 + usize::from(self.column_buses)];
        if paths.iter().all(|&(_, bus)| self.bus_dead[bus] > 0) {
            return Err(AcquireError::ResourceDead);
        }
        paths
            .iter()
            .copied()
            .find(|&(fc, bus)| {
                self.bus_dead[bus] == 0 && !self.fc_busy[usize::from(fc)] && !self.bus_busy[bus]
            })
            .ok_or(AcquireError::PathConflict)
    }

    /// Chips stranded (or un-stranded) by bus `bus` changing state while
    /// every other bus keeps its current state: the chips on it whose other
    /// bus, if they have one, is also dead.
    fn chips_gated_by(&self, bus: usize) -> Vec<NodeId> {
        let mesh = self.params.mesh();
        let rows = usize::from(self.params.rows);
        if bus < rows {
            let row = bus as u16;
            (0..self.params.cols)
                .filter(|&c| !self.column_buses || self.bus_dead[rows + usize::from(c)] > 0)
                .map(|c| mesh.node_at(row, c))
                .collect()
        } else {
            let col = (bus - rows) as u16;
            (0..self.params.rows)
                .filter(|&r| self.bus_dead[usize::from(r)] > 0)
                .map(|r| mesh.node_at(r, col))
                .collect()
        }
    }
}

impl Fabric for BusFabric {
    fn controller_count(&self) -> usize {
        usize::from(self.params.rows)
    }

    fn try_acquire(&mut self, chip: NodeId) -> Result<PathGrant, AcquireError> {
        match self.free_path(chip) {
            Ok((fc, bus)) => {
                self.fc_busy[usize::from(fc)] = true;
                self.bus_busy[bus] = true;
                self.stats.acquisitions += 1;
                Ok(PathGrant {
                    fc: FcId(fc as u8),
                    chip,
                    route: Route::Bus { bus: bus as u16 },
                })
            }
            Err(e) => {
                if e == AcquireError::PathConflict {
                    self.stats.conflicts += 1;
                }
                Err(e)
            }
        }
    }

    fn acquire_outcome(&self, chip: NodeId) -> Option<Result<(), AcquireError>> {
        Some(self.free_path(chip).map(|_| ()))
    }

    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration {
        let _ = grant;
        bus_transfer(&self.params, &mut self.stats, bytes, self.bandwidth_mult)
    }

    fn release(&mut self, grant: PathGrant) {
        let Route::Bus { bus } = grant.route else {
            panic!("bus fabric received a non-bus grant");
        };
        debug_assert!(self.bus_busy[usize::from(bus)]);
        self.bus_busy[usize::from(bus)] = false;
        self.fc_busy[usize::from(grant.fc.0)] = false;
    }

    /// Controller k drives row bus k, and on pnSSD column bus k, and a bus
    /// is only ever held with its driver; so a chip blocked on every path
    /// frees up only when the driver of one of its buses is released.
    fn release_scope(&self, fc: FcId) -> Option<&DenseBitSet> {
        Some(&self.scopes[usize::from(fc.0)])
    }

    fn charge_conflicts(&mut self, n: u64) {
        self.stats.conflicts += n;
    }

    fn home_controller_free(&self, chip: NodeId) -> bool {
        let row = usize::from(self.params.mesh().row(chip));
        !self.fc_busy[row] && !self.bus_busy[row] && self.bus_dead[row] == 0
    }

    fn inject_fault(&mut self, fault: FabricFault) -> FaultImpact {
        let mut impact = FaultImpact::default();
        match fault {
            FabricFault::LinkDown { a, b } => {
                if let Some(bus) = self.bus_of_link(a, b) {
                    self.bus_dead[bus] += 1;
                    if self.bus_dead[bus] == 1 {
                        impact.dead_chips = self.chips_gated_by(bus);
                    }
                }
            }
            FabricFault::LinkUp { a, b } => {
                if let Some(bus) = self.bus_of_link(a, b).filter(|&bus| self.bus_dead[bus] > 0) {
                    self.bus_dead[bus] -= 1;
                    if self.bus_dead[bus] == 0 {
                        impact.revived_chips = self.chips_gated_by(bus);
                    }
                }
            }
            // A router fault on a bus design is the chip's bus interface
            // dying: only that chip is lost, the shared buses keep working.
            FabricFault::RouterDown(n) => impact.dead_chips.push(n),
            FabricFault::RouterUp(n) => impact.revived_chips.push(n),
        }
        impact
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// NoSSD / Venice: one mesh, two routers
// ---------------------------------------------------------------------------

/// The mesh's flash controllers, one at the west edge of every row.
#[derive(Clone, Debug)]
struct ControllerPool {
    busy: Vec<bool>,
    /// Controllers whose west-edge attach router is masked down by a fault:
    /// excluded from selection (a scout could not even leave the router).
    dead: Vec<bool>,
}

impl ControllerPool {
    fn new(rows: u16) -> Self {
        ControllerPool {
            busy: vec![false; usize::from(rows)],
            dead: vec![false; usize::from(rows)],
        }
    }

    /// The paper's §4.2 policy: the free controller closest to the target
    /// chip, the lower id on a tie (distance = row offset, since controllers
    /// sit one per row on the west edge). With `after`, the next free one
    /// after it in that `(distance, id)` order: NoSSD's fault fallback walks
    /// this chain, which ends because the keys strictly increase.
    fn nearest_free(&self, chip_row: u16, after: Option<FcId>) -> Option<FcId> {
        let key = |fc: u16| (fc.abs_diff(chip_row), fc);
        let floor = after.map(|fc| key(u16::from(fc.0)));
        (0..self.busy.len() as u16)
            .filter(|&fc| !self.busy[usize::from(fc)] && !self.dead[usize::from(fc)])
            .map(key)
            .filter(|&k| Some(k) > floor)
            .min()
            .map(|(_, fc)| FcId(fc as u8))
    }
}

/// A reservation granted by a mesh router: the controller, the path and
/// the latency before the first flit (the scout round trip on Venice).
type Reserved = Result<(FcId, ReservedPath, SimDuration), AcquireError>;

/// Venice's router: scout-packet path reservation with the non-minimal
/// fully-adaptive routing of Algorithm 1, its tie-breaks drawn from one
/// LFSR, and the optional fast-fail cache that replays failed walks.
#[derive(Debug)]
struct Scout {
    lfsr: Lfsr2,
    /// The fast-fail cache, present unless [`ScoutCacheKind::Off`].
    cache: Option<ScoutCache>,
}

impl Scout {
    fn new(params: &FabricParams) -> Self {
        let cache = (params.scout_cache != ScoutCacheKind::Off)
            .then(|| ScoutCache::new(usize::from(params.rows), params.mesh().node_count()));
        Scout {
            lfsr: Lfsr2::new(),
            cache,
        }
    }

    /// Reserves a circuit from `fc` to `chip` with a scout walk, or replays
    /// the cached failure of one.
    fn reserve(
        &mut self,
        params: &FabricParams,
        mesh: &mut MeshState,
        stats: &mut FabricStats,
        fc: FcId,
        chip: NodeId,
    ) -> Reserved {
        // Fast-fail cache consult: while every generation the recorded walk
        // observed is unchanged, the failure replays in O(frontier tiles).
        let phase = self.lfsr.state();
        let mut predicted: Option<FailedWalk> = None;
        if let Some(cache) = self.cache.as_mut() {
            if let Some(fw) = cache.lookup(fc, chip, phase, mesh) {
                if params.scout_cache == ScoutCacheKind::On {
                    stats.scout_fastfails += 1;
                    // The skipped walk would have consumed exactly these
                    // LFSR bits (same phase, or a phase-invariant cap-free
                    // entry); replaying them keeps every later walk's
                    // tie-breaks bit-identical to the uncached engine.
                    self.lfsr.advance(fw.lfsr_draws);
                    return Err(charge_failed_walk(stats, fw.steps, fw.misroutes));
                }
                // Checked: run the real walk below and cross-assert.
                predicted = Some(fw);
            }
        }
        match mesh.scout_walk_opts(
            fc.0,
            mesh.topology().fc_node(fc),
            chip,
            &mut self.lfsr,
            !params.venice_minimal_only,
        ) {
            Ok((path, outcome)) => {
                assert!(
                    predicted.is_none(),
                    "scout cache predicted a fast-fail for fc{} -> {} but the \
                     live walk succeeded (false fast-fail; Checked mode)",
                    fc.0,
                    chip.0
                );
                stats.scout_steps += u64::from(outcome.steps);
                stats.scout_detours += u64::from(outcome.detoured);
                stats.scout_misroutes += u64::from(outcome.misroutes);
                // Scout round trip: forward walk steps plus the return along
                // the reserved path, one link latency per flit hop.
                let round_trip = params.link_latency * u64::from(outcome.steps + path.hops());
                Ok((fc, path, round_trip))
            }
            Err(fail) => {
                if let Some(fw) = predicted {
                    // Checked-mode cross-check: the cache's replayed outcome
                    // must match the live walk in every observable.
                    assert_eq!(
                        (fw.steps, fw.misroutes, fw.lfsr_draws),
                        (fail.steps, fail.misroutes, fail.lfsr_draws),
                        "scout cache verdict diverged from the live walk for \
                         fc{} -> {} (steps/misroutes/draws)",
                        fc.0,
                        chip.0
                    );
                    stats.scout_fastfails += 1; // verified prediction
                }
                if let Some(cache) = self.cache.as_mut() {
                    cache.record(
                        fc,
                        chip,
                        FailedWalk {
                            extent: fail.extent,
                            seq: mesh.change_seq(),
                            steps: fail.steps,
                            misroutes: fail.misroutes,
                            lfsr_draws: fail.lfsr_draws,
                            phase,
                            cap_pruned: fail.cap_pruned,
                        },
                    );
                }
                Err(charge_failed_walk(stats, fail.steps, fail.misroutes))
            }
        }
    }
}

/// Charges the stats of one failed scout reservation (live or replayed) and
/// produces the acquire error. Keeping the two failure paths on one
/// accounting routine is what makes a fast-fail indistinguishable from the
/// walk it memoized — conflicts and scout steps match the uncached engine
/// exactly.
fn charge_failed_walk(stats: &mut FabricStats, steps: u32, misroutes: u32) -> AcquireError {
    stats.conflicts += 1;
    stats.scout_steps += u64::from(steps);
    stats.scout_failed_steps += u64::from(steps);
    stats.scout_misroutes += u64::from(misroutes);
    AcquireError::PathConflict
}

/// NoSSD and Venice: one 2D mesh of routers beside the chips, a controller
/// at the west edge of every row, the §4.2 nearest-free controller policy,
/// and Equation 1's transfer model. The two differ only in their router,
/// which is data here: Venice's [`Scout`] or NoSSD's deterministic XY
/// routing, and the router's per-hop latency and power.
#[derive(Debug)]
struct MeshFabric {
    params: FabricParams,
    mesh: MeshState,
    fcs: ControllerPool,
    /// Venice's router; `None` is NoSSD's, which has no reservation or
    /// backtracking: a transfer whose fixed XY path is held simply waits.
    scout: Option<Scout>,
    /// Per-hop pipeline latency of the routers a burst crosses (NoSSD's
    /// buffered routers; zero for Venice's circuit switches).
    router_latency: SimDuration,
    /// Power of one router while a burst crosses it, in mW.
    router_mw: f64,
    stats: FabricStats,
}

impl MeshFabric {
    fn new(params: FabricParams, scout: Option<Scout>, latency: SimDuration, mw: f64) -> Self {
        MeshFabric {
            mesh: MeshState::new(params.mesh(), usize::from(params.rows)),
            fcs: ControllerPool::new(params.rows),
            scout,
            router_latency: latency,
            router_mw: mw,
            params,
            stats: FabricStats::default(),
        }
    }

    /// NoSSD's router: reserves the whole XY path from `fc` to `chip`.
    fn reserve_xy(&mut self, mut fc: FcId, chip: NodeId) -> Reserved {
        let topo = self.mesh.topology();
        loop {
            let mut path = self.mesh.xy_path(topo.fc_node(fc), chip);
            path.packet_id = fc.0;
            if self.mesh.try_reserve_path(fc.0, &path) {
                return Ok((fc, path, SimDuration::ZERO));
            }
            let fault_blocked = self.mesh.path_fault_blocked(&path);
            self.mesh.recycle(path);
            // Ordinary contention on the deterministic route waits: NoSSD
            // has no adaptivity. A route severed by a downed link or router,
            // which no amount of waiting fixes, falls back to the next free
            // controller in nearest-first order: its XY route takes another
            // row spine, so a single fault never strands a live chip.
            // Exhausting the pool leaves a retryable conflict (a repair
            // event re-opens routes).
            let next = fault_blocked.then(|| self.fcs.nearest_free(topo.row(chip), Some(fc)));
            match next.flatten() {
                Some(next) => fc = next,
                None => {
                    self.stats.conflicts += 1;
                    return Err(AcquireError::PathConflict);
                }
            }
        }
    }
}

impl Fabric for MeshFabric {
    fn controller_count(&self) -> usize {
        usize::from(self.params.rows)
    }

    fn try_acquire(&mut self, chip: NodeId) -> Result<PathGrant, AcquireError> {
        let Some(first) = self.fcs.nearest_free(self.mesh.topology().row(chip), None) else {
            self.stats.controller_unavailable += 1;
            return Err(AcquireError::NoFreeController);
        };
        let (fc, path, setup) = match &mut self.scout {
            Some(scout) => {
                scout.reserve(&self.params, &mut self.mesh, &mut self.stats, first, chip)?
            }
            None => self.reserve_xy(first, chip)?,
        };
        debug_assert!(!self.fcs.busy[usize::from(fc.0)], "controller already busy");
        self.fcs.busy[usize::from(fc.0)] = true;
        self.stats.acquisitions += 1;
        self.stats.hops_total += u64::from(path.hops());
        Ok(PathGrant {
            fc,
            chip,
            route: Route::Mesh { path, setup },
        })
    }

    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration {
        let Route::Mesh { path, setup } = &grant.route else {
            panic!("mesh fabric received a non-mesh grant");
        };
        let hops = path.hops();
        let d = *setup
            + self.params.circuit_duration(hops, bytes)
            + self.router_latency * u64::from(hops);
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        let (ns, link_mw) = (d.as_nanos() as f64, self.params.power.link_mw);
        // Links along the path plus the routers they connect.
        self.stats.transfer_energy_nj +=
            (link_mw * hops as f64 + self.router_mw * (hops + 1) as f64) * ns / 1e3;
        d
    }

    fn release(&mut self, grant: PathGrant) {
        let Route::Mesh { path, .. } = grant.route else {
            panic!("mesh fabric received a non-mesh grant");
        };
        self.mesh.release_owned(path);
        let fc = usize::from(grant.fc.0);
        debug_assert!(self.fcs.busy[fc], "controller not busy");
        self.fcs.busy[fc] = false;
    }

    fn home_controller_free(&self, chip: NodeId) -> bool {
        let row = usize::from(self.mesh.topology().row(chip));
        !self.fcs.busy[row] && !self.fcs.dead[row]
    }

    /// Masks the link or router in [`MeshState`], whose setters stamp the
    /// generation counters, so every intersecting fast-fail cache entry
    /// self-invalidates on its next lookup, after faults and repairs alike.
    /// A link fault strands no chips (the mesh routes around it); a router
    /// fault kills exactly the chip at that node, and at a west-edge
    /// controller attach point it takes the controller out of the pool too.
    fn inject_fault(&mut self, fault: FabricFault) -> FaultImpact {
        let topo = self.mesh.topology();
        let up = !fault.is_down();
        let mut impact = FaultImpact::default();
        match fault {
            FabricFault::LinkDown { a, b } | FabricFault::LinkUp { a, b } => {
                self.mesh.set_link_state(a, b, up);
            }
            FabricFault::RouterDown(n) | FabricFault::RouterUp(n) => {
                self.mesh.set_router_state(n, up);
                if topo.col(n) == 0 {
                    self.fcs.dead[usize::from(topo.row(n))] = !up;
                }
                if up {
                    impact.revived_chips.push(n);
                } else {
                    impact.dead_chips.push(n);
                }
            }
        }
        impact
    }

    fn stats(&self) -> FabricStats {
        let mut stats = self.stats;
        if let Some(cache) = self.scout.as_ref().and_then(|s| s.cache.as_ref()) {
            stats.scout_cache_invalidations = cache.invalidations();
        }
        stats
    }
}

// ---------------------------------------------------------------------------
// Ideal: path-conflict-free SSD
// ---------------------------------------------------------------------------

/// The ideal SSD of §3.3: every chip has its own channel and controller, so
/// the only possible wait is on the chip's dedicated channel itself (which
/// the paper classifies as chip business, not a path conflict).
#[derive(Debug)]
struct IdealFabric {
    params: FabricParams,
    chan_busy: Vec<bool>,
    /// Dedicated channels failed by a router fault (the one shared-nothing
    /// resource the ideal SSD can lose; link faults are no-ops here).
    chan_dead: Vec<bool>,
    stats: FabricStats,
}

impl IdealFabric {
    fn new(params: FabricParams) -> Self {
        IdealFabric {
            chan_busy: vec![false; params.mesh().node_count()],
            chan_dead: vec![false; params.mesh().node_count()],
            params,
            stats: FabricStats::default(),
        }
    }
}

impl Fabric for IdealFabric {
    fn controller_count(&self) -> usize {
        self.params.mesh().node_count()
    }

    fn try_acquire(&mut self, chip: NodeId) -> Result<PathGrant, AcquireError> {
        let idx = usize::from(chip.0);
        if self.chan_dead[idx] {
            return Err(AcquireError::ResourceDead);
        }
        if self.chan_busy[idx] {
            self.stats.channel_busy += 1;
            return Err(AcquireError::ChannelBusy);
        }
        self.chan_busy[idx] = true;
        self.stats.acquisitions += 1;
        Ok(PathGrant {
            fc: FcId((chip.0 % self.params.rows) as u8),
            chip,
            route: Route::Dedicated { chip },
        })
    }

    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration {
        let _ = grant;
        bus_transfer(&self.params, &mut self.stats, bytes, 1.0)
    }

    fn release(&mut self, grant: PathGrant) {
        let Route::Dedicated { chip } = grant.route else {
            panic!("ideal fabric received a non-dedicated grant");
        };
        debug_assert!(self.chan_busy[usize::from(chip.0)]);
        self.chan_busy[usize::from(chip.0)] = false;
    }

    fn home_controller_free(&self, chip: NodeId) -> bool {
        let idx = usize::from(chip.0);
        !self.chan_busy[idx] && !self.chan_dead[idx]
    }

    fn inject_fault(&mut self, fault: FabricFault) -> FaultImpact {
        let mut impact = FaultImpact::default();
        match fault {
            // No shared links to break: the ideal SSD only loses a chip
            // when that chip's own channel/port fails.
            FabricFault::LinkDown { .. } | FabricFault::LinkUp { .. } => {}
            FabricFault::RouterDown(n) => {
                self.chan_dead[usize::from(n.0)] = true;
                impact.dead_chips.push(n);
            }
            FabricFault::RouterUp(n) => {
                self.chan_dead[usize::from(n.0)] = false;
                impact.revived_chips.push(n);
            }
        }
        impact
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acquire_ok(f: &mut dyn Fabric, chip: u16) -> PathGrant {
        f.try_acquire(NodeId(chip)).expect("acquire should succeed")
    }

    /// The Venice fabric [`build_fabric`] makes, with its router in reach.
    fn venice(params: FabricParams) -> MeshFabric {
        let scout = Some(Scout::new(&params));
        MeshFabric::new(params, scout, SimDuration::ZERO, params.power.router_mw)
    }

    #[test]
    fn baseline_same_row_conflicts() {
        let mut f = build_fabric(FabricKind::Baseline, FabricParams::table1());
        let g = acquire_ok(f.as_mut(), 0);
        // Chip 1 shares row 0's bus.
        assert_eq!(
            f.try_acquire(NodeId(1)).unwrap_err(),
            AcquireError::PathConflict
        );
        // Chip 8 is on row 1: free bus.
        let g2 = acquire_ok(f.as_mut(), 8);
        f.release(g);
        let g3 = acquire_ok(f.as_mut(), 1);
        f.release(g2);
        f.release(g3);
        assert_eq!(f.stats().conflicts, 1);
        assert_eq!(f.stats().acquisitions, 3);
    }

    #[test]
    fn bus_transfer_times_match_table1() {
        let mut f = build_fabric(FabricKind::Baseline, FabricParams::table1());
        let g = acquire_ok(f.as_mut(), 0);
        // 4 KiB at 1.2 GB/s ≈ 3413 ns + 3 ns overhead.
        let d = f.transfer(&g, 4096);
        assert_eq!(d.as_nanos(), 3 + (4096.0f64 / 1.2).round() as u64);
        // Command burst ≈ 10 ns (the paper's perf-optimized CMD latency).
        let d_cmd = f.transfer(&g, 8);
        assert!((9..=11).contains(&d_cmd.as_nanos()), "cmd {d_cmd}");
        f.release(g);
    }

    #[test]
    fn pssd_is_twice_as_fast_on_the_wire() {
        let mut base = build_fabric(FabricKind::Baseline, FabricParams::table1());
        let mut pssd = build_fabric(FabricKind::Pssd, FabricParams::table1());
        let gb = acquire_ok(base.as_mut(), 5);
        let gp = acquire_ok(pssd.as_mut(), 5);
        let db = base.transfer(&gb, 16 * 1024);
        let dp = pssd.transfer(&gp, 16 * 1024);
        assert!(db.as_nanos() > dp.as_nanos());
        // Wire time (minus fixed overhead) halves.
        assert!(((db.as_nanos() - 3) as f64 / (dp.as_nanos() - 3) as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn pnssd_uses_column_bus_when_row_is_busy() {
        let mut f = build_fabric(FabricKind::PnSsd, FabricParams::table1());
        let g_row = acquire_ok(f.as_mut(), 0); // row 0 via row bus, FC0
        assert_eq!(g_row.fc, FcId(0));
        // Second chip on row 0, column 3: row bus busy → column bus 3 (FC3).
        let g_col = acquire_ok(f.as_mut(), 3);
        assert_eq!(g_col.fc, FcId(3));
        // Third chip on row 0, column 3 again: both buses busy → conflict.
        let err = f.try_acquire(NodeId(3)).unwrap_err();
        assert_eq!(err, AcquireError::PathConflict);
        f.release(g_row);
        f.release(g_col);
    }

    /// The bus fabrics answer what an acquisition would return without
    /// taking anything.
    #[test]
    fn acquire_outcome_predicts_try_acquire_on_the_bus_fabrics() {
        let mut f = build_fabric(FabricKind::PnSsd, FabricParams::table1());
        let mut held = Vec::new();
        // Row 0's bus, then column 3's, then neither: chip 3 conflicts.
        for expect in [Ok(()), Ok(()), Err(AcquireError::PathConflict)] {
            let before = f.stats();
            assert_eq!(f.acquire_outcome(NodeId(3)), Some(expect));
            assert_eq!(f.stats(), before, "the query changes nothing");
            assert_eq!(f.try_acquire(NodeId(3)).map(|g| held.push(g)), expect);
        }
        // A break on row 0's bus and one on column 3's (chips 3 and 11
        // share the column): no retry can succeed.
        for (a, b) in [(0, 1), (3, 11)] {
            f.inject_fault(FabricFault::LinkDown {
                a: NodeId(a),
                b: NodeId(b),
            });
        }
        assert_eq!(
            f.acquire_outcome(NodeId(3)),
            Some(Err(AcquireError::ResourceDead))
        );
        for g in held {
            f.release(g);
        }
    }

    #[test]
    fn nossd_routes_from_nearest_free_controller() {
        let params = FabricParams::table1();
        let mut f = build_fabric(FabricKind::NoSsd, params);
        // Chip (0,7): nearest controller is FC0 → 7 hops along row 0.
        let g = acquire_ok(f.as_mut(), 7);
        assert_eq!(g.fc, FcId(0));
        assert_eq!(g.hops(), 7);
        // Chip (0,6) while FC0 is busy: falls over to FC1, whose XY path
        // runs along row 1 and then up — 8 hops, no shared link.
        let g2 = acquire_ok(f.as_mut(), 6);
        assert_eq!(g2.fc, FcId(1));
        assert_eq!(g2.hops(), 7);
        f.release(g);
        f.release(g2);
        assert_eq!(f.stats().acquisitions, 2);
    }

    #[test]
    fn venice_adapts_around_blocked_links() {
        let params = FabricParams::table1();
        let mut f = build_fabric(FabricKind::Venice, params);
        // Saturate: acquire one circuit per controller; all must succeed
        // because the adaptive walk finds disjoint paths.
        let mut grants = Vec::new();
        for i in 0..8u16 {
            let chip = i * 8 + 7; // column 7 of each row
            grants.push(acquire_ok(f.as_mut(), chip));
        }
        assert_eq!(f.stats().acquisitions, 8);
        // Ninth acquisition fails: all controllers busy.
        assert_eq!(
            f.try_acquire(NodeId(0)).unwrap_err(),
            AcquireError::NoFreeController
        );
        for g in grants {
            f.release(g);
        }
    }

    /// Both mesh routers on Equation 1, `(7 + 4096)` ns for a page over 7
    /// hops: NoSSD adds its buffered routers' 2 ns per hop, Venice the
    /// scout's round trip (8 forward steps, 7 back). Energy is the 7 links
    /// plus the 8 routers they connect, at each router's power.
    #[test]
    fn mesh_transfers_follow_equation_1() {
        let p = LinkPower::paper();
        let nossd = (FabricKind::NoSsd, 7 + 4096 + 2 * 7, p.buffered_router_mw);
        let venice = (FabricKind::Venice, 8 + 7 + 7 + 4096, p.router_mw);
        for ((kind, ns, router_mw), nj) in [(nossd, 110.50028), (venice, 39.071584)] {
            let mut f = build_fabric(kind, FabricParams::table1());
            let g = acquire_ok(f.as_mut(), 7); // row 0, col 7 → 7 hops from FC0
            assert_eq!((g.fc, g.hops()), (FcId(0), 7), "{kind}");
            assert_eq!(f.transfer(&g, 4096).as_nanos(), ns, "{kind}");
            let energy = (p.link_mw * 7.0 + router_mw * 8.0) * ns as f64 / 1e3;
            assert_eq!(f.stats().transfer_energy_nj, energy, "{kind}");
            assert!((energy - nj).abs() < 1e-9, "{kind}: {energy} nJ");
            f.release(g);
        }
    }

    #[test]
    fn ideal_only_blocks_per_chip() {
        let mut f = build_fabric(FabricKind::Ideal, FabricParams::table1());
        let mut grants = Vec::new();
        for chip in 0..64u16 {
            grants.push(acquire_ok(f.as_mut(), chip));
        }
        // A second transfer to chip 0 hits the dedicated channel.
        let err = f.try_acquire(NodeId(0)).unwrap_err();
        assert_eq!(err, AcquireError::ChannelBusy);
        assert!(!err.is_path_conflict());
        for g in grants {
            f.release(g);
        }
        assert_eq!(f.stats().conflicts, 0);
    }

    #[test]
    fn venice_beats_nossd_under_cross_traffic() {
        // Deterministic scenario: two transfers whose XY routes share a
        // column-7 link. NoSSD conflicts; Venice adapts around it.
        let params = FabricParams::table1();
        let mut nossd = build_fabric(FabricKind::NoSsd, params);
        let mut venice = build_fabric(FabricKind::Venice, params);

        let run = |f: &mut Box<dyn Fabric>| -> (Vec<PathGrant>, Result<PathGrant, AcquireError>) {
            let mut holds = Vec::new();
            // Pin FC1..FC4 to their own nodes (zero-hop circuits) so the
            // nearest-free policy must reach over rows for the real traffic.
            for row in 1..5u16 {
                holds.push(f.try_acquire(NodeId(row * 8)).unwrap());
            }
            // FC5 → (3,7): descends column 7 over rows 3..5.
            holds.push(f.try_acquire(NodeId(3 * 8 + 7)).unwrap());
            // FC6 → (4,7): its XY route needs the (4,7)–(5,7) link already
            // held by the previous transfer.
            let attempt = f.try_acquire(NodeId(4 * 8 + 7));
            (holds, attempt)
        };

        let (holds_n, res_n) = run(&mut nossd);
        assert_eq!(res_n.unwrap_err(), AcquireError::PathConflict);
        for g in holds_n {
            nossd.release(g);
        }

        let (holds_v, res_v) = run(&mut venice);
        let g = res_v.expect("venice's adaptive walk must find a detour");
        venice.release(g);
        for g in holds_v {
            venice.release(g);
        }
    }

    #[test]
    fn label_round_trips_through_by_label() {
        for kind in FabricKind::ALL {
            assert_eq!(FabricKind::by_label(kind.label()), Some(kind));
        }
        assert_eq!(FabricKind::by_label("venice"), Some(FabricKind::Venice));
        assert_eq!(FabricKind::by_label("PSSD"), Some(FabricKind::Pssd));
        assert_eq!(FabricKind::by_label("warp-drive"), None);
    }

    #[test]
    fn release_scopes_name_the_chips_a_controller_drives() {
        let params = FabricParams::table1();
        let mesh = params.mesh();
        for kind in FabricKind::ALL {
            let fabric = build_fabric(kind, params);
            let scope = fabric.release_scope(FcId(2));
            let expect: Option<Vec<usize>> = match kind {
                FabricKind::Baseline | FabricKind::Pssd => {
                    Some((0..8).map(|c| usize::from(mesh.node_at(2, c).0)).collect())
                }
                FabricKind::PnSsd => Some(
                    (0..mesh.node_count())
                        .filter(|&n| {
                            let n = NodeId(n as u16);
                            mesh.row(n) == 2 || mesh.col(n) == 2
                        })
                        .collect(),
                ),
                // Failed mesh walks move other state, and the ideal SSD's
                // busy channels are not path conflicts.
                FabricKind::NoSsd | FabricKind::Venice | FabricKind::Ideal => None,
            };
            assert_eq!(scope.map(|s| s.iter().collect::<Vec<_>>()), expect, "{kind}");
            // The dispatcher's debug check of a sleeper asks for this.
            assert_eq!(
                fabric.acquire_outcome(NodeId(0)).is_some(),
                scope.is_some(),
                "{kind}: release scopes without acquire_outcome"
            );
        }
        // A conflict the dispatcher replays lands in the fabric's stats.
        let mut bus = build_fabric(FabricKind::Baseline, params);
        bus.charge_conflicts(3);
        assert_eq!(bus.stats().conflicts, 3);
    }

    #[test]
    fn home_controller_free_tracks_acquisitions() {
        for kind in FabricKind::ALL {
            let mut f = build_fabric(kind, FabricParams::table1());
            // Chip (0,1): its home row is 0.
            assert!(f.home_controller_free(NodeId(1)), "{kind}: idle fabric");
            let g = f.try_acquire(NodeId(1)).unwrap();
            assert!(
                !f.home_controller_free(NodeId(1)),
                "{kind}: home resource must appear busy"
            );
            f.release(g);
            assert!(f.home_controller_free(NodeId(1)), "{kind}: released");
        }
    }

    #[test]
    fn minimal_only_venice_cannot_take_the_figure8_detour() {
        // With misrouting disabled, a fully blocked minimal frontier makes
        // the reservation fail where full Venice succeeds.
        let mut params = FabricParams::table1();
        params.rows = 4;
        params.cols = 5;
        let build_blocked = |minimal_only: bool| {
            let mut p = params;
            p.venice_minimal_only = minimal_only;
            let mut mesh = MeshState::new(p.mesh(), 4);
            mesh.reserve_explicit(0, &[NodeId(0), NodeId(1), NodeId(6)]);
            mesh.reserve_explicit(1, &[NodeId(5), NodeId(6), NodeId(7), NodeId(8)]);
            mesh.reserve_explicit(2, &[NodeId(10), NodeId(11), NodeId(12), NodeId(7)]);
            (p, mesh)
        };
        use crate::mesh::MeshState;
        use venice_sim::rng::Lfsr2;
        let (_, mut mesh_min) = build_blocked(true);
        let mut lfsr = Lfsr2::new();
        assert!(
            mesh_min
                .scout_walk_opts(3, NodeId(15), NodeId(2), &mut lfsr, false)
                .is_err(),
            "minimal-only routing must fail the Figure 8 scenario"
        );
        let (_, mut mesh_full) = build_blocked(false);
        assert!(
            mesh_full
                .scout_walk_opts(3, NodeId(15), NodeId(2), &mut lfsr, true)
                .is_ok(),
            "full non-minimal routing must succeed"
        );
    }

    #[test]
    fn venice_scout_cache_replays_failures_bit_identically() {
        // Drive a cache-off and a cache-on Venice fabric in lockstep with a
        // deterministic random acquire/release script on a small, easily
        // congested mesh. Every outcome (success / error kind / transfer
        // duration) must match step for step — in particular, whenever an
        // attempt fails on a path conflict we immediately retry it, which
        // on the cached fabric exercises the fast-fail path (nothing
        // changed in between) while the uncached fabric re-runs the DFS.
        let mut params = FabricParams::table1();
        params.rows = 4;
        params.cols = 4;
        let mut off = venice(FabricParams {
            scout_cache: crate::ScoutCacheKind::Off,
            ..params
        });
        let mut on = venice(FabricParams {
            scout_cache: crate::ScoutCacheKind::On,
            ..params
        });
        let mut rng = venice_sim::rng::Xorshift64Star::new(0x5C07);
        let mut grants: Vec<(PathGrant, PathGrant)> = Vec::new();
        let mut conflicts = 0u32;
        for _ in 0..4_000 {
            if !grants.is_empty() && rng.next_bool(0.35) {
                let idx = rng.next_bounded(grants.len() as u64) as usize;
                let (a, b) = grants.swap_remove(idx);
                off.release(a);
                on.release(b);
                continue;
            }
            let chip = NodeId(rng.next_bounded(16) as u16);
            let (ra, rb) = (off.try_acquire(chip), on.try_acquire(chip));
            match (ra, rb) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.fc, b.fc);
                    assert_eq!(a.hops(), b.hops());
                    let (da, db) = (off.transfer(&a, 4096), on.transfer(&b, 4096));
                    assert_eq!(da, db, "transfer durations must match");
                    grants.push((a, b));
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "failure kinds must match");
                    if ea.is_path_conflict() {
                        conflicts += 1;
                        // Immediate retry over an unchanged mesh: the
                        // cached fabric must reproduce the uncached walk's
                        // verdict without running it.
                        let (ra2, rb2) = (off.try_acquire(chip), on.try_acquire(chip));
                        assert_eq!(ra2.unwrap_err(), rb2.unwrap_err());
                    }
                }
                (a, b) => panic!("engines diverged: off={a:?} on={b:?}"),
            }
        }
        for (a, b) in grants.drain(..) {
            off.release(a);
            on.release(b);
        }
        let (so, sn) = (off.stats(), on.stats());
        assert!(conflicts > 0, "script must exercise path conflicts");
        assert!(sn.scout_fastfails > 0, "cache must actually fast-fail");
        // Every simulated-behavior stat is bit-identical; only the cache's
        // own effort counters may differ.
        assert_eq!(so.acquisitions, sn.acquisitions);
        assert_eq!(so.conflicts, sn.conflicts);
        assert_eq!(so.scout_steps, sn.scout_steps);
        assert_eq!(so.scout_failed_steps, sn.scout_failed_steps);
        assert_eq!(so.scout_misroutes, sn.scout_misroutes);
        assert_eq!(so.scout_detours, sn.scout_detours);
        assert_eq!(so.hops_total, sn.hops_total);
        assert_eq!(so.transfer_energy_nj.to_bits(), sn.transfer_energy_nj.to_bits());
        assert_eq!(so.scout_fastfails, 0);
        // And the two LFSRs end in the same state — the draw-replay
        // contract that keeps later walks aligned.
        let lfsr = |f: &MeshFabric| f.scout.as_ref().map(|s| s.lfsr.state());
        assert_eq!(lfsr(&off), lfsr(&on));
    }

    #[test]
    fn checked_mode_verifies_cache_verdicts_live() {
        // Same script shape as above but in Checked mode: the cache's
        // verdicts are asserted against the live walk inside try_acquire,
        // so simply completing the run is the cross-check.
        let mut params = FabricParams::table1();
        params.rows = 4;
        params.cols = 4;
        params.scout_cache = crate::ScoutCacheKind::Checked;
        let mut f = venice(params);
        let mut rng = venice_sim::rng::Xorshift64Star::new(0xC4EC);
        let mut grants: Vec<PathGrant> = Vec::new();
        for _ in 0..4_000 {
            if !grants.is_empty() && rng.next_bool(0.35) {
                let idx = rng.next_bounded(grants.len() as u64) as usize;
                f.release(grants.swap_remove(idx));
                continue;
            }
            let chip = NodeId(rng.next_bounded(16) as u16);
            match f.try_acquire(chip) {
                Ok(g) => grants.push(g),
                Err(e) if e.is_path_conflict() => {
                    // Unchanged mesh: the prediction must verify (any
                    // divergence panics inside try_acquire).
                    let retry = f.try_acquire(chip);
                    assert!(retry.is_err(), "unchanged mesh cannot start succeeding");
                }
                Err(_) => {}
            }
        }
        assert!(
            f.stats().scout_fastfails > 0,
            "checked mode must verify at least one cached verdict"
        );
    }

    #[test]
    fn bus_link_fault_strands_the_row_until_repair() {
        let mesh = FabricParams::table1().mesh();
        for kind in [FabricKind::Baseline, FabricKind::Pssd] {
            let mut f = build_fabric(kind, FabricParams::table1());
            let (a, b) = (mesh.node_at(1, 3), mesh.node_at(1, 4));
            let impact = f.inject_fault(FabricFault::LinkDown { a, b });
            // One broken bus segment strands the whole row.
            assert_eq!(impact.dead_chips.len(), 8, "{kind}");
            assert!(impact.dead_chips.iter().all(|&n| mesh.row(n) == 1));
            assert_eq!(
                f.try_acquire(mesh.node_at(1, 0)).unwrap_err(),
                AcquireError::ResourceDead,
                "{kind}"
            );
            assert!(!f.home_controller_free(mesh.node_at(1, 0)));
            // Dead-resource rejections are not Figure 13 path conflicts.
            assert_eq!(f.stats().conflicts, 0, "{kind}");
            // Other rows are unaffected.
            let g = acquire_ok(f.as_mut(), 2 * 8);
            f.release(g);
            // Repair revives the row.
            let impact = f.inject_fault(FabricFault::LinkUp { a, b });
            assert_eq!(impact.revived_chips.len(), 8, "{kind}");
            let g = acquire_ok(f.as_mut(), 8);
            f.release(g);
            // A same-column link is not bus wiring on a row-bus design: its
            // fault and repair strand and revive nothing.
            let (a, b) = (mesh.node_at(1, 3), mesh.node_at(2, 3));
            for fault in [FabricFault::LinkDown { a, b }, FabricFault::LinkUp { a, b }] {
                assert_eq!(f.inject_fault(fault), FaultImpact::default(), "{kind}");
                for chip in 0..64u16 {
                    let g = acquire_ok(f.as_mut(), chip);
                    f.release(g);
                }
            }
        }
    }

    #[test]
    fn pnssd_survives_one_dead_bus_and_loses_only_the_intersection_of_two() {
        let params = FabricParams::table1();
        let mesh = params.mesh();
        let mut f = build_fabric(FabricKind::PnSsd, params);
        // Row bus 1 dies: no chip is stranded — the column buses remain.
        let impact = f.inject_fault(FabricFault::LinkDown {
            a: mesh.node_at(1, 3),
            b: mesh.node_at(1, 4),
        });
        assert!(impact.dead_chips.is_empty());
        let g = acquire_ok(f.as_mut(), 8 + 5); // chip (1,5) via column bus 5
        assert_eq!(g.fc, FcId(5));
        f.release(g);
        // Column bus 3 also dies: exactly chip (1,3) is now unreachable.
        let impact = f.inject_fault(FabricFault::LinkDown {
            a: mesh.node_at(5, 3),
            b: mesh.node_at(6, 3),
        });
        assert_eq!(impact.dead_chips, vec![mesh.node_at(1, 3)]);
        assert_eq!(
            f.try_acquire(mesh.node_at(1, 3)).unwrap_err(),
            AcquireError::ResourceDead
        );
        // Same column, different row: still served over its row bus.
        let g = acquire_ok(f.as_mut(), 2 * 8 + 3);
        assert_eq!(g.fc, FcId(2));
        f.release(g);
        // Repairing the column bus revives the intersection chip.
        let impact = f.inject_fault(FabricFault::LinkUp {
            a: mesh.node_at(5, 3),
            b: mesh.node_at(6, 3),
        });
        assert_eq!(impact.revived_chips, vec![mesh.node_at(1, 3)]);
        let g = acquire_ok(f.as_mut(), 8 + 3);
        f.release(g);
    }

    #[test]
    fn venice_reroutes_around_a_link_fault_that_blocks_nossd_xy() {
        let params = FabricParams::table1();
        let mesh = params.mesh();
        let fault = FabricFault::LinkDown {
            a: mesh.node_at(1, 3),
            b: mesh.node_at(1, 4),
        };
        // NoSSD: the deterministic XY route from the home-row controller
        // dies on the masked link, so the pool falls over to the next
        // controller (in nearest-first order) whose XY route avoids it.
        let mut nossd = build_fabric(FabricKind::NoSsd, params);
        assert!(nossd.inject_fault(fault).dead_chips.is_empty());
        let g = nossd
            .try_acquire(mesh.node_at(1, 7))
            .expect("a detour controller must route around the fault");
        assert_ne!(g.fc, FcId(1), "home-row route is severed");
        nossd.release(g);
        // With every other controller mid-transfer, the chip is only
        // *temporarily* unreachable — a retryable conflict (repair or a
        // release unblocks it), never a dead resource.
        let held: Vec<_> = (0u16..8)
            .filter(|&r| r != 1)
            .map(|r| acquire_ok(nossd.as_mut(), r * 8 + 1))
            .collect();
        assert_eq!(
            nossd.try_acquire(mesh.node_at(1, 7)).unwrap_err(),
            AcquireError::PathConflict
        );
        for g in held {
            nossd.release(g);
        }
        // Venice: the scout detours around the dead link and still grants.
        let mut venice = build_fabric(FabricKind::Venice, params);
        assert!(venice.inject_fault(fault).dead_chips.is_empty());
        let g = venice
            .try_acquire(mesh.node_at(1, 7))
            .expect("scout must route around the dead link");
        assert!(g.hops() > 7, "minimal row path is broken, must detour");
        venice.release(g);
    }

    #[test]
    fn router_fault_kills_the_chip_and_a_west_edge_fault_parks_the_controller() {
        let params = FabricParams::table1();
        let mesh = params.mesh();
        let mut f = build_fabric(FabricKind::Venice, params);
        // Mid-mesh router dies: exactly that chip is lost; traffic around
        // it still routes.
        let dead = mesh.node_at(1, 4);
        let impact = f.inject_fault(FabricFault::RouterDown(dead));
        assert_eq!(impact.dead_chips, vec![dead]);
        let g = acquire_ok(f.as_mut(), 8 + 7); // chip (1,7) beyond the hole
        f.release(g);
        // West-edge router dies: its controller leaves the pool, so the
        // nearest-free policy silently falls over to a neighbor row.
        let edge = mesh.node_at(2, 0);
        f.inject_fault(FabricFault::RouterDown(edge));
        let g = acquire_ok(f.as_mut(), 2 * 8 + 5);
        assert_ne!(g.fc, FcId(2), "dead controller must not be selected");
        f.release(g);
        // Repairs restore both.
        f.inject_fault(FabricFault::RouterUp(edge));
        f.inject_fault(FabricFault::RouterUp(dead));
        let g = acquire_ok(f.as_mut(), 2 * 8 + 5);
        assert_eq!(g.fc, FcId(2));
        f.release(g);
    }

    #[test]
    fn ideal_loses_only_the_faulted_channel() {
        let mut f = build_fabric(FabricKind::Ideal, FabricParams::table1());
        let impact = f.inject_fault(FabricFault::RouterDown(NodeId(42)));
        assert_eq!(impact.dead_chips, vec![NodeId(42)]);
        assert_eq!(
            f.try_acquire(NodeId(42)).unwrap_err(),
            AcquireError::ResourceDead
        );
        let g = acquire_ok(f.as_mut(), 43);
        f.release(g);
        // Link faults have nothing to break on dedicated channels.
        let impact = f.inject_fault(FabricFault::LinkDown {
            a: NodeId(0),
            b: NodeId(1),
        });
        assert_eq!(impact, FaultImpact::default());
        let impact = f.inject_fault(FabricFault::RouterUp(NodeId(42)));
        assert_eq!(impact.revived_chips, vec![NodeId(42)]);
        let g = acquire_ok(f.as_mut(), 42);
        f.release(g);
    }

    #[test]
    fn stats_track_energy_and_bytes() {
        let mut f = build_fabric(FabricKind::Venice, FabricParams::table1());
        let g = acquire_ok(f.as_mut(), 9);
        f.transfer(&g, 4096);
        f.release(g);
        let s = f.stats();
        assert_eq!(s.bytes, 4096);
        assert_eq!(s.transfers, 1);
        assert!(s.transfer_energy_nj > 0.0);
    }
}
