//! The six intra-SSD communication fabrics behind one interface.
//!
//! Each fabric implements [`Fabric`]: a controller-to-chip *path* is
//! acquired for one transfer burst (a command, or a page of data), held for
//! the duration returned by [`Fabric::transfer`], and released. This mirrors
//! the service timeline of Figure 3: the path is free while the flash array
//! operation (tR/tPROG/tBERS) executes inside the chip.
//!
//! Designs (§3 and §4 of the paper):
//!
//! * [`FabricKind::Baseline`] — multi-channel shared bus, one channel per row.
//! * [`FabricKind::Pssd`] — packetized SSD: same topology, 2× bus bandwidth.
//! * [`FabricKind::PnSsd`] — packetized network SSD: a row bus *and* a column
//!   bus reach every chip; each controller drives one row and one column bus.
//! * [`FabricKind::NoSsd`] — 2D mesh with buffered routers and deterministic
//!   dimension-order (XY) routing.
//! * [`FabricKind::Venice`] — 2D mesh of router chips, circuit switching via
//!   scout-packet path reservation, non-minimal fully-adaptive routing.
//! * [`FabricKind::Ideal`] — the path-conflict-free SSD: a dedicated channel
//!   (and controller) per chip; requests only ever wait on the chip itself.
//!
//! The three bus designs run on one bus fabric that differs only in its
//! table: the bus bandwidth, and whether every column has a bus too.

use std::fmt;

use venice_sim::rng::Lfsr2;
use venice_sim::SimDuration;

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
    /// A reserved Venice circuit, with the scout's round-trip latency.
    Circuit {
        path: ReservedPath,
        scout_latency: SimDuration,
    },
    /// A NoSSD wormhole path (whole XY path held for the burst).
    Wormhole { path: ReservedPath },
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
            Route::Circuit { path, .. } | Route::Wormhole { path } => path.hops(),
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

    /// Duration of a `bytes`-byte burst over the granted path, including any
    /// reservation latency. Also accrues transfer energy into the stats.
    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration;

    /// Releases the grant's controller and path. On the designs with a
    /// controller pool (NoSSD, Venice), every release returns a controller
    /// to it.
    fn release(&mut self, grant: PathGrant);

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
        FabricKind::NoSsd => Box::new(NoSsdFabric::new(params)),
        FabricKind::Venice => Box::new(VeniceFabric::new(params)),
        FabricKind::Ideal => Box::new(IdealFabric::new(params)),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Controller availability tracking shared by the mesh fabrics.
#[derive(Clone, Debug)]
struct ControllerPool {
    busy: Vec<bool>,
    /// Controllers whose west-edge attach router is masked down by a fault:
    /// excluded from selection (a scout could not even leave the router).
    dead: Vec<bool>,
    rows: u16,
}

impl ControllerPool {
    fn new(rows: u16) -> Self {
        ControllerPool {
            busy: vec![false; usize::from(rows)],
            dead: vec![false; usize::from(rows)],
            rows,
        }
    }

    /// The paper's §4.2 policy: the closest controller to the target chip if
    /// free, otherwise the nearest free controller (distance = row offset,
    /// since controllers sit one per row on the west edge).
    fn nearest_free(&self, chip_row: u16) -> Option<FcId> {
        let n = i32::from(self.rows);
        let target = i32::from(chip_row);
        (0..n)
            .filter(|&fc| !self.busy[fc as usize] && !self.dead[fc as usize])
            .min_by_key(|&fc| ((fc - target).abs(), fc))
            .map(|fc| FcId(fc as u8))
    }

    /// The next free controller after `prev` in [`ControllerPool::nearest_free`]'s
    /// `(distance, id)` ordering — the NoSSD fault fallback walks this chain
    /// when a deterministic XY route is severed by a downed link or router,
    /// so the fixed-route fabric still reaches the chip from a controller
    /// whose route avoids the fault. Strictly increasing keys guarantee
    /// termination.
    fn next_free_after(&self, prev: FcId, chip_row: u16) -> Option<FcId> {
        let n = i32::from(self.rows);
        let target = i32::from(chip_row);
        let prev_key = ((i32::from(prev.0) - target).abs(), i32::from(prev.0));
        (0..n)
            .filter(|&fc| !self.busy[fc as usize] && !self.dead[fc as usize])
            .map(|fc| ((fc - target).abs(), fc))
            .filter(|&k| k > prev_key)
            .min()
            .map(|(_, fc)| FcId(fc as u8))
    }

    fn acquire(&mut self, fc: FcId) {
        debug_assert!(!self.busy[usize::from(fc.0)], "controller already busy");
        self.busy[usize::from(fc.0)] = true;
    }

    fn release(&mut self, fc: FcId) {
        debug_assert!(self.busy[usize::from(fc.0)], "controller not busy");
        self.busy[usize::from(fc.0)] = false;
    }
}

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

/// Shared [`Fabric::inject_fault`] body of the two mesh fabrics (NoSSD and
/// Venice): maps the fault onto [`MeshState`]'s down-masks — whose setters
/// stamp the generation counters, invalidating every intersecting
/// scout-cache extent — and computes the blast radius. A link fault strands
/// no chips (the mesh routes around it); a router fault kills exactly the
/// chip at that node, and when the node is a west-edge controller attach
/// point it takes the controller out of the pool too.
fn mesh_inject_fault(
    mesh: &mut MeshState,
    fcs: &mut ControllerPool,
    fault: FabricFault,
) -> FaultImpact {
    let topo = mesh.topology();
    let up = !fault.is_down();
    let mut impact = FaultImpact::default();
    match fault {
        FabricFault::LinkDown { a, b } | FabricFault::LinkUp { a, b } => {
            mesh.set_link_state(a, b, up);
        }
        FabricFault::RouterDown(n) | FabricFault::RouterUp(n) => {
            mesh.set_router_state(n, up);
            if topo.col(n) == 0 {
                fcs.dead[usize::from(topo.row(n))] = !up;
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

// ---------------------------------------------------------------------------
// Baseline / pSSD / pnSSD: shared channel buses
// ---------------------------------------------------------------------------

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
        BusFabric {
            bandwidth_mult,
            column_buses,
            bus_busy: vec![false; buses],
            fc_busy: vec![false; usize::from(params.rows)],
            bus_dead: vec![0; buses],
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
        let mesh = self.params.mesh();
        let (row, col) = (mesh.row(chip), mesh.col(chip));
        // The row bus first (it is the baseline path), then pnSSD's column
        // bus, each as (driving controller, bus).
        let paths = [
            (row, usize::from(row)),
            (col, usize::from(self.params.rows) + usize::from(col)),
        ];
        let paths = &paths[..1 + usize::from(self.column_buses)];
        if paths.iter().all(|&(_, bus)| self.bus_dead[bus] > 0) {
            return Err(AcquireError::ResourceDead);
        }
        for &(fc, bus) in paths {
            if self.bus_dead[bus] == 0 && !self.fc_busy[usize::from(fc)] && !self.bus_busy[bus] {
                self.fc_busy[usize::from(fc)] = true;
                self.bus_busy[bus] = true;
                self.stats.acquisitions += 1;
                return Ok(PathGrant {
                    fc: FcId(fc as u8),
                    chip,
                    route: Route::Bus { bus: bus as u16 },
                });
            }
        }
        // The controller *is* the bus driver, so any failure to start a
        // transfer is a path conflict (every live path to the chip is
        // occupied).
        self.stats.conflicts += 1;
        Err(AcquireError::PathConflict)
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
// NoSSD: buffered-router mesh, deterministic XY routing
// ---------------------------------------------------------------------------

/// NoSSD: the chips form a mesh, but routing is deterministic dimension-order
/// and there is no reservation/backtracking — a transfer whose fixed XY path
/// is blocked simply waits.
#[derive(Debug)]
struct NoSsdFabric {
    params: FabricParams,
    mesh: MeshState,
    fcs: ControllerPool,
    stats: FabricStats,
}

impl NoSsdFabric {
    fn new(params: FabricParams) -> Self {
        NoSsdFabric {
            mesh: MeshState::new(params.mesh(), usize::from(params.rows)),
            fcs: ControllerPool::new(params.rows),
            params,
            stats: FabricStats::default(),
        }
    }
}

impl Fabric for NoSsdFabric {
    fn controller_count(&self) -> usize {
        usize::from(self.params.rows)
    }

    fn try_acquire(&mut self, chip: NodeId) -> Result<PathGrant, AcquireError> {
        let topo = self.mesh.topology();
        let Some(first) = self.fcs.nearest_free(topo.row(chip)) else {
            self.stats.controller_unavailable += 1;
            return Err(AcquireError::NoFreeController);
        };
        let mut fc = first;
        loop {
            let mut path = self.mesh.xy_path(topo.fc_node(fc), chip);
            path.packet_id = fc.0;
            if self.mesh.try_reserve_path(fc.0, &path) {
                self.fcs.acquire(fc);
                self.stats.acquisitions += 1;
                self.stats.hops_total += u64::from(path.hops());
                return Ok(PathGrant {
                    fc,
                    chip,
                    route: Route::Wormhole { path },
                });
            }
            let fault_blocked = self.mesh.path_fault_blocked(&path);
            self.mesh.recycle(path);
            if !fault_blocked {
                // Ordinary contention on the deterministic route: NoSSD has
                // no adaptivity, so the transfer waits (pre-fault behavior,
                // bit-identical when no faults are injected).
                self.stats.conflicts += 1;
                return Err(AcquireError::PathConflict);
            }
            // The fixed XY route is severed by a downed link/router, which
            // no amount of waiting fixes. Fall back to the next-nearest free
            // controller — its XY route takes a different row spine, so a
            // single fault never strands a live chip. Exhausting the pool
            // leaves a retryable conflict (a repair event re-opens routes).
            match self.fcs.next_free_after(fc, topo.row(chip)) {
                Some(next) => fc = next,
                None => {
                    self.stats.conflicts += 1;
                    return Err(AcquireError::PathConflict);
                }
            }
        }
    }

    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration {
        let Route::Wormhole { path } = &grant.route else {
            panic!("NoSSD fabric received a non-wormhole grant");
        };
        let hops = path.hops();
        let d = self.params.circuit_duration(hops, bytes)
            + self.params.nossd_router_latency * u64::from(hops);
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        let ns = d.as_nanos() as f64;
        let p = &self.params.power;
        // Links along the path plus the buffered routers they connect.
        self.stats.transfer_energy_nj += (p.link_mw * hops as f64
            + p.buffered_router_mw * (hops + 1) as f64)
            * ns
            / 1e3;
        d
    }

    fn release(&mut self, grant: PathGrant) {
        let Route::Wormhole { path } = grant.route else {
            panic!("NoSSD fabric received a non-wormhole grant");
        };
        self.mesh.release_owned(path);
        self.fcs.release(grant.fc);
    }

    fn home_controller_free(&self, chip: NodeId) -> bool {
        let row = usize::from(self.mesh.topology().row(chip));
        !self.fcs.busy[row] && !self.fcs.dead[row]
    }

    fn inject_fault(&mut self, fault: FabricFault) -> FaultImpact {
        mesh_inject_fault(&mut self.mesh, &mut self.fcs, fault)
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Venice: circuit switching with scout-packet reservation
// ---------------------------------------------------------------------------

/// Venice: the paper's design. Nearest-free controller, scout-packet path
/// reservation with the non-minimal fully-adaptive routing of Algorithm 1,
/// and circuit-switched bursts over the reserved bidirectional path.
#[derive(Debug)]
struct VeniceFabric {
    params: FabricParams,
    mesh: MeshState,
    fcs: ControllerPool,
    lfsr: Lfsr2,
    stats: FabricStats,
    /// The fast-fail cache, present unless [`ScoutCacheKind::Off`].
    cache: Option<ScoutCache>,
}

impl VeniceFabric {
    fn new(params: FabricParams) -> Self {
        let mesh = MeshState::new(params.mesh(), usize::from(params.rows));
        let cache = (params.scout_cache != ScoutCacheKind::Off).then(|| {
            ScoutCache::new(usize::from(params.rows), params.mesh().node_count())
        });
        VeniceFabric {
            mesh,
            fcs: ControllerPool::new(params.rows),
            lfsr: Lfsr2::new(),
            params,
            stats: FabricStats::default(),
            cache,
        }
    }

    /// Charges the stats of one failed path reservation (live or replayed)
    /// and produces the acquire error. Keeping the two failure paths on one
    /// accounting routine is what makes a fast-fail indistinguishable from
    /// the walk it memoized — conflicts and scout steps match the uncached
    /// engine exactly.
    fn charge_failed_walk(&mut self, steps: u32, misroutes: u32) -> AcquireError {
        self.stats.conflicts += 1;
        self.stats.scout_steps += u64::from(steps);
        self.stats.scout_failed_steps += u64::from(steps);
        self.stats.scout_misroutes += u64::from(misroutes);
        AcquireError::PathConflict
    }
}

impl Fabric for VeniceFabric {
    fn controller_count(&self) -> usize {
        usize::from(self.params.rows)
    }

    fn try_acquire(&mut self, chip: NodeId) -> Result<PathGrant, AcquireError> {
        let topo = self.mesh.topology();
        let Some(fc) = self.fcs.nearest_free(topo.row(chip)) else {
            self.stats.controller_unavailable += 1;
            return Err(AcquireError::NoFreeController);
        };
        // Fast-fail cache consult: while every generation the recorded walk
        // observed is unchanged, the failure replays in O(frontier tiles).
        let phase = self.lfsr.state();
        let mut predicted: Option<FailedWalk> = None;
        if let Some(cache) = self.cache.as_mut() {
            if let Some(fw) = cache.lookup(fc, chip, phase, &self.mesh) {
                if self.params.scout_cache == ScoutCacheKind::On {
                    self.stats.scout_fastfails += 1;
                    // The skipped walk would have consumed exactly these
                    // LFSR bits (same phase, or a phase-invariant cap-free
                    // entry); replaying them keeps every later walk's
                    // tie-breaks bit-identical to the uncached engine.
                    self.lfsr.advance(fw.lfsr_draws);
                    return Err(self.charge_failed_walk(fw.steps, fw.misroutes));
                }
                // Checked: run the real walk below and cross-assert.
                predicted = Some(fw);
            }
        }
        match self.mesh.scout_walk_opts(
            fc.0,
            topo.fc_node(fc),
            chip,
            &mut self.lfsr,
            !self.params.venice_minimal_only,
        ) {
            Ok((path, outcome)) => {
                assert!(
                    predicted.is_none(),
                    "scout cache predicted a fast-fail for fc{} -> {} but the \
                     live walk succeeded (false fast-fail; Checked mode)",
                    fc.0,
                    chip.0
                );
                self.fcs.acquire(fc);
                self.stats.acquisitions += 1;
                self.stats.scout_steps += u64::from(outcome.steps);
                self.stats.scout_detours += u64::from(outcome.detoured);
                self.stats.scout_misroutes += u64::from(outcome.misroutes);
                self.stats.hops_total += u64::from(path.hops());
                // Scout round trip: forward walk steps plus the return along
                // the reserved path, one link latency per flit hop.
                let scout_latency =
                    self.params.link_latency * u64::from(outcome.steps + path.hops());
                Ok(PathGrant {
                    fc,
                    chip,
                    route: Route::Circuit {
                        path,
                        scout_latency,
                    },
                })
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
                    self.stats.scout_fastfails += 1; // verified prediction
                }
                if let Some(cache) = self.cache.as_mut() {
                    cache.record(
                        fc,
                        chip,
                        FailedWalk {
                            extent: fail.extent,
                            seq: self.mesh.change_seq(),
                            steps: fail.steps,
                            misroutes: fail.misroutes,
                            lfsr_draws: fail.lfsr_draws,
                            phase,
                            cap_pruned: fail.cap_pruned,
                        },
                    );
                }
                Err(self.charge_failed_walk(fail.steps, fail.misroutes))
            }
        }
    }

    fn transfer(&mut self, grant: &PathGrant, bytes: u64) -> SimDuration {
        let Route::Circuit {
            path,
            scout_latency,
        } = &grant.route
        else {
            panic!("Venice fabric received a non-circuit grant");
        };
        let hops = path.hops();
        let d = *scout_latency + self.params.circuit_duration(hops, bytes);
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        let ns = d.as_nanos() as f64;
        let p = &self.params.power;
        self.stats.transfer_energy_nj +=
            (p.link_mw * hops as f64 + p.router_mw * (hops + 1) as f64) * ns / 1e3;
        d
    }

    fn release(&mut self, grant: PathGrant) {
        let Route::Circuit { path, .. } = grant.route else {
            panic!("Venice fabric received a non-circuit grant");
        };
        self.mesh.release_owned(path);
        self.fcs.release(grant.fc);
    }

    fn home_controller_free(&self, chip: NodeId) -> bool {
        let row = usize::from(self.mesh.topology().row(chip));
        !self.fcs.busy[row] && !self.fcs.dead[row]
    }

    fn inject_fault(&mut self, fault: FabricFault) -> FaultImpact {
        // The mask setters stamp the generation counters, so intersecting
        // fast-fail cache entries self-invalidate on their next lookup —
        // both for faults (a cached *success* region now blocked) and for
        // repairs (a cached *failure* that the freed link could un-block).
        mesh_inject_fault(&mut self.mesh, &mut self.fcs, fault)
    }

    fn stats(&self) -> FabricStats {
        let mut stats = self.stats;
        if let Some(cache) = &self.cache {
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

    #[test]
    fn venice_transfer_follows_equation_1() {
        let mut f = build_fabric(FabricKind::Venice, FabricParams::table1());
        let g = acquire_ok(f.as_mut(), 7); // row 0, col 7 → 7 hops from FC0
        assert_eq!(g.hops(), 7);
        let d = f.transfer(&g, 4096);
        // (distance + bytes/width) * link_lat = (7 + 4096) ns, plus the
        // scout's round trip.
        assert!(d.as_nanos() >= 7 + 4096, "duration {d}");
        assert!(d.as_nanos() < 7 + 4096 + 200, "scout latency too large: {d}");
        f.release(g);
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
        let mut off = VeniceFabric::new(FabricParams {
            scout_cache: crate::ScoutCacheKind::Off,
            ..params
        });
        let mut on = VeniceFabric::new(FabricParams {
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
        assert_eq!(off.lfsr.state(), on.lfsr.state());
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
        let mut f = VeniceFabric::new(params);
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
