//! Shared mesh state: link reservations, router reservation tables, and the
//! two routing algorithms (Venice's non-minimal fully-adaptive scout walk,
//! and dimension-order XY used by NoSSD).

use std::sync::OnceLock;

use venice_sim::rng::Lfsr2;

use crate::router::{Port, ReservationEntry};
use crate::{Direction, LinkId, Mesh2D, NodeId};

/// A reserved circuit through the mesh: the ordered nodes and links from the
/// source (controller attach) node to the destination flash node.
///
/// Paths handed out by [`MeshState::scout_walk`] / [`MeshState::xy_path`]
/// draw their `nodes`/`links` buffers from the mesh's internal pool; return
/// them with [`MeshState::release_owned`] (or [`MeshState::recycle`] for
/// never-reserved paths) to keep steady-state routing allocation-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReservedPath {
    /// Packet ID (= source controller ID) holding the reservation.
    pub packet_id: u8,
    /// Nodes visited, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Links reserved, in traversal order (`nodes.len() - 1` of them).
    pub links: Vec<LinkId>,
}

impl ReservedPath {
    /// Number of router-to-router hops.
    pub fn hops(&self) -> u32 {
        self.links.len() as u32
    }
}

/// Why a scout walk failed to reserve a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoutFailure {
    /// Total forward/backtrack steps taken before giving up.
    pub steps: u32,
    /// Misroute (non-minimal port) selections made before giving up.
    pub misroutes: u32,
    /// LFSR bits the walk consumed (tie-breaks + misroute picks).
    pub lfsr_draws: u32,
    /// True when the livelock entry cap rejected at least one port that
    /// passed every other usability test. A capped walk's exploration tree
    /// depends on visit order (and therefore on the LFSR phase it started
    /// from), so its failure is **not cacheable**: only cap-free failures
    /// have phase-invariant verdict/steps/draws (see
    /// [`crate::scout::ScoutCache`]).
    pub cap_pruned: bool,
    /// Bounding box `(min_row, max_row, min_col, max_col)` of every router
    /// the scout *entered*. Every link whose state the walk observed has at
    /// least one endpoint in this box, so any later reservation-state change
    /// inside the box is a superset of the changes that could alter the
    /// walk's outcome — the fast-fail cache's invalidation extent.
    pub extent: (u16, u16, u16, u16),
}

/// Outcome statistics of a successful scout walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoutOutcome {
    /// Steps taken, counting forward moves and backtracks.
    pub steps: u32,
    /// True if the walk ever had to misroute (take a non-minimal port) or
    /// backtrack — i.e. a minimal path was not cleanly available.
    pub detoured: bool,
    /// Misroute (non-minimal port) selections made along the way.
    pub misroutes: u32,
    /// LFSR bits the walk consumed (tie-breaks + misroute picks).
    pub lfsr_draws: u32,
}

/// Livelock bound: a scout may enter a router at most `1 + 3` times (ports
/// minus the entry port, per the paper's §4.3 footnote).
const MAX_ENTRIES_PER_ROUTER: u8 = 4;

/// High bit of a walk-local router byte: the router holds a reservation row
/// for the walking packet (a frame on the DFS stack, or an older circuit of
/// the same packet) or lies off the mesh. The low bits count the scout's
/// entries, so a far router is enterable when its byte is below
/// [`MAX_ENTRIES_PER_ROUTER`] and cap-pruned when it equals it.
const HELD: u8 = 0x80;

/// Choice-table flag: the step takes the port in bits 0–1.
const CHOSEN: u8 = 0x40;
/// Choice-table flag: the chosen port is a misroute (non-minimal).
const MISROUTE: u8 = 0x80;

/// The mask bit of one router port.
const fn port_bit(d: Direction) -> u8 {
    1 << d.encoding()
}

/// Index into [`choice_table`].
fn choice_index(usable: u8, minimal: u8, lfsr_state: u8, allow_misroute: bool) -> usize {
    usize::from(usable & 0xF)
        | usize::from(minimal & 0xF) << 4
        | usize::from(lfsr_state & 0b11) << 8
        | usize::from(allow_misroute) << 10
}

/// Algorithm 1's port choice for every (usable ports, minimal ports, LFSR
/// state, misroute allowed) a DFS step can see. An entry holds the chosen
/// direction's encoding in bits 0–1 when [`CHOSEN`] is set (clear: dead
/// end), the LFSR state after the step in bits 2–3, the bits drawn in bits
/// 4–5, and [`MISROUTE`]. Built once by running [`Lfsr2`] itself through
/// the selection rules, so the walk's tie-breaks are the register's.
fn choice_table() -> &'static [u8; 2048] {
    static TABLE: OnceLock<[u8; 2048]> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Algorithm 1 lists the minimal ports x first, then y.
        const X_THEN_Y: [Direction; 4] = [
            Direction::Right,
            Direction::Left,
            Direction::Down,
            Direction::Up,
        ];
        let nth = |mask: u8, order: &[Direction], n: usize| {
            let mut ports = order.iter().filter(|&&d| mask & port_bit(d) != 0);
            ports.nth(n).copied()
        };
        let mut table = [0u8; 2048];
        for (i, slot) in table.iter_mut().enumerate() {
            let (usable, minimal) = (i as u8 & 0xF, (i >> 4) as u8 & 0xF);
            let allow_misroute = i >> 10 & 1 == 1;
            let mut lfsr = Lfsr2::with_seed((i >> 8) as u8);
            let mut draws = 0u8;
            let mut draw = |lfsr: &mut Lfsr2| {
                draws += 1;
                usize::from(lfsr.next_bit())
            };
            let candidates = usable & minimal;
            let (choice, misroute) = match candidates.count_ones() {
                // Two minimal candidates: LFSR tie-break (Alg. 1 line 28).
                2 => (nth(candidates, &X_THEN_Y, draw(&mut lfsr)), false),
                1 => (nth(candidates, &X_THEN_Y, 0), false),
                // No minimal port: misroute through any free port, picked
                // with two successive LFSR bits — the cheap hardware
                // equivalent of a uniform pick (Alg. 1 lines 34–45).
                _ if allow_misroute && usable != 0 => {
                    let idx = draw(&mut lfsr) * 2 + draw(&mut lfsr);
                    let n = usable.count_ones() as usize;
                    (nth(usable, &Direction::ALL, idx % n), true)
                }
                _ => (None, false),
            };
            *slot = choice.map_or(0, |d| CHOSEN | d.encoding())
                | if misroute { MISROUTE } else { 0 }
                | lfsr.state() << 2
                | draws << 4;
        }
        table
    })
}

/// One DFS frame of a scout walk.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// The router's cell in the padded walk grid ([`MeshState::walk`]).
    cell: u32,
    /// The router's node id.
    node: u16,
    /// The router's mesh row.
    row: u16,
    /// The router's mesh column.
    col: u16,
    /// Output ports already attempted from this frame ([`port_bit`]s).
    tried: u8,
    /// Encoding of the port taken to the next frame (frames below the top).
    exit: u8,
}

/// Mutable reservation state of a 2D-mesh interconnect: per-link owner and
/// per-router reservation tables.
///
/// Used by both the Venice fabric (scout walks + circuit switching) and the
/// NoSSD fabric (XY paths). All mutation is instantaneous from the
/// simulation's perspective; the caller charges the appropriate wire
/// latencies.
///
/// The mesh owns reusable scout scratch (walk-local router bytes, the DFS
/// stack) and a pool of [`ReservedPath`] buffers, so steady-state routing
/// performs no heap allocation.
#[derive(Clone, Debug)]
pub struct MeshState {
    topo: Mesh2D,
    /// `Some(packet_id)` when reserved.
    links: Vec<Option<u8>>,
    controllers: usize,
    /// Per router, one byte of output-port state a scout step reads instead
    /// of three arrays per port. The low nibble has the [`port_bit`] of
    /// every port that is *closed*: it leaves the mesh, or its link or the
    /// router across it is down (`sync_closed_ports`, on fault events). The
    /// high nibble has the port bits shifted by 4 of every port whose link
    /// is reserved (`set_link_owner`, on every reservation and release).
    ports: Vec<u8>,
    /// The router reservation tables (Figure 7), packet-major:
    /// `rows[packet * node_count + node]` is the packet's
    /// [`ReservationEntry::pack`]ed row in that router, 0 when empty. One
    /// packet's rows over the whole mesh form one contiguous slice, which a
    /// walk seeds its [`HELD`] bits from.
    rows: Vec<u8>,
    /// Scout scratch: the walk-local router bytes ([`HELD`] plus the entry
    /// count) over the mesh padded by a ring of off-mesh cells; router
    /// `(row, col)` lives at cell `(row + 1) * (cols + 2) + col + 1`. The
    /// ring is [`HELD`] forever — the off-mesh sentinel that lets a step
    /// read all four neighbours without an edge test.
    walk: Vec<u8>,
    /// Scout scratch: the DFS stack.
    stack: Vec<Frame>,
    /// Recycled `ReservedPath` buffers.
    path_pool: Vec<ReservedPath>,
    /// Fault mask: `true` for links taken down by a fault event. A downed
    /// link rejects new reservations (scout walks and XY circuits alike)
    /// until repaired; a circuit already holding the link drains normally
    /// and the link stays blocked after its release.
    link_down: Vec<bool>,
    /// Fault mask: `true` for routers taken down by a fault event. The
    /// scout DFS refuses to *enter* a downed router and
    /// [`MeshState::try_reserve_path`] rejects paths crossing one.
    router_down: Vec<bool>,
    /// Monotone change sequence: bumped once per reservation-state change
    /// (a circuit installed or released). Failed scout walks write no
    /// shared state and do **not** bump it.
    change_seq: u64,
    /// Per-router generation stamp: the [`MeshState::change_seq`] value of
    /// the last reservation change that touched the router. A region whose
    /// stamps are all ≤ some snapshot is bit-identical to how it looked at
    /// snapshot time — the contract the scout fast-fail cache keys on.
    stamps: Vec<u64>,
    /// Second level over [`MeshState::stamps`]: the maximum stamp in each
    /// mesh row, so a validity scan skips whole clean rows in O(1) — on a
    /// saturated 32×32 mesh a fast-fail's extent is often the entire mesh,
    /// and without this tier the O(rows × cols) tile scan eats a good part
    /// of the skipped walk's savings.
    row_stamps: Vec<u64>,
}

impl MeshState {
    /// Creates an idle mesh with `controllers` packet IDs per router table.
    pub fn new(topo: Mesh2D, controllers: usize) -> Self {
        let edges = |n| {
            Direction::ALL
                .into_iter()
                .filter(|&d| topo.neighbor(n, d).is_none())
                .fold(0, |mask, d| mask | port_bit(d))
        };
        let padded = (usize::from(topo.rows()) + 2) * (usize::from(topo.cols()) + 2);
        MeshState {
            topo,
            links: vec![None; topo.link_count()],
            controllers,
            ports: topo.nodes().map(edges).collect(),
            rows: vec![0; controllers * topo.node_count()],
            walk: vec![HELD; padded],
            stack: Vec::new(),
            path_pool: Vec::new(),
            link_down: vec![false; topo.link_count()],
            router_down: vec![false; topo.node_count()],
            change_seq: 0,
            stamps: vec![0; topo.node_count()],
            row_stamps: vec![0; usize::from(topo.rows())],
        }
    }

    /// The current reservation-change sequence number (see
    /// [`MeshState::region_changed_since`]). Snapshot it when recording a
    /// failed-walk cache entry.
    pub fn change_seq(&self) -> u64 {
        self.change_seq
    }

    /// True when any router inside the `(min_row, max_row, min_col,
    /// max_col)` box has seen a reservation change after `snapshot` — the
    /// O(extent tiles) validity test of the scout fast-fail cache.
    pub fn region_changed_since(
        &self,
        snapshot: u64,
        extent: (u16, u16, u16, u16),
    ) -> bool {
        // Every reservation change stamps at least one router, so an
        // unchanged global sequence proves the whole mesh — a fortiori any
        // region — is untouched: the O(1) common case for retries landing
        // between two fabric state changes.
        if self.change_seq <= snapshot {
            return false;
        }
        let (min_row, max_row, min_col, max_col) = extent;
        let full_width = min_col == 0 && max_col + 1 == self.topo.cols();
        for r in min_row..=max_row {
            // Row tier: a row whose maximum stamp is ≤ the snapshot cannot
            // contain a changed tile; a dirty full-width row is decisive.
            if self.row_stamps[usize::from(r)] <= snapshot {
                continue;
            }
            if full_width {
                return true;
            }
            for c in min_col..=max_col {
                if self.stamps[self.topo.node_at(r, c).0 as usize] > snapshot {
                    return true;
                }
            }
        }
        false
    }

    /// Records one reservation-state change touching `nodes`: bumps the
    /// change sequence and stamps every touched router with it. Both
    /// installing and releasing a circuit stamp its nodes — a fast-fail
    /// verdict is only replayable while the observed region is unchanged in
    /// *either* direction (a freed link could un-block the walk; a newly
    /// reserved one would change its exploration and LFSR draws).
    fn stamp_nodes(&mut self, nodes: &[NodeId]) {
        self.change_seq += 1;
        let seq = self.change_seq;
        for &n in nodes {
            self.stamps[n.0 as usize] = seq;
            self.row_stamps[usize::from(self.topo.row(n))] = seq;
        }
    }

    /// Takes an empty path buffer from the pool (or allocates one).
    fn pooled_path(&mut self, packet_id: u8) -> ReservedPath {
        let mut p = self.path_pool.pop().unwrap_or_default();
        p.packet_id = packet_id;
        debug_assert!(p.nodes.is_empty() && p.links.is_empty());
        p
    }

    /// Returns a path's buffers to the pool **without** touching any
    /// reservations (for paths that were never, or are no longer, reserved).
    pub fn recycle(&mut self, mut path: ReservedPath) {
        path.nodes.clear();
        path.links.clear();
        // Bound pool growth; in steady state there is one path per
        // controller plus a few transients.
        if self.path_pool.len() < 4 * self.controllers + 8 {
            self.path_pool.push(path);
        }
    }

    /// Releases a circuit and recycles its buffers: the allocation-free
    /// steady-state variant of [`MeshState::release`].
    pub fn release_owned(&mut self, path: ReservedPath) {
        self.release(&path);
        self.recycle(path);
    }

    /// The mesh topology.
    pub fn topology(&self) -> Mesh2D {
        self.topo
    }

    /// True if the link is currently unreserved **and** not masked down by
    /// a fault: the single gate every reservation path (scout walk, XY
    /// circuit, explicit reserve) goes through.
    pub fn link_free(&self, l: LinkId) -> bool {
        self.links[l.0 as usize].is_none() && !self.link_down[l.0 as usize]
    }

    /// Sets the fault mask of the link between adjacent nodes `a` and `b`
    /// (in either order); `up = false` takes it down, `up = true` repairs
    /// it. Both transitions stamp the link's endpoint routers — the
    /// fault-event contract: a cached scout verdict that observed the link
    /// entered at least one endpoint, so stamping both endpoints
    /// invalidates every intersecting [`crate::scout::ScoutCache`] extent
    /// (a downed link can newly block a walk; a repaired one can un-block
    /// it). Returns `false` when `a` and `b` are not adjacent.
    pub fn set_link_state(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let Some(dir) = Direction::ALL
            .into_iter()
            .find(|&d| self.topo.neighbor(a, d) == Some(b))
        else {
            return false;
        };
        let link = self.topo.link(a, dir).expect("adjacent nodes share a link");
        let down = !up;
        if self.link_down[link.0 as usize] != down {
            self.link_down[link.0 as usize] = down;
            self.sync_closed_ports(link, a, b);
            self.stamp_nodes(&[a, b]);
        }
        true
    }

    /// Sets the fault mask of router `n`; `up = false` takes it down,
    /// `up = true` repairs it. Both transitions stamp the router **and all
    /// its neighbors**: a walk blocked while trying to enter `n` only has
    /// the neighbor it probed from in its recorded extent, so stamping `n`
    /// alone would leave that cached verdict replayable against changed
    /// state.
    pub fn set_router_state(&mut self, n: NodeId, up: bool) {
        let down = !up;
        if self.router_down[n.0 as usize] == down {
            return;
        }
        self.router_down[n.0 as usize] = down;
        let mut touched = [n; 5];
        let mut count = 1;
        for d in Direction::ALL {
            if let (Some(nb), Some(link)) = (self.topo.neighbor(n, d), self.topo.link(n, d)) {
                self.sync_closed_ports(link, n, nb);
                touched[count] = nb;
                count += 1;
            }
        }
        self.stamp_nodes(&touched[..count]);
    }

    /// Which packet holds a link, if any.
    pub fn link_owner(&self, l: LinkId) -> Option<u8> {
        self.links[l.0 as usize]
    }

    /// Number of currently reserved links.
    pub fn reserved_link_count(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// The reservation-table row packet `packet_id` holds in router `n`, if
    /// any (for diagnostics/tests). `None` for a packet id beyond the
    /// controller count.
    pub fn reservation(&self, n: NodeId, packet_id: u8) -> Option<ReservationEntry> {
        let row = self.rows.get(self.row_index(packet_id, n))?;
        ReservationEntry::unpack(packet_id, *row)
    }

    /// Index of packet `packet_id`'s row in router `n` within
    /// [`MeshState::rows`].
    fn row_index(&self, packet_id: u8, n: NodeId) -> usize {
        usize::from(packet_id) * self.topo.node_count() + usize::from(n.0)
    }

    /// Installs packet `packet_id`'s row in router `n`.
    ///
    /// # Panics
    ///
    /// Panics if the packet already holds a row there: a circuit visits a
    /// router once.
    fn install_row(&mut self, packet_id: u8, n: NodeId, entry: Port, exit: Port) {
        let i = self.row_index(packet_id, n);
        let held = self.rows[i] != 0;
        assert!(!held, "router {n} already holds packet {packet_id}'s row");
        self.rows[i] = ReservationEntry::pack(entry, exit);
    }

    /// The two router ports `link` joins, as `[(router, port bit); 2]`;
    /// `a` and `b` are its routers, in either order.
    fn link_ports(&self, link: LinkId, a: NodeId, b: NodeId) -> [(usize, u8); 2] {
        // Links are numbered horizontal first (`Mesh2D::link`). A horizontal
        // link joins the Right port of its lower-numbered router to the Left
        // port of the other, a vertical one Down to Up. Down and Up sit two
        // encodings from Right and Left, so a shift picks the pair without a
        // direction branch.
        let horizontal = usize::from(self.topo.rows()) * usize::from(self.topo.cols() - 1);
        let shift = 2 * u8::from(link.0 as usize >= horizontal);
        let (low, high) = (usize::from(a.0.min(b.0)), usize::from(a.0.max(b.0)));
        [
            (low, port_bit(Direction::Right) << shift),
            (high, port_bit(Direction::Left) >> shift),
        ]
    }

    /// Sets the owner of `link`, which joins routers `a` and `b` (either
    /// order), and its reserved bit in both routers' [`MeshState::ports`].
    fn set_link_owner(&mut self, link: LinkId, a: NodeId, b: NodeId, owner: Option<u8>) {
        self.links[link.0 as usize] = owner;
        for (router, port) in self.link_ports(link, a, b) {
            let reserved = port << 4;
            let mask = &mut self.ports[router];
            *mask = if owner.is_some() {
                *mask | reserved
            } else {
                *mask & !reserved
            };
        }
    }

    /// Recomputes `link`'s closed bit in both routers' [`MeshState::ports`]
    /// after a fault or repair of the link or of one of its routers `a` and
    /// `b` (either order).
    fn sync_closed_ports(&mut self, link: LinkId, a: NodeId, b: NodeId) {
        let down = self.link_down[link.0 as usize];
        let [low, high] = self.link_ports(link, a, b);
        for ((router, port), (across, _)) in [(low, high), (high, low)] {
            let closed = down | self.router_down[across];
            let mask = &mut self.ports[router];
            *mask = (*mask & !port) | (port * u8::from(closed));
        }
    }

    /// Reserves an explicit node path for `packet_id` (test/scenario setup;
    /// the Venice fabric itself reserves via [`MeshState::scout_walk`]).
    ///
    /// # Panics
    ///
    /// Panics if consecutive nodes are not adjacent, a link is already
    /// reserved, or a router already holds a row for this packet.
    pub fn reserve_explicit(&mut self, packet_id: u8, nodes: &[NodeId]) -> ReservedPath {
        assert!(!nodes.is_empty(), "path must contain at least one node");
        assert!(
            usize::from(packet_id) < self.controllers,
            "packet id out of range"
        );
        let mut links = Vec::with_capacity(nodes.len().saturating_sub(1));
        let mut entry = Port::Injection;
        for w in nodes.windows(2) {
            let dir = Direction::ALL
                .into_iter()
                .find(|&d| self.topo.neighbor(w[0], d) == Some(w[1]))
                .expect("consecutive nodes must be adjacent");
            let link = self.topo.link(w[0], dir).expect("adjacent nodes share a link");
            assert!(self.link_free(link), "link {link} already reserved");
            self.set_link_owner(link, w[0], w[1], Some(packet_id));
            self.install_row(packet_id, w[0], entry, Port::Mesh(dir));
            entry = Port::Mesh(dir.opposite());
            links.push(link);
        }
        let last = *nodes.last().expect("non-empty");
        self.install_row(packet_id, last, entry, Port::Ejection);
        self.stamp_nodes(nodes);
        ReservedPath {
            packet_id,
            nodes: nodes.to_vec(),
            links,
        }
    }

    /// Releases a circuit: frees its links and clears its router rows.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the path's links were not owned by its packet —
    /// that would indicate reservation bookkeeping corruption.
    pub fn release(&mut self, path: &ReservedPath) {
        for (hop, &l) in path.nodes.windows(2).zip(&path.links) {
            debug_assert_eq!(self.links[l.0 as usize], Some(path.packet_id));
            self.set_link_owner(l, hop[0], hop[1], None);
        }
        let nodes = self.topo.node_count();
        let rows = &mut self.rows[usize::from(path.packet_id) * nodes..][..nodes];
        for &n in &path.nodes {
            rows[usize::from(n.0)] = 0;
        }
        self.stamp_nodes(&path.nodes);
    }

    /// The dimension-order (XY) path from `src` to `dst`: X (columns) first,
    /// then Y (rows) — NoSSD's deterministic minimal route.
    ///
    /// The returned path draws its buffers from the mesh's pool; hand it
    /// back with [`MeshState::recycle`] / [`MeshState::release_owned`] to
    /// keep routing allocation-free.
    pub fn xy_path(&mut self, src: NodeId, dst: NodeId) -> ReservedPath {
        let mut path = self.pooled_path(0);
        path.nodes.push(src);
        let mut cur = src;
        loop {
            let dc = i32::from(self.topo.col(dst)) - i32::from(self.topo.col(cur));
            let dr = i32::from(self.topo.row(dst)) - i32::from(self.topo.row(cur));
            let dir = if dc > 0 {
                Direction::Right
            } else if dc < 0 {
                Direction::Left
            } else if dr > 0 {
                Direction::Down
            } else if dr < 0 {
                Direction::Up
            } else {
                break;
            };
            path.links.push(self.topo.link(cur, dir).expect("in-mesh step"));
            cur = self.topo.neighbor(cur, dir).expect("in-mesh step");
            path.nodes.push(cur);
        }
        path
    }

    /// True when `path` crosses a fault-masked resource (a downed link or
    /// router): the reservation failure is *structural*, not contention —
    /// retrying the same route cannot succeed until a repair event. With no
    /// faults injected this is always `false`, so fault-aware callers (the
    /// NoSSD controller fallback) behave identically to the pre-fault code.
    pub fn path_fault_blocked(&self, path: &ReservedPath) -> bool {
        path.nodes.iter().any(|&n| self.router_down[n.0 as usize])
            || path.links.iter().any(|&l| self.link_down[l.0 as usize])
    }

    /// Attempts to atomically reserve an explicit path (used by the NoSSD
    /// fabric for its XY circuits). Returns `false` — reserving nothing —
    /// if any link on the path is busy.
    pub fn try_reserve_path(&mut self, packet_id: u8, path: &ReservedPath) -> bool {
        if path.nodes.iter().any(|&n| self.router_down[n.0 as usize]) {
            return false;
        }
        if !path.links.iter().all(|&l| self.link_free(l)) {
            return false;
        }
        for (hop, &l) in path.nodes.windows(2).zip(&path.links) {
            self.set_link_owner(l, hop[0], hop[1], Some(packet_id));
        }
        // NoSSD routers are buffered and have no reservation table; rows are
        // only maintained for the Venice walk, so nothing to record here.
        self.stamp_nodes(&path.nodes);
        true
    }

    /// Venice's path reservation: routes a scout packet from `src` to `dst`
    /// with the non-minimal fully-adaptive algorithm (Algorithm 1), reserving
    /// links as it goes, backtracking in cancel mode when stuck, and bounding
    /// revisits per router (livelock rule: at most 3 revisits, i.e. 4 entries).
    ///
    /// On success the path's links are left reserved for `packet_id` and the
    /// corresponding router-reservation-table rows are installed; the caller
    /// later frees them with [`MeshState::release`]. On failure all tentative
    /// reservations have been cancelled and the mesh is unchanged.
    ///
    /// `lfsr` provides the 2-bit hardware tie-break between two minimal
    /// candidate ports.
    ///
    /// # Errors
    ///
    /// [`ScoutFailure`] when every feasible port assignment was exhausted
    /// (the scout returned to the source controller in cancel mode).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are out of the mesh or `packet_id` exceeds
    /// the controller count.
    pub fn scout_walk(
        &mut self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
    ) -> Result<(ReservedPath, ScoutOutcome), ScoutFailure> {
        self.scout_walk_opts(packet_id, src, dst, lfsr, true)
    }

    /// [`MeshState::scout_walk`] with the non-minimal misrouting stage made
    /// optional (`allow_misroute = false` restricts the scout to minimal
    /// ports plus backtracking — the ablation of §4.3's key technique).
    ///
    /// The walk keeps its tentative circuit in walk-local scratch and writes
    /// link owners, rows and stamps only once it reaches `dst`; it observes
    /// exactly what a walk reserving hop by hop would (see
    /// `docs/ARCHITECTURE.md`, "Packed scout walk").
    pub fn scout_walk_opts(
        &mut self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
        allow_misroute: bool,
    ) -> Result<(ReservedPath, ScoutOutcome), ScoutFailure> {
        assert!((src.0 as usize) < self.topo.node_count(), "src out of mesh");
        assert!((dst.0 as usize) < self.topo.node_count(), "dst out of mesh");
        assert!(
            usize::from(packet_id) < self.controllers,
            "packet id out of range"
        );

        // Reusable scratch: take the buffers out of `self` for the duration
        // of the walk (installing the circuit needs `&mut self`).
        let mut walk = std::mem::take(&mut self.walk);
        let mut stack = std::mem::take(&mut self.stack);
        let result = self
            .scout_dfs(
                packet_id,
                src,
                dst,
                lfsr,
                allow_misroute,
                &mut walk,
                &mut stack,
            )
            .map(|outcome| (self.install(packet_id, &stack), outcome));
        self.walk = walk;
        self.stack = stack;
        result
    }

    /// The DFS body of [`MeshState::scout_walk_opts`]. It reads the shared
    /// state and writes only the caller-provided scratch: on success `stack`
    /// holds the path's frames for [`MeshState::install`].
    ///
    /// The tentative circuit needs no shared mark. Its routers are exactly
    /// the frames on the stack, flagged [`HELD`] in `walk`. Its links need
    /// none either: the only one touching the top frame leads to the
    /// parent, which is [`HELD`] and so refused anyway.
    #[allow(clippy::too_many_arguments)]
    fn scout_dfs(
        &self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
        allow_misroute: bool,
        walk: &mut [u8],
        stack: &mut Vec<Frame>,
    ) -> Result<ScoutOutcome, ScoutFailure> {
        let cols = self.topo.cols();
        let width = usize::from(cols) + 2;
        // Seed the walk-local bytes: HELD where the packet already holds a
        // row, no entries anywhere. The off-mesh ring is never rewritten.
        let nodes = self.topo.node_count();
        let held = &self.rows[usize::from(packet_id) * nodes..][..nodes];
        for (r, held_row) in held.chunks_exact(usize::from(cols)).enumerate() {
            let cells = &mut walk[(r + 1) * width + 1..][..usize::from(cols)];
            for (w, &row) in cells.iter_mut().zip(held_row) {
                *w = if row == 0 { 0 } else { HELD };
            }
        }
        let frame_at = |n: NodeId| {
            let (row, col) = (self.topo.row(n), self.topo.col(n));
            let cell = (usize::from(row) + 1) * width + usize::from(col) + 1;
            Frame {
                cell: cell as u32,
                node: n.0,
                row,
                col,
                tried: 0,
                exit: 0,
            }
        };
        let source = frame_at(src);
        let target = frame_at(dst);
        walk[source.cell as usize] = HELD | 1;
        stack.clear();
        stack.push(source);

        // Per-direction moves, indexed by `Direction::encoding`.
        let cell_step = [1, (width as u32).wrapping_neg(), width as u32, u32::MAX];
        let node_step = [1, cols.wrapping_neg(), cols, u16::MAX];
        const ROW_STEP: [u16; 4] = [0, u16::MAX, 1, 0];
        const COL_STEP: [u16; 4] = [1, 0, 0, u16::MAX];
        let table = choice_table();

        let mut lfsr_state = lfsr.state();
        let mut steps: u32 = 0;
        let mut detoured = false;
        let mut misroutes: u32 = 0;
        let mut lfsr_draws: u32 = 0;
        let mut cap_pruned = false;
        // Bounding box of entered routers (the fast-fail cache's extent).
        let mut extent = (source.row, source.row, source.col, source.col);
        // Hard safety net: the DFS tries each (router, port) pair at most
        // once per episode, so steps are bounded; guard against logic bugs.
        let step_cap = (nodes as u32) * 16 + 64;

        let result = loop {
            steps += 1;
            assert!(steps <= step_cap, "scout walk exceeded step bound");
            let top = *stack.last().expect("stack never empties before return");
            if top.cell == target.cell {
                break Ok(ScoutOutcome {
                    steps,
                    detoured,
                    misroutes,
                    lfsr_draws,
                });
            }

            // Port usability, with the livelock-cap rejection reported
            // separately: a cap rejection makes the walk's exploration
            // order-dependent, which disqualifies its failure from the
            // fast-fail cache (see `ScoutFailure::cap_pruned`).
            let ports = self.ports[usize::from(top.node)];
            let open = !(ports | ports >> 4 | top.tried);
            let c = top.cell as usize;
            let far = [walk[c + 1], walk[c - width], walk[c + width], walk[c - 1]];
            let (mut usable, mut capped) = (0u8, 0u8);
            for (d, &byte) in far.iter().enumerate() {
                usable |= u8::from(byte < MAX_ENTRIES_PER_ROUTER) << d;
                capped |= u8::from(byte == MAX_ENTRIES_PER_ROUTER) << d;
            }
            let (usable, capped) = (usable & open, capped & open);
            // Candidate output ports, Algorithm 1: minimal first. Row index
            // grows downward, so a target below means Down.
            let minimal = u8::from(top.col < target.col)
                | u8::from(top.row > target.row) << 1
                | u8::from(top.row < target.row) << 2
                | u8::from(top.col > target.col) << 3;
            // Algorithm 1 checks the minimal ports, then every port once it
            // falls through to misrouting.
            let checked = if usable & minimal == 0 && allow_misroute {
                0xF
            } else {
                minimal
            };
            cap_pruned |= (capped & checked) != 0;

            let pick = table[choice_index(usable, minimal, lfsr_state, allow_misroute)];
            lfsr_state = pick >> 2 & 0b11;
            lfsr_draws += u32::from(pick >> 4 & 0b11);
            if pick & CHOSEN != 0 {
                let d = usize::from(pick & 0b11);
                let misroute = pick & MISROUTE != 0;
                detoured |= misroute;
                misroutes += u32::from(misroute);
                let frame = stack.last_mut().expect("nonempty");
                frame.tried |= 1 << d;
                frame.exit = d as u8;
                let next = Frame {
                    cell: top.cell.wrapping_add(cell_step[d]),
                    node: top.node.wrapping_add(node_step[d]),
                    row: top.row.wrapping_add(ROW_STEP[d]),
                    col: top.col.wrapping_add(COL_STEP[d]),
                    tried: 0,
                    exit: 0,
                };
                let byte = &mut walk[next.cell as usize];
                *byte = (*byte + 1) | HELD;
                extent = (
                    extent.0.min(next.row),
                    extent.1.max(next.row),
                    extent.2.min(next.col),
                    extent.3.max(next.col),
                );
                stack.push(next);
            } else {
                // Dead end: backtrack in cancel mode (Alg. 1 line 47). The
                // router leaves the tentative circuit; its entry count
                // stays.
                detoured = true;
                stack.pop();
                walk[c] &= !HELD;
                if stack.is_empty() {
                    // Scout arrived back at the controller: failure. The
                    // walk wrote no shared state, so no generation stamp
                    // moves — that is what lets the fast-fail cache treat
                    // "stamps unchanged" as "this exact failure replays".
                    break Err(ScoutFailure {
                        steps,
                        misroutes,
                        lfsr_draws,
                        cap_pruned,
                        extent,
                    });
                }
            }
        };
        *lfsr = Lfsr2::with_seed(lfsr_state);
        result
    }

    /// Writes a successful walk's circuit into the shared state: link
    /// owners, one reservation row per router (ejection at the
    /// destination), and the generation stamps.
    fn install(&mut self, packet_id: u8, frames: &[Frame]) -> ReservedPath {
        let mut path = self.pooled_path(packet_id);
        let mut entry = Port::Injection;
        for hop in frames.windows(2) {
            let (f, node, next) = (hop[0], NodeId(hop[0].node), NodeId(hop[1].node));
            let dir = Direction::from_encoding(f.exit);
            let link = self
                .topo
                .link_at(f.row, f.col, dir)
                .expect("path stays in the mesh");
            self.set_link_owner(link, node, next, Some(packet_id));
            self.install_row(packet_id, node, entry, Port::Mesh(dir));
            path.nodes.push(node);
            path.links.push(link);
            entry = Port::Mesh(dir.opposite());
        }
        let last = NodeId(frames.last().expect("a walk holds its source").node);
        self.install_row(packet_id, last, entry, Port::Ejection);
        path.nodes.push(last);
        self.stamp_nodes(&path.nodes);
        path
    }
}

#[cfg(test)]
impl MeshState {
    /// The straightforward DFS the packed walk replaced, kept as its
    /// lockstep reference: per-port checks against the shared link, fault
    /// and row state, and a link and row write on every forward step and
    /// backtrack.
    fn scout_walk_reference(
        &mut self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
        allow_misroute: bool,
    ) -> Result<(ReservedPath, ScoutOutcome), ScoutFailure> {
        struct RefFrame {
            node: NodeId,
            entry: Port,
            tried: [bool; 4],
        }
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum PortCheck {
            Usable,
            Blocked,
            CapPruned,
        }

        let topo = self.topo;
        let mut entries = vec![0u8; topo.node_count()];
        entries[src.0 as usize] = 1;
        let mut stack = vec![RefFrame {
            node: src,
            entry: Port::Injection,
            tried: [false; 4],
        }];
        let mut steps: u32 = 0;
        let mut detoured = false;
        let mut misroutes: u32 = 0;
        let mut lfsr_draws: u32 = 0;
        let mut cap_pruned = false;
        let (src_r, src_c) = (topo.row(src), topo.col(src));
        let mut extent = (src_r, src_r, src_c, src_c);
        let step_cap = (topo.node_count() as u32) * 16 + 64;

        loop {
            steps += 1;
            assert!(steps <= step_cap, "scout walk exceeded step bound");
            let frame = stack.last().expect("stack never empties before return");
            let cur = frame.node;

            if cur == dst {
                self.install_row(packet_id, cur, frame.entry, Port::Ejection);
                let mut path = self.pooled_path(packet_id);
                path.nodes.extend(stack.iter().map(|f| f.node));
                for hop in stack.windows(2) {
                    let Port::Mesh(entry_dir) = hop[1].entry else {
                        unreachable!("non-source frames enter on a mesh port")
                    };
                    let link = topo.link(hop[0].node, entry_dir.opposite());
                    path.links.push(link.expect("path steps are adjacent"));
                }
                self.stamp_nodes(&path.nodes);
                return Ok((
                    path,
                    ScoutOutcome {
                        steps,
                        detoured,
                        misroutes,
                        lfsr_draws,
                    },
                ));
            }

            let diff_x = i32::from(topo.col(dst)) - i32::from(topo.col(cur));
            let diff_y = i32::from(topo.row(dst)) - i32::from(topo.row(cur));
            let mut minimal = Vec::new();
            if diff_x > 0 {
                minimal.push(Direction::Right);
            } else if diff_x < 0 {
                minimal.push(Direction::Left);
            }
            if diff_y > 0 {
                minimal.push(Direction::Down);
            } else if diff_y < 0 {
                minimal.push(Direction::Up);
            }

            let check = |state: &Self, frame: &RefFrame, entries: &[u8], d: Direction| {
                if frame.tried[d.index()] {
                    return PortCheck::Blocked;
                }
                let (Some(nb), Some(link)) = (topo.neighbor(cur, d), topo.link(cur, d)) else {
                    return PortCheck::Blocked;
                };
                if state.router_down[nb.0 as usize]
                    || !state.link_free(link)
                    || state.reservation(nb, packet_id).is_some()
                {
                    return PortCheck::Blocked;
                }
                if entries[nb.0 as usize] >= MAX_ENTRIES_PER_ROUTER {
                    return PortCheck::CapPruned;
                }
                PortCheck::Usable
            };

            let mut candidates = Vec::new();
            for &d in &minimal {
                match check(self, frame, &entries, d) {
                    PortCheck::Usable => candidates.push(d),
                    PortCheck::CapPruned => cap_pruned = true,
                    PortCheck::Blocked => {}
                }
            }
            let choice = match candidates.len() {
                2 => {
                    lfsr_draws += 1;
                    Some(candidates[usize::from(lfsr.next_bit())])
                }
                1 => Some(candidates[0]),
                _ => {
                    let mut non_min = Vec::new();
                    if allow_misroute {
                        for d in Direction::ALL {
                            match check(self, frame, &entries, d) {
                                PortCheck::Usable => non_min.push(d),
                                PortCheck::CapPruned => cap_pruned = true,
                                PortCheck::Blocked => {}
                            }
                        }
                    }
                    if non_min.is_empty() {
                        None
                    } else {
                        detoured = true;
                        misroutes += 1;
                        lfsr_draws += 2;
                        let idx = usize::from(lfsr.next_bit()) * 2 + usize::from(lfsr.next_bit());
                        Some(non_min[idx % non_min.len()])
                    }
                }
            };

            match choice {
                Some(dir) => {
                    let frame = stack.last_mut().expect("nonempty");
                    frame.tried[dir.index()] = true;
                    let entry = frame.entry;
                    let nb = topo.neighbor(cur, dir).expect("usable port");
                    let link = topo.link(cur, dir).expect("usable port");
                    self.set_link_owner(link, cur, nb, Some(packet_id));
                    self.install_row(packet_id, cur, entry, Port::Mesh(dir));
                    entries[nb.0 as usize] += 1;
                    let (r, c) = (topo.row(nb), topo.col(nb));
                    extent = (
                        extent.0.min(r),
                        extent.1.max(r),
                        extent.2.min(c),
                        extent.3.max(c),
                    );
                    stack.push(RefFrame {
                        node: nb,
                        entry: Port::Mesh(dir.opposite()),
                        tried: [false; 4],
                    });
                }
                None => {
                    detoured = true;
                    let dead = stack.pop().expect("nonempty");
                    let Some(parent) = stack.last() else {
                        return Err(ScoutFailure {
                            steps,
                            misroutes,
                            lfsr_draws,
                            cap_pruned,
                            extent,
                        });
                    };
                    // Cancel the parent's row and free the link back to it.
                    let Port::Mesh(entry_dir) = dead.entry else {
                        unreachable!("non-source frames enter on a mesh port")
                    };
                    let (parent, dir) = (parent.node, entry_dir.opposite());
                    let link = topo.link(parent, dir).expect("parent adjacent to dead end");
                    assert_eq!(self.links[link.0 as usize], Some(packet_id));
                    self.set_link_owner(link, parent, dead.node, None);
                    let i = self.row_index(packet_id, parent);
                    self.rows[i] = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_sim::rng::Xorshift64Star;

    fn mesh(rows: u16, cols: u16) -> MeshState {
        MeshState::new(Mesh2D::new(rows, cols), rows as usize)
    }

    fn assert_path_valid(m: &MeshState, p: &ReservedPath, src: NodeId, dst: NodeId) {
        assert_eq!(*p.nodes.first().unwrap(), src);
        assert_eq!(*p.nodes.last().unwrap(), dst);
        assert_eq!(p.links.len() + 1, p.nodes.len());
        // Simple path: no repeated routers.
        let set: std::collections::HashSet<_> = p.nodes.iter().collect();
        assert_eq!(set.len(), p.nodes.len(), "circuit must not cross itself");
        // Every link owned by the packet.
        for &l in &p.links {
            assert_eq!(m.link_owner(l), Some(p.packet_id));
        }
    }

    /// Port bytes recomputed from scratch out of the mesh edges, the link
    /// and router faults (low nibble) and the link owners (high nibble).
    fn expected_ports(m: &MeshState) -> Vec<u8> {
        let topo = m.topology();
        topo.nodes()
            .map(|n| {
                Direction::ALL.into_iter().fold(0, |mask, d| {
                    let (closed, reserved) = match (topo.neighbor(n, d), topo.link(n, d)) {
                        (Some(nb), Some(l)) => (
                            m.link_down[l.0 as usize] || m.router_down[nb.0 as usize],
                            m.link_owner(l).is_some(),
                        ),
                        _ => (true, false),
                    };
                    mask | (u8::from(closed) | u8::from(reserved) << 4) << d.encoding()
                })
            })
            .collect()
    }

    /// Asserts the shared state a walk or release may write is identical in
    /// both meshes, and that `a`'s port masks agree with its link state.
    fn assert_same_state(a: &MeshState, b: &MeshState, ctx: &str) {
        assert_eq!(a.links, b.links, "link owners: {ctx}");
        assert_eq!(a.rows, b.rows, "reservation rows: {ctx}");
        assert_eq!(a.stamps, b.stamps, "node stamps: {ctx}");
        assert_eq!(a.row_stamps, b.row_stamps, "row stamps: {ctx}");
        assert_eq!(a.change_seq, b.change_seq, "change_seq: {ctx}");
        assert_eq!(a.ports, b.ports, "port bytes: {ctx}");
        assert_eq!(a.ports, expected_ports(a), "stale port bytes: {ctx}");
    }

    /// Reserves a random self-avoiding circuit of up to `max_hops` hops for
    /// `packet_id` from `start`, over free links and routers where the
    /// packet holds no row. `None` when `start` already holds one.
    fn random_circuit(
        m: &mut MeshState,
        rng: &mut Xorshift64Star,
        packet_id: u8,
        start: NodeId,
        max_hops: u64,
    ) -> Option<ReservedPath> {
        if m.reservation(start, packet_id).is_some() {
            return None;
        }
        let topo = m.topology();
        let mut nodes = vec![start];
        for _ in 0..rng.next_bounded(max_hops + 1) {
            let cur = *nodes.last().expect("non-empty");
            let options: Vec<NodeId> = Direction::ALL
                .into_iter()
                .filter_map(|d| {
                    let (nb, link) = (topo.neighbor(cur, d)?, topo.link(cur, d)?);
                    let open = m.link_free(link)
                        && !nodes.contains(&nb)
                        && m.reservation(nb, packet_id).is_none();
                    open.then_some(nb)
                })
                .collect();
            if options.is_empty() {
                break;
            }
            nodes.push(options[rng.next_bounded(options.len() as u64) as usize]);
        }
        Some(m.reserve_explicit(packet_id, &nodes))
    }

    /// Flips one random link or router fault mask in both meshes.
    fn random_fault(a: &mut MeshState, b: &mut MeshState, rng: &mut Xorshift64Star, up: bool) {
        let topo = a.topology();
        let n = NodeId(rng.next_bounded(topo.node_count() as u64) as u16);
        if rng.next_bool(0.3) {
            a.set_router_state(n, up);
            b.set_router_state(n, up);
        } else if let Some(nb) = topo.neighbor(n, Direction::ALL[rng.next_bounded(4) as usize]) {
            a.set_link_state(n, nb, up);
            b.set_link_state(n, nb, up);
        }
    }

    #[test]
    fn packed_walk_matches_the_reference_dfs() {
        // Lines both ways, non-square meshes up to 32×32, and 96 controllers
        // (more than one u64 of packet ids).
        const SHAPES: [(u16, u16); 10] = [
            (1, 1),
            (1, 12),
            (12, 1),
            (2, 9),
            (7, 3),
            (5, 6),
            (8, 8),
            (13, 17),
            (32, 32),
            (96, 2),
        ];
        let mut rng = Xorshift64Star::new(0x5C0_7A1C);
        // Successes, failures, advanced failures, capped failures,
        // misrouting walks, minimal-only walks, and walks by a packet
        // holding rows away from its source.
        let mut seen = [0u32; 7];
        for case in 0..200 {
            let (rows, cols) = SHAPES[case % SHAPES.len()];
            let topo = Mesh2D::new(rows, cols);
            let nodes = topo.node_count() as u64;
            let controllers = usize::from(rows).max(4);
            let mut packed = MeshState::new(topo, controllers);
            let mut reference = packed.clone();
            for _ in 0..rng.next_bounded(nodes / 16 + 2) {
                random_fault(&mut packed, &mut reference, &mut rng, false);
            }
            // Circuits of random packets, light to heavy.
            let circuits = nodes * (1 + rng.next_bounded(4)) / 8;
            let mut live: Vec<(ReservedPath, ReservedPath)> = Vec::new();
            for _ in 0..circuits {
                let packet = rng.next_bounded(controllers as u64) as u8;
                let start = NodeId(rng.next_bounded(nodes) as u16);
                let max_hops = 1 + rng.next_bounded(u64::from(rows) + u64::from(cols));
                if let Some(p) = random_circuit(&mut packed, &mut rng, packet, start, max_hops) {
                    live.push((p.clone(), reference.reserve_explicit(packet, &p.nodes)));
                }
            }
            assert_same_state(&packed, &reference, &format!("case {case} setup"));

            for walk in 0..24u32 {
                let packet = rng.next_bounded(controllers as u64) as u8;
                let src = NodeId(rng.next_bounded(nodes) as u16);
                let dst = NodeId(rng.next_bounded(nodes) as u16);
                if packed.reservation(src, packet).is_some() {
                    continue; // a circuit visits a router once
                }
                let phase = 1 + (walk % 3) as u8;
                let allow_misroute = rng.next_bool(0.75);
                let ctx = format!(
                    "case {case} walk {walk}: {rows}x{cols}, packet {packet} {src}->{dst}, \
                     phase {phase}, misroute {allow_misroute}"
                );
                let holds_rows = packed.rows[packed.row_index(packet, NodeId(0))..]
                    [..topo.node_count()]
                    .iter()
                    .any(|&r| r != 0);
                let mut lfsr_packed = Lfsr2::with_seed(phase);
                let mut lfsr_ref = lfsr_packed.clone();
                let got =
                    packed.scout_walk_opts(packet, src, dst, &mut lfsr_packed, allow_misroute);
                let want =
                    reference.scout_walk_reference(packet, src, dst, &mut lfsr_ref, allow_misroute);
                assert_eq!(got, want, "{ctx}");
                assert_eq!(lfsr_packed, lfsr_ref, "LFSR end state: {ctx}");
                assert_same_state(&packed, &reference, &ctx);

                seen[4] += u32::from(match &got {
                    Ok((_, out)) => out.misroutes > 0,
                    Err(fail) => fail.misroutes > 0,
                });
                seen[5] += u32::from(!allow_misroute);
                seen[6] += u32::from(holds_rows);
                match (got, want) {
                    (Ok((p, _)), Ok((r, _))) => {
                        seen[0] += 1;
                        if rng.next_bool(0.5) {
                            packed.release_owned(p);
                            reference.release_owned(r);
                            assert_same_state(&packed, &reference, &format!("{ctx}, released"));
                        } else {
                            live.push((p, r));
                        }
                    }
                    (Err(fail), _) => {
                        // A walk advanced past its source exactly when it
                        // entered a router outside the source tile.
                        let (r, c) = (topo.row(src), topo.col(src));
                        seen[1] += 1;
                        seen[2] += u32::from(fail.extent != (r, r, c, c));
                        seen[3] += u32::from(fail.cap_pruned);
                    }
                    _ => unreachable!("verdicts compared equal"),
                }
                if !live.is_empty() && rng.next_bool(0.3) {
                    let (p, r) = live.swap_remove(rng.next_bounded(live.len() as u64) as usize);
                    packed.release_owned(p);
                    reference.release_owned(r);
                    assert_same_state(&packed, &reference, &format!("{ctx}, older release"));
                }
                if rng.next_bool(0.1) {
                    let up = rng.next_bool(0.5);
                    random_fault(&mut packed, &mut reference, &mut rng, up);
                    assert_same_state(&packed, &reference, &format!("{ctx}, fault flip"));
                }
            }
        }
        for (count, what) in seen.iter().zip([
            "successes",
            "failures",
            "advanced failures",
            "cap-pruned failures",
            "misrouting walks",
            "minimal-only walks",
            "walks holding rows elsewhere",
        ]) {
            assert!(*count > 0, "no {what} exercised: {seen:?}");
        }
    }

    #[test]
    fn scout_finds_minimal_path_in_idle_mesh() {
        let mut m = mesh(8, 8);
        let mut lfsr = Lfsr2::new();
        let src = m.topology().node_at(2, 0);
        let dst = m.topology().node_at(5, 6);
        let (p, out) = m.scout_walk(1, src, dst, &mut lfsr).unwrap();
        assert_path_valid(&m, &p, src, dst);
        assert_eq!(p.hops(), m.topology().manhattan(src, dst));
        assert!(!out.detoured);
        m.release(&p);
        assert_eq!(m.reserved_link_count(), 0);
    }

    #[test]
    fn scout_to_self_is_zero_hops() {
        let mut m = mesh(4, 4);
        let mut lfsr = Lfsr2::new();
        let n = m.topology().node_at(1, 0);
        let (p, _) = m.scout_walk(0, n, n, &mut lfsr).unwrap();
        assert_eq!(p.hops(), 0);
        // Ejection row installed even for the trivial path.
        assert!(m.reservation(n, 0).is_some());
        m.release(&p);
        assert!(m.reservation(n, 0).is_none());
    }

    #[test]
    fn figure8_scenario_non_minimal_route() {
        // The paper's Figure 8: 4×5 mesh, three circuits already reserved,
        // request R from FC3 to F2 must find a non-minimal conflict-free path.
        let m2 = Mesh2D::new(4, 5);
        let mut m = MeshState::new(m2, 4);
        let n = |i: u16| NodeId(i);
        // FC0 → F0 → F1 → F6
        m.reserve_explicit(0, &[n(0), n(1), n(6)]);
        // FC1 → F5 → F6 → F7 → F8
        m.reserve_explicit(1, &[n(5), n(6), n(7), n(8)]);
        // FC2 → F10 → F11 → F12 → F7
        m.reserve_explicit(2, &[n(10), n(11), n(12), n(7)]);

        let mut lfsr = Lfsr2::new();
        let src = n(15); // FC3 attaches at row 3, col 0 = F15
        let dst = n(2);
        let before = m.reserved_link_count();
        let (p, out) = m.scout_walk(3, src, dst, &mut lfsr).expect("a free path exists");
        assert_path_valid(&m, &p, src, dst);
        // Minimal distance is 5 but every minimal path is blocked, so the
        // scout must detour.
        assert!(p.hops() > m.topology().manhattan(src, dst));
        assert!(out.detoured);
        // Other circuits untouched.
        assert_eq!(m.reserved_link_count(), before + p.links.len());
        m.release(&p);
        assert_eq!(m.reserved_link_count(), before);
    }

    #[test]
    fn scout_fails_when_source_is_walled_in() {
        // Reserve every link around the source so no output port is free.
        let m2 = Mesh2D::new(3, 3);
        let mut m = MeshState::new(m2, 3);
        let src = m2.node_at(1, 0);
        // Wall: circuits that consume all three links incident to src.
        m.reserve_explicit(0, &[m2.node_at(0, 0), src, m2.node_at(2, 0)]);
        m.reserve_explicit(1, &[m2.node_at(1, 1), src]);
        let mut lfsr = Lfsr2::new();
        let err = m.scout_walk(2, src, m2.node_at(1, 2), &mut lfsr).unwrap_err();
        assert!(err.steps >= 1);
        // Failure must leave no residue for packet 2.
        assert!(m.reservation(src, 2).is_none());
        for l in 0..m2.link_count() as u32 {
            assert_ne!(m.link_owner(LinkId(l)), Some(2));
        }
    }

    #[test]
    fn concurrent_circuits_do_not_share_links() {
        let mut m = mesh(8, 8);
        let mut lfsr = Lfsr2::new();
        let t = m.topology();
        let mut paths = Vec::new();
        for fc in 0..8u8 {
            let src = t.fc_node(crate::FcId(fc));
            // Eight simultaneous full-row circuits: the mesh must sustain one
            // circuit per controller with zero link sharing.
            let dst = t.node_at(u16::from(fc), 7);
            let (p, _) = m.scout_walk(fc, src, dst, &mut lfsr).expect("mesh has capacity");
            paths.push(p);
        }
        let mut all_links = std::collections::HashSet::new();
        for p in &paths {
            for &l in &p.links {
                assert!(all_links.insert(l), "link {l} reserved by two circuits");
            }
        }
        for p in &paths {
            m.release(p);
        }
        assert_eq!(m.reserved_link_count(), 0);
    }

    #[test]
    fn xy_path_goes_x_then_y() {
        let mut m = mesh(8, 8);
        let t = m.topology();
        let p = m.xy_path(t.node_at(2, 0), t.node_at(5, 3));
        assert_eq!(p.hops(), 6);
        // First three steps move along the row (X), then down the column (Y).
        for i in 0..3 {
            assert_eq!(t.row(p.nodes[i]), 2);
        }
        for i in 3..p.nodes.len() {
            assert_eq!(t.col(p.nodes[i]), 3);
        }
    }

    #[test]
    fn try_reserve_path_is_atomic() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let p1 = m.xy_path(t.node_at(0, 0), t.node_at(0, 3));
        assert!(m.try_reserve_path(0, &p1));
        // Overlapping XY path cannot be reserved...
        let p2 = m.xy_path(t.node_at(0, 1), t.node_at(0, 2));
        assert!(!m.try_reserve_path(1, &p2));
        // ...and the failed attempt reserved nothing.
        let before: Vec<_> = (0..t.link_count() as u32)
            .map(|l| m.link_owner(LinkId(l)))
            .collect();
        assert!(!before.contains(&Some(1)));
        m.release(&ReservedPath { packet_id: 0, ..p1 });
        assert_eq!(m.reserved_link_count(), 0);
    }

    #[test]
    fn release_clears_router_rows() {
        let mut m = mesh(4, 4);
        let mut lfsr = Lfsr2::new();
        let t = m.topology();
        let (p, _) = m
            .scout_walk(2, t.node_at(2, 0), t.node_at(0, 3), &mut lfsr)
            .unwrap();
        for &n in &p.nodes {
            assert!(m.reservation(n, 2).is_some());
        }
        m.release(&p);
        for &n in &p.nodes {
            assert!(m.reservation(n, 2).is_none());
        }
    }

    #[test]
    fn generation_stamps_track_reservation_changes() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        assert_eq!(m.change_seq(), 0);
        let p = m.reserve_explicit(0, &[t.node_at(1, 0), t.node_at(1, 1), t.node_at(1, 2)]);
        // Installing a circuit stamps exactly its nodes.
        assert_eq!(m.change_seq(), 1);
        for n in [t.node_at(1, 0), t.node_at(1, 1), t.node_at(1, 2)] {
            assert_eq!(m.stamps[n.0 as usize], 1);
        }
        assert_eq!(m.stamps[t.node_at(0, 0).0 as usize], 0, "untouched router");
        // A region containing a stamped node is "changed since 0"...
        assert!(m.region_changed_since(0, (1, 1, 0, 2)));
        // ...but not since the stamp itself, and untouched regions never.
        assert!(!m.region_changed_since(1, (1, 1, 0, 2)));
        assert!(!m.region_changed_since(0, (3, 3, 0, 3)));
        // Releasing stamps the same nodes again with a new sequence.
        m.release(&p);
        assert_eq!(m.change_seq(), 2);
        assert!(m.region_changed_since(1, (1, 1, 0, 2)));
        // A failed walk is state-neutral: no stamp moves. Wall in a source
        // and fail a walk out of it.
        let mut m = mesh(3, 3);
        let t = m.topology();
        let src = t.node_at(1, 0);
        m.reserve_explicit(0, &[t.node_at(0, 0), src, t.node_at(2, 0)]);
        m.reserve_explicit(1, &[t.node_at(1, 1), src]);
        let seq = m.change_seq();
        let mut lfsr = Lfsr2::new();
        m.scout_walk(2, src, t.node_at(1, 2), &mut lfsr).unwrap_err();
        assert_eq!(m.change_seq(), seq, "failed walks must not stamp");
    }

    #[test]
    fn successful_walks_stamp_their_path() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let (p, _) = m.scout_walk(0, t.node_at(0, 0), t.node_at(0, 3), &mut lfsr).unwrap();
        assert_eq!(m.change_seq(), 1);
        for &n in &p.nodes {
            assert_eq!(m.stamps[n.0 as usize], 1);
        }
        m.release(&p);
        assert_eq!(m.change_seq(), 2);
    }

    #[test]
    fn failed_walk_outcome_is_invariant_to_lfsr_phase() {
        // The fast-fail cache's soundness contract: for a cap-free failure
        // over an unchanged mesh region, the verdict, step count, misroute
        // count, and LFSR draw count must not depend on the LFSR phase the
        // walk starts from — that is what lets a fast-fail replay the
        // recorded draw count and keep the register stream bit-identical.
        // Build a deeply-blocked scenario (Figure 8 with the escape column
        // also walled) so the scout advances, wanders, and fails.
        let build = || {
            let m2 = Mesh2D::new(4, 5);
            let mut m = MeshState::new(m2, 4);
            let n = |i: u16| NodeId(i);
            m.reserve_explicit(0, &[n(0), n(1), n(2), n(3), n(4), n(9)]);
            m.reserve_explicit(1, &[n(5), n(6), n(7), n(8)]);
            m.reserve_explicit(2, &[n(10), n(11), n(12), n(13), n(14)]);
            m
        };
        let mut reference: Option<ScoutFailure> = None;
        for phase in 0..3u8 {
            let mut m = build();
            let mut lfsr = Lfsr2::with_seed(phase + 1);
            let before = m.reserved_link_count();
            let fail = m
                .scout_walk(3, NodeId(15), NodeId(4), &mut lfsr)
                .expect_err("destination is fully walled off");
            assert_eq!(m.reserved_link_count(), before, "failure is atomic");
            if fail.cap_pruned {
                continue; // capped walks are excluded from the invariant
            }
            match &reference {
                None => reference = Some(fail),
                Some(r) => {
                    assert_eq!(
                        (r.steps, r.misroutes, r.lfsr_draws, r.extent),
                        (fail.steps, fail.misroutes, fail.lfsr_draws, fail.extent),
                        "phase {phase}: cap-free failure must be phase-invariant"
                    );
                }
            }
        }
        let r = reference.expect("at least one cap-free failure");
        assert_ne!(r.extent, (3, 3, 0, 0), "the scout advanced past the source");
        assert!(r.steps > 1);
    }

    #[test]
    fn failure_extent_covers_every_entered_router() {
        // Wall in the source: the walk never leaves it, so the extent is
        // exactly the source tile.
        let m2 = Mesh2D::new(3, 3);
        let mut m = MeshState::new(m2, 3);
        let src = m2.node_at(1, 0);
        m.reserve_explicit(0, &[m2.node_at(0, 0), src, m2.node_at(2, 0)]);
        m.reserve_explicit(1, &[m2.node_at(1, 1), src]);
        let mut lfsr = Lfsr2::new();
        let fail = m.scout_walk(2, src, m2.node_at(1, 2), &mut lfsr).unwrap_err();
        assert_eq!(fail.extent, (1, 1, 0, 0), "source-blocked extent is one tile");
        assert_eq!(fail.lfsr_draws, 0, "no candidates, no draws");
        assert_eq!(fail.misroutes, 0);
    }

    #[test]
    fn downed_links_block_walks_and_stamp_on_both_transitions() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let (a, b) = (t.node_at(1, 1), t.node_at(1, 2));
        // Taking the link down stamps both endpoints (cache invalidation).
        assert!(m.set_link_state(a, b, false));
        assert_eq!(m.change_seq(), 1);
        assert!(m.region_changed_since(0, (1, 1, 1, 1)));
        assert!(m.region_changed_since(0, (1, 1, 2, 2)));
        // The scout routes around the dead link instead of using it.
        let (p, out) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .expect("path diversity survives one dead link");
        assert!(p.hops() > t.manhattan(t.node_at(1, 0), t.node_at(1, 3)));
        assert!(out.detoured);
        for w in p.nodes.windows(2) {
            let uses_dead_link = (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a);
            assert!(!uses_dead_link);
        }
        m.release(&p);
        // An XY circuit over the dead link is rejected atomically.
        let xy = m.xy_path(t.node_at(1, 0), t.node_at(1, 3));
        assert!(!m.try_reserve_path(0, &xy));
        m.recycle(xy);
        // Repair stamps again and restores minimal routing.
        let seq = m.change_seq();
        assert!(m.set_link_state(b, a, true));
        assert!(m.change_seq() > seq, "repair must stamp too");
        assert!(m.region_changed_since(seq, (1, 1, 1, 2)));
        let (p, out) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .unwrap();
        assert_eq!(p.hops(), 3);
        assert!(!out.detoured);
        m.release(&p);
        // Redundant transitions are idempotent: no stamp churn.
        let seq = m.change_seq();
        assert!(m.set_link_state(a, b, true));
        assert_eq!(m.change_seq(), seq);
        // Non-adjacent nodes are rejected.
        assert!(!m.set_link_state(t.node_at(0, 0), t.node_at(2, 2), false));
    }

    #[test]
    fn downed_routers_are_never_entered_and_stamp_their_neighborhood() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let dead = t.node_at(1, 1);
        m.set_router_state(dead, false);
        // The down transition stamps the router *and* its neighbors: a walk
        // blocked entering `dead` only recorded the probing neighbor in its
        // extent.
        for n in [dead, t.node_at(0, 1), t.node_at(2, 1), t.node_at(1, 0), t.node_at(1, 2)] {
            assert!(
                m.stamps[n.0 as usize] > 0,
                "neighborhood of {n} must be stamped"
            );
        }
        let (p, _) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .expect("detour around the dead router exists");
        assert!(!p.nodes.contains(&dead));
        m.release(&p);
        // XY circuits crossing the dead router are rejected.
        let xy = m.xy_path(t.node_at(1, 0), t.node_at(1, 3));
        assert!(!m.try_reserve_path(0, &xy));
        m.recycle(xy);
        // A walk *to* the dead router fails without residue.
        let before = m.reserved_link_count();
        m.scout_walk(2, t.node_at(3, 0), dead, &mut lfsr).unwrap_err();
        assert_eq!(m.reserved_link_count(), before);
        // Repair restores direct routing through it.
        m.set_router_state(dead, true);
        let (p, _) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .unwrap();
        assert_eq!(p.hops(), 3);
        m.release(&p);
    }

    #[test]
    fn scout_respects_livelock_bound_and_terminates() {
        // Dense random traffic on a small mesh: every walk must terminate
        // (the step-cap assert inside scout_walk enforces the bound).
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let mut rng = Xorshift64Star::new(99);
        let mut live: Vec<ReservedPath> = Vec::new();
        for round in 0..500 {
            if !live.is_empty() && rng.next_bool(0.4) {
                let idx = rng.next_bounded(live.len() as u64) as usize;
                let p = live.swap_remove(idx);
                m.release(&p);
            }
            let fc = (round % 4) as u8;
            if live.iter().any(|p| p.packet_id == fc) {
                continue; // one in-flight circuit per controller
            }
            let src = t.fc_node(crate::FcId(fc));
            let dst = NodeId(rng.next_bounded(16) as u16);
            if let Ok((p, _)) = m.scout_walk(fc, src, dst, &mut lfsr) {
                live.push(p);
            }
        }
        for p in &live {
            m.release(p);
        }
        assert_eq!(m.reserved_link_count(), 0);
    }
}
