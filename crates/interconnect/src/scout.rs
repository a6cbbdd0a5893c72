//! The generation-stamped **scout fast-fail cache**, which memoizes failed
//! path reservations between attempts, and its knob [`ScoutCacheKind`].
//!
//! Congested big-mesh Venice runs are scout-walk-bound: every retry of a
//! doomed request re-runs a full DFS over the same saturated region and
//! fails the same way. [`ScoutCache`] turns those repeats into O(frontier
//! tiles) rejections. When a walk fails, the fabric records a
//! [`FailedWalk`] — the walk's frontier extent, a snapshot of the mesh's
//! reservation-change sequence, and the failure's observable outputs
//! (steps, misroutes, LFSR draws) — in
//! a dense per-`(controller, destination)` slot. The next attempt for the
//! same pair consults the slot: while every router in the extent still
//! carries a generation stamp ≤ the snapshot
//! ([`crate::mesh::MeshState::region_changed_since`]), the mesh is
//! bit-identical to how the failed walk observed it, so the verdict — and,
//! crucially, the LFSR draw count — replay exactly; the DFS is skipped.
//! Any reservation change (install *or* release) intersecting the extent
//! invalidates the entry.
//!
//! Replay exactness rests on two soundness rules, and each slot holds one
//! entry per 2-bit-LFSR phase (the register has exactly three states) to
//! exploit both:
//!
//! 1. **Cap-free failures are phase-invariant.** A walk that never pruned
//!    a port on the livelock entry cap
//!    ([`crate::mesh::ScoutFailure::cap_pruned`] false) exhausted an
//!    order-invariant tree: its verdict, steps, and draw count do not
//!    depend on the LFSR phase the retry starts from, so the entry hits
//!    from *any* phase.
//! 2. **Capped failures are phase-exact.** A walk that did hit the cap
//!    explores an order-dependent tree — but the walk is still a
//!    deterministic function of (observed region, starting phase), so its
//!    entry replays exactly when the retry starts from the *same* phase.
//!    Profiling shows these are the walks that matter: on congested
//!    16×16 meshes capped walks are ~18% of failures but ~90% of
//!    failed-walk steps (~720 steps each).
//!
//! [`ScoutCacheKind::Checked`] re-runs the full walk beside every cache
//! verdict and asserts they agree — including, for rule 1, hits taken
//! from a different phase than the recording walk's.

use crate::mesh::MeshState;
use crate::{FcId, NodeId};

/// Whether the Venice fabric runs the scout fast-fail cache (an
/// `SsdConfig` knob and sweep axis, like the dispatch policy and scan kind).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScoutCacheKind {
    /// No cache: every acquisition attempt runs the full scout walk (the
    /// pre-cache engine, and the default).
    #[default]
    Off,
    /// Fast-fail from valid cache entries without re-running the DFS.
    /// Simulated behavior is bit-identical to `Off` (verdicts, conflict
    /// accounting, scout-step stats, and the LFSR stream all replay); only
    /// the new `scout_fastfails` / `scout_cache_invalidations` effort
    /// counters differ.
    On,
    /// Run the full walk *alongside* every cache verdict and assert the two
    /// agree (verdict, steps, misroutes, LFSR draws) — the randomized
    /// cross-check mode; behavior is exactly `Off`'s.
    Checked,
}

impl ScoutCacheKind {
    /// All kinds, in presentation order.
    pub const ALL: [ScoutCacheKind; 3] = [
        ScoutCacheKind::Off,
        ScoutCacheKind::On,
        ScoutCacheKind::Checked,
    ];

    /// Stable label used in sweep-point labels, manifests, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ScoutCacheKind::Off => "cache-off",
            ScoutCacheKind::On => "cache-on",
            ScoutCacheKind::Checked => "cache-checked",
        }
    }

    /// Looks a kind up by its label (or the bare `off`/`on`/`checked`),
    /// case-insensitively — the manifest/CLI round-trip constructor.
    pub fn by_label(label: &str) -> Option<ScoutCacheKind> {
        ScoutCacheKind::ALL.into_iter().find(|k| {
            k.label().eq_ignore_ascii_case(label)
                || k.label()["cache-".len()..].eq_ignore_ascii_case(label)
        })
    }
}

impl std::fmt::Display for ScoutCacheKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One memoized failed path reservation: everything needed to replay the
/// failure without the DFS, plus the validity condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailedWalk {
    /// Bounding box `(min_row, max_row, min_col, max_col)` of every router
    /// the failed walk entered; any reservation change stamping a router in
    /// this box invalidates the entry.
    pub extent: (u16, u16, u16, u16),
    /// [`MeshState::change_seq`] snapshot at record time: the entry is
    /// valid while no stamp inside the extent exceeds it.
    pub seq: u64,
    /// Steps the recorded walk took (replayed into the scout-step stats).
    pub steps: u32,
    /// Misroute selections the recorded walk made.
    pub misroutes: u32,
    /// LFSR bits the recorded walk consumed — replayed via
    /// [`venice_sim::rng::Lfsr2::advance`] so the fast-fail leaves the
    /// register exactly where the real walk would have.
    pub lfsr_draws: u32,
    /// The 2-bit LFSR state the recorded walk started from (1..=3).
    pub phase: u8,
    /// Whether the recorded walk pruned on the livelock entry cap. Capped
    /// entries replay only from [`FailedWalk::phase`]; cap-free entries
    /// replay from any phase (module docs, soundness rules 1 and 2).
    pub cap_pruned: bool,
}

/// The generation-stamped scout fast-fail cache: one dense slot per
/// `(controller, destination chip)` pair, with one sub-entry per LFSR
/// phase — slab/dense storage per the workspace's hot-path rule, no hash
/// maps.
#[derive(Clone, Debug)]
pub struct ScoutCache {
    nodes: usize,
    /// `slots[fc * nodes + dst][phase - 1]`.
    slots: Vec<[Option<FailedWalk>; 3]>,
    /// Entries dropped because a reservation change intersected their
    /// extent (the `scout_cache_invalidations` stat).
    invalidations: u64,
}

impl ScoutCache {
    /// Creates an empty cache for `controllers` packet IDs over a
    /// `nodes`-router mesh.
    pub fn new(controllers: usize, nodes: usize) -> Self {
        ScoutCache {
            nodes,
            slots: vec![[None; 3]; controllers * nodes],
            invalidations: 0,
        }
    }

    #[inline]
    fn idx(&self, fc: FcId, dst: NodeId) -> usize {
        usize::from(fc.0) * self.nodes + usize::from(dst.0)
    }

    /// Consults the cache for an attempt from controller `fc` to `dst`
    /// whose walk would start from LFSR state `phase`, validating entries
    /// against the mesh's generation stamps (stale entries are dropped and
    /// counted as invalidations). Returns a hit when the pair has a valid
    /// entry recorded from the same phase, or a valid cap-free entry from
    /// any phase (phase-invariant — soundness rule 1).
    pub fn lookup(
        &mut self,
        fc: FcId,
        dst: NodeId,
        phase: u8,
        mesh: &MeshState,
    ) -> Option<FailedWalk> {
        debug_assert!((1..=3).contains(&phase), "2-bit LFSR state is 1..=3");
        let idx = self.idx(fc, dst);
        let own = usize::from(phase - 1);
        // Own-phase sub-entry first (always usable), then the other two
        // (usable only when cap-free). Entries this attempt could not use
        // anyway (wrong-phase capped ones) are not validated — they are
        // dropped lazily when their own phase next probes them — so a
        // lookup performs at most one full extent scan per usable entry.
        for probe in 0..3usize {
            let i = (own + probe) % 3;
            let Some(fw) = self.slots[idx][i] else { continue };
            if probe != 0 && fw.cap_pruned {
                continue;
            }
            if mesh.region_changed_since(fw.seq, fw.extent) {
                self.slots[idx][i] = None;
                self.invalidations += 1;
                continue;
            }
            // Fast-forward the snapshot: the region is unchanged between
            // the stored sequence and now, so the entry is equally valid
            // with the current one — and the next lookup can take the
            // O(1) global-sequence shortcut instead of re-scanning.
            let entry = self.slots[idx][i].as_mut().expect("entry present");
            entry.seq = mesh.change_seq();
            return Some(*entry);
        }
        None
    }

    /// Records a failed walk for the pair under the phase it started from.
    pub fn record(&mut self, fc: FcId, dst: NodeId, walk: FailedWalk) {
        debug_assert!((1..=3).contains(&walk.phase));
        let idx = self.idx(fc, dst);
        self.slots[idx][usize::from(walk.phase - 1)] = Some(walk);
    }

    /// Entries dropped so far because a reservation change intersected
    /// their extent.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_entries(cache: &ScoutCache) -> usize {
        cache.slots.iter().flatten().filter(|e| e.is_some()).count()
    }

    #[test]
    fn cache_kind_labels_round_trip() {
        for kind in ScoutCacheKind::ALL {
            assert_eq!(ScoutCacheKind::by_label(kind.label()), Some(kind));
        }
        // Bare forms are accepted for CLI ergonomics.
        assert_eq!(ScoutCacheKind::by_label("on"), Some(ScoutCacheKind::On));
        assert_eq!(ScoutCacheKind::by_label("OFF"), Some(ScoutCacheKind::Off));
        assert_eq!(
            ScoutCacheKind::by_label("Checked"),
            Some(ScoutCacheKind::Checked)
        );
        assert_eq!(ScoutCacheKind::by_label("warp"), None);
        assert_eq!(ScoutCacheKind::default(), ScoutCacheKind::Off);
    }

    #[test]
    fn cache_hits_until_a_change_intersects_the_extent() {
        use crate::Mesh2D;
        let mut mesh = MeshState::new(Mesh2D::new(4, 4), 4);
        let mut cache = ScoutCache::new(4, 16);
        assert_eq!(live_entries(&cache), 0);
        let fc = FcId(1);
        let dst = NodeId(7);
        // Record a cap-free failure observed over rows 0..=1 × cols 0..=2
        // at the current change sequence, from LFSR phase 2.
        let walk = FailedWalk {
            extent: (0, 1, 0, 2),
            seq: mesh.change_seq(),
            steps: 9,
            misroutes: 2,
            lfsr_draws: 5,
            phase: 2,
            cap_pruned: false,
        };
        cache.record(fc, dst, walk);
        assert_eq!(live_entries(&cache), 1);
        // A hit fast-forwards the entry's snapshot to the current change
        // sequence (sound: the region is unchanged in between), so compare
        // hits modulo `seq`.
        let content = |w: FailedWalk| FailedWalk { seq: 0, ..w };
        // Cap-free entries hit from their own phase and from any other.
        assert_eq!(cache.lookup(fc, dst, 2, &mesh).map(content), Some(walk));
        assert_eq!(cache.lookup(fc, dst, 1, &mesh).map(content), Some(walk));
        // A reservation change outside the extent leaves the entry valid,
        // and the hit advances its snapshot past the unrelated change.
        let topo = mesh.topology();
        let far = mesh.reserve_explicit(0, &[topo.node_at(3, 0), topo.node_at(3, 1)]);
        let hit = cache.lookup(fc, dst, 2, &mesh).expect("far change keeps entry");
        assert_eq!(content(hit), walk);
        assert_eq!(hit.seq, mesh.change_seq(), "snapshot fast-forwarded");
        mesh.release(&far);
        assert_eq!(cache.lookup(fc, dst, 2, &mesh).map(content), Some(walk));
        assert_eq!(cache.invalidations(), 0);
        // A release intersecting the extent invalidates and drops it.
        let inside = mesh.reserve_explicit(0, &[topo.node_at(1, 1), topo.node_at(1, 2)]);
        assert_eq!(cache.lookup(fc, dst, 2, &mesh), None);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(live_entries(&cache), 0);
        mesh.release(&inside);
        // Slots are per (controller, destination): other pairs unaffected.
        let walk2 = FailedWalk {
            seq: mesh.change_seq(),
            ..walk
        };
        cache.record(fc, dst, walk2);
        assert_eq!(cache.lookup(FcId(2), dst, 2, &mesh), None);
        assert_eq!(cache.lookup(fc, NodeId(8), 2, &mesh), None);
        let slot = cache.slots[cache.idx(fc, dst)];
        assert_eq!(slot[1].map(|w| w.steps), Some(9));
    }

    #[test]
    fn capped_entries_only_replay_from_their_own_phase() {
        use crate::Mesh2D;
        let mesh = MeshState::new(Mesh2D::new(4, 4), 4);
        let mut cache = ScoutCache::new(4, 16);
        let fc = FcId(0);
        let dst = NodeId(5);
        let capped = FailedWalk {
            extent: (0, 3, 0, 3),
            seq: 0,
            steps: 700,
            misroutes: 40,
            lfsr_draws: 90,
            phase: 1,
            cap_pruned: true,
        };
        cache.record(fc, dst, capped);
        // Same phase: exact replay allowed.
        assert_eq!(cache.lookup(fc, dst, 1, &mesh), Some(capped));
        // Different phase: a capped walk is order-dependent — no hit.
        assert_eq!(cache.lookup(fc, dst, 2, &mesh), None);
        assert_eq!(cache.lookup(fc, dst, 3, &mesh), None);
        // Per-phase sub-slots coexist: record the other phases and every
        // retry phase hits its own entry.
        cache.record(fc, dst, FailedWalk { phase: 2, ..capped });
        cache.record(fc, dst, FailedWalk { phase: 3, ..capped });
        assert_eq!(live_entries(&cache), 3);
        for phase in 1..=3u8 {
            assert_eq!(
                cache.lookup(fc, dst, phase, &mesh).map(|w| w.phase),
                Some(phase)
            );
        }
    }
}
