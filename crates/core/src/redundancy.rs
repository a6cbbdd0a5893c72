//! Die-level parity redundancy (RAIN): pages striped into parity groups
//! across the chips of a fabric row, reconstruct-on-read for requests that
//! land on a dead chip, and a token-bucket-paced background rebuild engine.
//!
//! [`RedundancyKind`] is a named sweep axis like [`crate::FaultPlan`] and
//! [`crate::ResiliencePolicy`]: `none` (the default) arms nothing — zero
//! calendar events, identical allocation — so the golden-hash contract
//! holds by construction; `parity<G>` stripes every physical page into a
//! parity group of up to `G` chips within its fabric row.
//!
//! The model is a *timing* model of RAIN, not a data-layout change: parity
//! content is implicit (the controller XORs), so reconstructing a page that
//! lived on a dead chip issues one read per *surviving* group member
//! through the normal TSU/fabric path and one remapped write through the
//! existing FTL allocation path. Parity-capacity overhead is not modeled —
//! `None` and `Parity` allocate identically until a chip actually dies,
//! which is what keeps the default path bit-identical.
//!
//! Two mechanisms consume the group map when a chip dies permanently:
//!
//! * **degraded reads** — a foreground read translated onto the dead chip
//!   fans out reads to the surviving group members instead of completing
//!   with error status; the request finishes successfully once every
//!   survivor read returns (the XOR itself is free at the controller),
//! * **background rebuild** — a calendar-driven scrubber
//!   ([`REBUILD_TICK`]) walks the dead chip's logical pages, issues the
//!   same survivor reads plus a remapped write per page, paced by a token
//!   bucket ([`REBUILD_RATE`]/[`REBUILD_BURST`]) and bounded in flight
//!   ([`REBUILD_MAX_JOBS`]) so foreground QoS survives. Rebuild
//!   transactions are a dedicated lowest-priority TSU class.

use venice_sim::SimDuration;

/// Period of the background rebuild scrubber's calendar tick. Each tick
/// refills the token bucket and launches up to the available tokens' worth
/// of page-rebuild jobs.
pub const REBUILD_TICK: SimDuration = SimDuration::from_micros(1);

/// Token-bucket refill per tick: page rebuilds that may *start* per
/// [`REBUILD_TICK`]. Generous enough that the interconnect — not the
/// pacing — is the rebuild bottleneck (the makespan head-to-head the
/// ablation measures), while the lowest-priority TSU class keeps the
/// foreground ahead of rebuild traffic at every chip.
pub const REBUILD_RATE: u32 = 4;

/// Token-bucket capacity (burst ceiling). A saturated bucket defers
/// launches to a later tick; nothing is ever dropped. Sized to
/// [`REBUILD_MAX_JOBS`] so a freshly armed engine can fill its in-flight
/// window in one tick instead of trickling up over many.
pub const REBUILD_BURST: u32 = 64;

/// Maximum page-rebuild jobs in flight at once, bounding the rebuild
/// engine's footprint in the TSU queues regardless of token pacing. Deep
/// enough that reconstruction is limited by the *interconnect* (every
/// survivor read of a dead chip targets the same row, so the fabric's
/// path diversity toward that row sets the rebuild bandwidth) rather than
/// by the in-flight window itself; the lowest-priority TSU class — not
/// this bound — is what keeps foreground traffic ahead of the rebuild.
pub const REBUILD_MAX_JOBS: usize = 64;

/// Logical pages the scrubber examines per tick while scanning the mapping
/// for pages on the dead chip, bounding per-event work on huge arrays.
pub const REBUILD_SCAN_BATCH: u64 = 1024;

/// Re-stage attempts for a page whose media-alive survivors were all
/// intact but transiently unreachable (fabric blast radius) or unspawnable
/// (their planes hosted active migrations). XOR reconstruction needs the
/// *complete* survivor set, so a blocked page defers rather than rebuilds
/// from a partial set; the bound guarantees the rebuild drains even when a
/// survivor sits behind a permanent severance — the page is then recorded
/// as skipped, and the recovery as incomplete.
pub const REBUILD_RETRY_LIMIT: u32 = 3;

/// Die-level redundancy scheme (the sweep engine's `redundancy` axis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RedundancyKind {
    /// No redundancy: a permanent chip death loses the chip's data and
    /// requests to it classify as [`crate::RequestOutcome::DataLoss`].
    /// Bit-identical to the pre-redundancy engine (zero calendar events,
    /// identical allocation).
    #[default]
    None,
    /// RAIN parity groups of up to `group` chips within a fabric row:
    /// survive any single chip death per group via reconstruct-on-read
    /// plus background rebuild.
    Parity {
        /// Stripe width in chips (data + parity), clamped to the row
        /// length. Must be at least 2 — a group of one has no survivors.
        group: u8,
    },
}

impl RedundancyKind {
    /// All presets, in presentation order (the `redundancy` sweep axis).
    pub const ALL: [RedundancyKind; 2] =
        [RedundancyKind::None, RedundancyKind::Parity { group: 4 }];

    /// Stable axis label used in sweep-point labels, manifests, and JSON
    /// (`none`, `parity4`, ...).
    pub fn label(&self) -> String {
        match self {
            RedundancyKind::None => "none".to_string(),
            RedundancyKind::Parity { group } => format!("parity{group}"),
        }
    }

    /// True when the scheme arms any reconstruction machinery.
    pub fn is_armed(&self) -> bool {
        !matches!(self, RedundancyKind::None)
    }

    /// The parity-group stripe width, if armed.
    pub fn group(&self) -> Option<u8> {
        match self {
            RedundancyKind::None => None,
            RedundancyKind::Parity { group } => Some(*group),
        }
    }

    /// The surviving parity-group members of `chip` on a `cols`-wide
    /// fabric row: every other chip of the group, in ascending id order.
    /// Empty for [`RedundancyKind::None`] and for degenerate groups
    /// (a one-column row has no peers to reconstruct from).
    pub fn survivors(&self, chip: u16, cols: u16) -> Vec<u16> {
        let Some(group) = self.group() else {
            return Vec::new();
        };
        let (start, end) = parity_group(chip, cols, group);
        (start..end).filter(|&c| c != chip).collect()
    }
}

/// The `[start, end)` chip-id span of the parity group containing `chip`
/// on a `cols`-wide fabric row with stripe width `group`: groups tile each
/// row left to right, and a trailing partial group simply spans fewer
/// chips. Pure geometry — independent of which chips are alive.
pub fn parity_group(chip: u16, cols: u16, group: u8) -> (u16, u16) {
    assert!(group >= 2, "parity group must span at least 2 chips");
    assert!(cols > 0, "row must be non-empty");
    let g = u16::from(group);
    let row = chip / cols;
    let col = chip % cols;
    let start = (col / g) * g;
    let end = (start + g).min(cols);
    (row * cols + start, row * cols + end)
}

impl std::fmt::Display for RedundancyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Point labels and file names carry these labels, so no two schemes
    /// — presets or any other parity group — may share one.
    #[test]
    fn labels_are_distinct() {
        let kinds = std::iter::once(RedundancyKind::None)
            .chain((2..=64).map(|group| RedundancyKind::Parity { group }));
        let labels: std::collections::HashSet<String> = kinds.map(|k| k.label()).collect();
        assert_eq!(labels.len(), 64, "none plus parity2..=parity64");
        assert_eq!(RedundancyKind::default(), RedundancyKind::None);
    }

    #[test]
    fn none_arms_nothing() {
        assert!(!RedundancyKind::None.is_armed());
        assert_eq!(RedundancyKind::None.group(), None);
        assert!(RedundancyKind::None.survivors(36, 8).is_empty());
        assert!(RedundancyKind::Parity { group: 4 }.is_armed());
    }

    #[test]
    fn groups_tile_rows_and_never_cross_them() {
        // 8×8 mesh, stripe 4: chip 36 is row 4, col 4 → group [36, 40).
        assert_eq!(parity_group(36, 8, 4), (36, 40));
        assert_eq!(
            RedundancyKind::Parity { group: 4 }.survivors(36, 8),
            vec![37, 38, 39]
        );
        // Col 3 belongs to the row's first group [32, 36).
        assert_eq!(parity_group(35, 8, 4), (32, 36));
        // Every chip's group stays within its own row.
        for chip in 0..64u16 {
            let (s, e) = parity_group(chip, 8, 4);
            assert_eq!(s / 8, chip / 8);
            assert_eq!((e - 1) / 8, chip / 8);
            assert!((s..e).contains(&chip));
        }
    }

    #[test]
    fn trailing_groups_clamp_to_the_row() {
        // 6-wide row, stripe 4: groups [0,4) and [4,6).
        assert_eq!(parity_group(5, 6, 4), (4, 6));
        assert_eq!(RedundancyKind::Parity { group: 4 }.survivors(5, 6), vec![4]);
        // A one-column row leaves no survivors: reconstruction impossible.
        assert!(RedundancyKind::Parity { group: 4 }.survivors(3, 1).is_empty());
    }

    #[test]
    fn pacing_constants_are_sane() {
        const { assert!(REBUILD_BURST >= REBUILD_RATE, "bucket must hold one refill") };
        const { assert!(REBUILD_MAX_JOBS >= 1) };
        const { assert!(REBUILD_SCAN_BATCH >= 1) };
        const { assert!(REBUILD_RETRY_LIMIT >= 1) };
        assert!(REBUILD_TICK > SimDuration::ZERO);
    }
}
