//! Pluggable dispatch policies: how the SSD's dispatcher chooses which
//! queued work to attempt each round.
//!
//! PR 1's profiling (ROADMAP perf follow-up (a)) showed that congested
//! Venice runs spend most of their time in *failed* scout walks: the
//! dispatcher re-attempts every queued transfer each round, and each
//! attempt on a blocked chip walks the mesh just to be cancelled. The
//! policy layer makes that strategy a first-class, swappable design axis:
//!
//! * [`DispatchPolicyKind::RetryAll`] — the original behavior (and the
//!   default): every eligible chip is attempted every round. Bit-identical
//!   `RunMetrics` to the pre-policy engine.
//! * [`DispatchPolicyKind::ConflictBackoff`] — a chip whose acquisition
//!   just failed on a *path conflict* is skipped for an exponentially
//!   growing number of rounds (1, 2, 4, … up to [`BACKOFF_MAX_ROUNDS`]);
//!   a success resets the chip. Failures that merely mean "busy chip"
//!   ([`AcquireError::ChannelBusy`]) or "no controller free" never back
//!   off — [`AcquireError::is_path_conflict`] draws the distinction.
//! * [`DispatchPolicyKind::Auto`] — backoff on the mesh fabrics, retry-all
//!   on the bus designs.
//!
//! Backoff honors a starvation guard: a chip whose oldest queued
//! transaction is older than [`STARVATION_NS`] (per the TSU's queue-age
//! probe) is always attempted, so no chip can be deferred indefinitely by
//! its own bad luck.
//!
//! # Conflict-accounting invariant
//!
//! Skipping an attempt is *not* a conflict: `conflicted_requests`,
//! `FabricStats::conflicts`, and the per-request first-conflict flag are
//! only ever charged by attempts that actually reach the fabric, or that
//! the dispatcher knows would reach it and fail the same way (skipped path
//! sleepers, see `ssd/dispatch.rs`). A policy
//! therefore changes *which* attempts happen (deterministically), never
//! how an attempt is accounted. The determinism fingerprint of a
//! `(config, policy, system, trace)` quadruple remains exact.
//!
//! # Hot-path storage
//!
//! Per-chip policy state lives in dense arrays indexed by chip id —
//! round-stamped so that neither a round start nor a policy decision ever
//! scans or clears `O(chips)` state — per the repo's slab/dense-Vec rule.

use std::fmt;

use venice_interconnect::{AcquireError, FabricKind};

/// Maximum rounds a chip can be backed off for (cap of the exponential).
pub const BACKOFF_MAX_ROUNDS: u64 = 64;

/// Queue age (ns) past which a chip is considered starving and exempt from
/// policy skips (2 ms ≈ two tBERS of the performance-optimized flash).
pub const STARVATION_NS: u64 = 2_000_000;

/// Which dispatch policy an SSD runs (the sweep engine's `policy` axis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DispatchPolicyKind {
    /// Attempt every eligible chip every round (the pre-policy engine's
    /// behavior, bit-identical metrics).
    #[default]
    RetryAll,
    /// Exponential per-chip backoff after path-conflict failures.
    ConflictBackoff,
    /// Pick the best measured policy for the fabric under test: mesh
    /// designs run [`DispatchPolicyKind::ConflictBackoff`] (1.43× engine
    /// events/sec on congested Venice for a ~6% simulated-exec-time cost —
    /// `results/policy_ablation.json`); bus designs run
    /// [`DispatchPolicyKind::RetryAll`] (on the congested Baseline, backoff
    /// inflates the *simulated* SSD's execution time by ~13% for a marginal
    /// engine gain — a bus conflict is cheap to probe and frees at burst
    /// granularity, so deferring the retry mostly just delays service).
    /// Resolution happens once, at simulator construction
    /// ([`DispatchPolicyKind::resolve_for`]); `RunMetrics.policy` reports
    /// `auto`, so sweep-point round-trips stay exact.
    Auto,
}

impl DispatchPolicyKind {
    /// All policies, in presentation order.
    pub const ALL: [DispatchPolicyKind; 3] = [
        DispatchPolicyKind::RetryAll,
        DispatchPolicyKind::ConflictBackoff,
        DispatchPolicyKind::Auto,
    ];

    /// Stable label used in sweep-point labels, manifests, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            DispatchPolicyKind::RetryAll => "retry-all",
            DispatchPolicyKind::ConflictBackoff => "conflict-backoff",
            DispatchPolicyKind::Auto => "auto",
        }
    }

    /// The concrete policy this kind runs on `fabric` — the per-fabric
    /// default table behind [`DispatchPolicyKind::Auto`], chosen from the
    /// `results/policy_ablation.json` ablation: backoff pays on the mesh
    /// fabrics (failed scout walks are expensive and skippable) and on the
    /// bus designs costs simulated SSD performance for little engine gain
    /// (a bus conflict is cheap to probe and frees at burst granularity).
    /// Every non-`Auto` kind resolves to itself.
    pub fn resolve_for(&self, fabric: FabricKind) -> DispatchPolicyKind {
        match self {
            DispatchPolicyKind::Auto => match fabric {
                FabricKind::NoSsd | FabricKind::Venice => DispatchPolicyKind::ConflictBackoff,
                FabricKind::Baseline
                | FabricKind::Pssd
                | FabricKind::PnSsd
                | FabricKind::Ideal => DispatchPolicyKind::RetryAll,
            },
            other => *other,
        }
    }
}

impl fmt::Display for DispatchPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cumulative dispatcher statistics (part of [`crate::RunMetrics`] and the
/// determinism fingerprint).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// Acquisition attempts issued to the fabric.
    pub attempts: u64,
    /// Attempts suppressed by the policy's backoff.
    pub skipped_backoff: u64,
    /// Attempts that failed with a path conflict (failed scout walks on
    /// mesh fabrics, bus conflicts on channel fabrics).
    pub failed_walks: u64,
}

/// Which dispatch-round implementation the engine runs. Both produce
/// bit-identical [`crate::RunMetrics`] for every `(config, policy, system,
/// trace)` quadruple — the scan kind is a pure performance knob, never an
/// axis of behavior — enforced by the randomized cross-check in
/// `tests/properties.rs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DispatchScanKind {
    /// Incremental ready-set dispatch (the default): rounds visit only
    /// chips with dispatchable work, via dense bit sets maintained at TSU
    /// enqueue/pop and data-burst arrival, and a round that ended on an
    /// exhausted controller pool parks until a release frees one.
    #[default]
    Incremental,
    /// The retained full-scan reference dispatcher: every round walks all
    /// chips (data bursts) and linearly scans the TSU for busy chips.
    /// O(chips) per round; kept for cross-checking the incremental engine.
    FullScan,
}

/// Live per-simulation policy state: the [`DispatchPolicyKind`] plus dense
/// per-chip arrays (see the module docs for the storage rule).
#[derive(Clone, Debug)]
pub(crate) struct PolicyState {
    /// The configured kind (what `RunMetrics.policy` reports; may be
    /// [`DispatchPolicyKind::Auto`]).
    configured: DispatchPolicyKind,
    /// The concrete policy driving decisions (never `Auto`).
    active: DispatchPolicyKind,
    /// Current dispatch round (monotone; one `begin_round` per round).
    round: u64,
    /// ConflictBackoff: first round in which the chip may be attempted again.
    backoff_until: Vec<u64>,
    /// ConflictBackoff: consecutive-failure exponent, reset on success.
    backoff_exp: Vec<u8>,
    /// Whether this round suppressed at least one attempt.
    skipped_this_round: bool,
    /// Whether this round acquired at least one path.
    dispatched_this_round: bool,
    stats: DispatchStats,
}

impl PolicyState {
    pub(crate) fn new(kind: DispatchPolicyKind, fabric: FabricKind, chips: usize) -> Self {
        let resolved = kind.resolve_for(fabric);
        debug_assert_ne!(resolved, DispatchPolicyKind::Auto, "Auto must resolve");
        PolicyState {
            configured: kind,
            active: resolved,
            round: 0,
            backoff_until: vec![0; chips],
            backoff_exp: vec![0; chips],
            skipped_this_round: false,
            dispatched_this_round: false,
            stats: DispatchStats::default(),
        }
    }

    /// The configured kind, for reporting (`Auto` stays `Auto` so sweep
    /// labels and manifests round-trip).
    pub(crate) fn kind(&self) -> DispatchPolicyKind {
        self.configured
    }

    /// The concrete policy driving decisions (what `Auto` resolved to).
    #[cfg(test)]
    pub(crate) fn resolved(&self) -> DispatchPolicyKind {
        self.active
    }

    /// Starts a dispatch round.
    #[inline]
    pub(crate) fn begin_round(&mut self) {
        self.round += 1;
        self.stats.rounds += 1;
        self.skipped_this_round = false;
        self.dispatched_this_round = false;
    }

    /// Asks whether the dispatcher may issue one acquisition attempt for
    /// `chip` (whose oldest queued transaction is `queue_age_ns` old).
    /// Returns false when the policy suppresses the attempt; a true return
    /// *consumes* the attempt (it is counted), so call it only immediately
    /// before `try_acquire`.
    #[inline]
    pub(crate) fn try_attempt(&mut self, chip: u16, queue_age_ns: u64) -> bool {
        let c = usize::from(chip);
        match self.active {
            DispatchPolicyKind::RetryAll => {}
            DispatchPolicyKind::ConflictBackoff => {
                if self.round < self.backoff_until[c] {
                    if queue_age_ns > STARVATION_NS {
                        // Starvation guard: attempt anyway and restart the
                        // chip's backoff schedule from scratch.
                        self.backoff_until[c] = 0;
                        self.backoff_exp[c] = 0;
                    } else {
                        self.stats.skipped_backoff += 1;
                        self.skipped_this_round = true;
                        return false;
                    }
                }
            }
            DispatchPolicyKind::Auto => {
                unreachable!("Auto resolves to a concrete policy at construction")
            }
        }
        self.stats.attempts += 1;
        true
    }

    /// Records a successful path acquisition for `chip`.
    #[inline]
    pub(crate) fn note_success(&mut self, chip: u16) {
        self.dispatched_this_round = true;
        if self.active == DispatchPolicyKind::ConflictBackoff {
            let c = usize::from(chip);
            self.backoff_until[c] = 0;
            self.backoff_exp[c] = 0;
        }
    }

    /// Records a failed path acquisition for `chip`.
    #[inline]
    pub(crate) fn note_failure(&mut self, chip: u16, err: &AcquireError) {
        if !err.is_path_conflict() {
            // Busy chips (Ideal's dedicated channels) and exhausted
            // controller pools are not the dispatcher's fault: no backoff.
            return;
        }
        self.stats.failed_walks += 1;
        if self.active == DispatchPolicyKind::ConflictBackoff {
            let c = usize::from(chip);
            let wait = (1u64 << self.backoff_exp[c]).min(BACKOFF_MAX_ROUNDS);
            self.backoff_until[c] = self.round + 1 + wait;
            if (1u64 << self.backoff_exp[c]) < BACKOFF_MAX_ROUNDS {
                self.backoff_exp[c] += 1;
            }
        }
    }

    /// Charges `n` attempts the dispatcher knew would fail with a path
    /// conflict and skipped (path sleepers; only under `RetryAll`, where a
    /// failed attempt changes nothing but these two counters).
    #[inline]
    pub(crate) fn charge_replayed(&mut self, n: u64) {
        debug_assert_eq!(
            self.active,
            DispatchPolicyKind::RetryAll,
            "only RetryAll replays"
        );
        self.stats.attempts += n;
        self.stats.failed_walks += n;
    }

    /// True when this round acquired at least one path (the fault
    /// liveness probe re-arms dispatch only for rounds that moved nothing).
    #[inline]
    pub(crate) fn round_dispatched(&self) -> bool {
        self.dispatched_this_round
    }

    /// True when this round suppressed work without dispatching anything:
    /// the caller must schedule a future dispatch probe, because no
    /// in-flight event is guaranteed to re-trigger dispatch and the
    /// skipped work would otherwise strand.
    #[inline]
    pub(crate) fn round_needs_probe(&self) -> bool {
        self.skipped_this_round && !self.dispatched_this_round
    }

    pub(crate) fn stats(&self) -> DispatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFLICT: AcquireError = AcquireError::PathConflict;

    /// Point labels and file names carry these labels, so no two policies
    /// may share one.
    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            DispatchPolicyKind::ALL.iter().map(DispatchPolicyKind::label).collect();
        assert_eq!(labels.len(), DispatchPolicyKind::ALL.len());
        assert_eq!(DispatchPolicyKind::default(), DispatchPolicyKind::RetryAll);
    }

    #[test]
    fn auto_resolves_per_fabric_and_reports_itself() {
        for fabric in FabricKind::ALL {
            let expect = match fabric {
                FabricKind::NoSsd | FabricKind::Venice => DispatchPolicyKind::ConflictBackoff,
                _ => DispatchPolicyKind::RetryAll,
            };
            assert_eq!(DispatchPolicyKind::Auto.resolve_for(fabric), expect, "{fabric}");
            let p = PolicyState::new(DispatchPolicyKind::Auto, fabric, 4);
            assert_eq!(p.kind(), DispatchPolicyKind::Auto, "metrics report `auto`");
            assert_eq!(p.resolved(), expect, "{fabric}");
            // Concrete kinds resolve to themselves on every fabric.
            for kind in [DispatchPolicyKind::RetryAll, DispatchPolicyKind::ConflictBackoff] {
                assert_eq!(kind.resolve_for(fabric), kind);
            }
        }
    }

    #[test]
    fn auto_backs_off_like_conflict_backoff_on_mesh_fabrics() {
        let mut p = PolicyState::new(DispatchPolicyKind::Auto, FabricKind::Venice, 1);
        p.begin_round();
        assert!(p.try_attempt(0, 0));
        p.note_failure(0, &CONFLICT);
        p.begin_round();
        assert!(!p.try_attempt(0, 0), "auto-on-mesh backs off after a conflict");
        // On a bus fabric Auto is RetryAll: never skips.
        let mut bus = PolicyState::new(DispatchPolicyKind::Auto, FabricKind::Baseline, 1);
        bus.begin_round();
        assert!(bus.try_attempt(0, 0));
        bus.note_failure(0, &CONFLICT);
        bus.begin_round();
        assert!(bus.try_attempt(0, 0), "auto-on-bus retries everything");
    }

    #[test]
    fn retry_all_never_skips() {
        let mut p = PolicyState::new(DispatchPolicyKind::RetryAll, FabricKind::Venice, 4);
        for _ in 0..10 {
            p.begin_round();
            for chip in 0..4 {
                assert!(p.try_attempt(chip, 0));
                p.note_failure(chip, &CONFLICT);
            }
            assert!(!p.round_needs_probe());
        }
        let s = p.stats();
        assert_eq!(s.rounds, 10);
        assert_eq!(s.attempts, 40);
        assert_eq!(s.skipped_backoff, 0);
        assert_eq!(s.failed_walks, 40);
    }

    #[test]
    fn backoff_grows_exponentially_and_resets_on_success() {
        let mut p = PolicyState::new(DispatchPolicyKind::ConflictBackoff, FabricKind::Venice, 2);
        // First failure: skipped for 1 round, then eligible again.
        p.begin_round();
        assert!(p.try_attempt(0, 0));
        p.note_failure(0, &CONFLICT);
        p.begin_round();
        assert!(!p.try_attempt(0, 0), "one-round backoff");
        assert!(p.round_needs_probe());
        p.begin_round();
        assert!(p.try_attempt(0, 0), "backoff expired");
        // Second consecutive failure: two rounds of skip.
        p.note_failure(0, &CONFLICT);
        p.begin_round();
        assert!(!p.try_attempt(0, 0));
        p.begin_round();
        assert!(!p.try_attempt(0, 0));
        p.begin_round();
        assert!(p.try_attempt(0, 0));
        // A success clears the schedule entirely.
        p.note_success(0);
        p.note_failure(0, &CONFLICT);
        p.begin_round();
        assert!(!p.try_attempt(0, 0), "restarted at one round");
        p.begin_round();
        assert!(p.try_attempt(0, 0));
        // Chip 1 was never penalized.
        assert_eq!(p.stats().skipped_backoff, 4);
    }

    #[test]
    fn busy_chip_failures_do_not_back_off() {
        let mut p = PolicyState::new(DispatchPolicyKind::ConflictBackoff, FabricKind::Venice, 1);
        p.begin_round();
        assert!(p.try_attempt(0, 0));
        p.note_failure(0, &AcquireError::ChannelBusy);
        p.note_failure(0, &AcquireError::NoFreeController);
        p.begin_round();
        assert!(p.try_attempt(0, 0), "non-conflict failures never back off");
        assert_eq!(p.stats().failed_walks, 0);
    }

    #[test]
    fn starving_chips_bypass_backoff() {
        let mut p = PolicyState::new(DispatchPolicyKind::ConflictBackoff, FabricKind::Venice, 1);
        p.begin_round();
        assert!(p.try_attempt(0, 0));
        p.note_failure(0, &CONFLICT);
        p.begin_round();
        assert!(
            p.try_attempt(0, STARVATION_NS + 1),
            "starvation guard overrides backoff"
        );
    }

    #[test]
    fn backoff_wait_caps_at_max_rounds() {
        let mut p = PolicyState::new(DispatchPolicyKind::ConflictBackoff, FabricKind::Venice, 1);
        for _ in 0..20 {
            p.begin_round();
            if p.try_attempt(0, 0) {
                p.note_failure(0, &CONFLICT);
            }
        }
        // After repeated failures the schedule is capped, not unbounded.
        let mut waited = 0u64;
        loop {
            p.begin_round();
            if p.try_attempt(0, 0) {
                break;
            }
            waited += 1;
            assert!(waited <= BACKOFF_MAX_ROUNDS, "wait exceeded the cap");
        }
    }
}
