//! Dispatch rounds: [`Dispatcher`] holds their state, and the `SsdSim`
//! methods here run them. Each round consults the dispatch policy
//! ([`crate::DispatchPolicyKind`], see `crate::dispatch`) before issuing an
//! acquisition attempt, and a round that only suppressed work schedules
//! its own probe so deferred chips can never strand.
//!
//! # Incremental ready-set dispatch
//!
//! Dispatch rounds cost O(ready chips), not O(all chips): chips with a
//! pending read-data burst live in a dense bit set (`data_ready`,
//! maintained at burst arrival/drain), chips with queued TSU work come
//! from the TSU's own busy set, and a round that ended on an exhausted
//! controller pool parks (`parked_on_controllers`) until the next fabric
//! release. The visit order — circular ascending from the rotating
//! fairness cursor, busy-list rotation by `cursor % busy.len()` — is
//! *exactly* the order the retained full-scan dispatcher
//! ([`crate::DispatchScanKind::FullScan`]) produces, so the two engines
//! emit bit-identical `RunMetrics` (randomized cross-check in
//! `tests/properties.rs`). The `RetryAll` golden hash in
//! `tests/integration.rs` additionally pins every *simulated-behavior*
//! field — execution time, events, transactions, conflicts, acquisitions,
//! energy — to the pre-policy dispatcher; dispatcher-*effort* stats
//! (`rounds`/`attempts`/`controller_unavailable`) may run lower than
//! PR 3's on pool-exhausting workloads because parked rounds stop
//! counting doomed probes. See `docs/ARCHITECTURE.md` § "Ready-set
//! dispatch" for the re-arming invariants.
//!
//! # Sleepers
//!
//! Most visits to a ready chip are doomed, and the outcome is known
//! before the visit. Incrementally, such a chip *sleeps*: it stays in its
//! ready set (so the busy-list length and the rotation start do not
//! change), and each pass walks only the awake members ([`SetWalk`]: a
//! frozen copy of the set, circular from the pass's start, skipping the
//! ids asleep when their turn comes). Two kinds:
//!
//! * **Die sleepers** (every fabric and policy): the command visit stopped
//!   at the head transaction's busy die. Such a visit charges nothing. The
//!   chip wakes when work is enqueued to it (`spawn_txn`: the head may
//!   change) or when any of its dies frees (`free_die`).
//! * **Path sleepers** (the bus fabrics under resolved `RetryAll`): a data
//!   or command visit failed with [`AcquireError::PathConflict`]. The chip
//!   wakes on an enqueue (command sleepers only: new data bursts queue
//!   behind the front one) or on a release that can free one of its paths;
//!   the fabric names those chips ([`Fabric::release_scope`]: controller
//!   k's row, and on pnSSD its column too), so the engine stays free of
//!   topology.
//!
//! Every fault, repair and live deadline timeout wakes every sleeper.
//!
//! A skipped path sleeper is a retry whose outcome is known, not one that
//! never happened: each open pass charges its skipped path sleepers to
//! `DispatchStats::attempts`, `DispatchStats::failed_walks` and
//! `FabricStats::conflicts` in one add. That is exact because releases
//! never happen inside a round, the home pass skips such a chip anyway
//! (`home_controller_free` is false while every path is held), its head
//! transaction or front burst is already conflict-flagged, and a failed bus
//! `try_acquire` changes nothing else. NoSSD and Venice arm no path
//! sleepers: their failed attempts move other state (XY probes, the shared
//! scout LFSR). Debug builds assert at every skip that the sleeper's
//! blocker still holds (for a path sleeper, that the fabric's dry run,
//! [`Fabric::acquire_outcome`], still answers `PathConflict`); `FullScan`
//! keeps visiting every chip, so the cross-check, the golden hashes and
//! the perfbench fingerprints pin it.

use venice_interconnect::{AcquireError, NodeId};
use venice_sim::SetWalk;

use super::*;
use crate::dispatch::{DispatchScanKind, PolicyState};
use crate::DispatchPolicyKind;

/// Delay before a policy-forced dispatch probe (see
/// [`SsdSim::on_dispatch`]): one wheel-bucket-sized breather, long enough
/// to advance the clock, short next to any array operation.
const POLICY_PROBE_DELAY: SimDuration = SimDuration::from_nanos(256);

/// Delay between fault liveness probes: with faults in play a dispatch
/// round can fail with no in-flight event guaranteed to re-trigger it
/// (every path to a chip severed until a scripted repair), so the engine
/// keeps probing at this cadence. Coarser than [`POLICY_PROBE_DELAY`] —
/// outages last tens of microseconds — and only ever scheduled while a
/// fault plan is configured.
const FAULT_PROBE_DELAY: SimDuration = SimDuration::from_micros(2);

/// The dispatcher's state: everything a round reads besides the queues.
pub(super) struct Dispatcher {
    /// A round is on the calendar (state changes coalesce into it).
    pending: bool,
    /// Rotating fairness cursor: each round starts its visits here.
    cursor: usize,
    /// Parked-until-controller-free: set when a dispatch round ended on
    /// [`AcquireError::NoFreeController`] (a pooled fabric's controllers
    /// are all mid-transfer, so *no* acquisition can succeed); dispatch
    /// rounds no-op — advancing only the fairness cursor — until the next
    /// fabric release (see [`SsdSim::release`]).
    pub(super) parked_on_controllers: bool,
    /// Ready set: chips with at least one read-data burst waiting for a
    /// path out (mirrors "`data_pending[c]` non-empty"), maintained at
    /// burst arrival and drain so incremental dispatch rounds visit only
    /// these chips instead of walking every chip.
    pub(super) data_ready: DenseBitSet,
    /// The full-scan reference's visit list, reused across passes.
    scratch: Vec<u16>,
    /// The incremental passes' walk, reused across passes.
    walk: SetWalk,
    /// Chips whose next visit is known (see the module docs). Only the
    /// incremental passes put chips to sleep.
    pub(super) sleepers: Sleepers,
    /// The dispatch policy's per-chip state (see `crate::dispatch`).
    pub(super) policy: PolicyState,
}

/// The chips each incremental pass skips until their blocker changes.
pub(super) struct Sleepers {
    /// Command sleepers: the head transaction's die is busy.
    die: DenseBitSet,
    /// Command sleepers: every path to the chip is held.
    command_path: DenseBitSet,
    /// Data sleepers: every path to the chip is held.
    data_path: DenseBitSet,
    /// Path sleepers are armed: incremental scan, resolved `RetryAll`, and
    /// a fabric with release scopes.
    paths: bool,
}

impl Sleepers {
    /// Work was enqueued to `chip`: its head transaction may have changed.
    pub(super) fn wake_command(&mut self, chip: usize) {
        self.die.remove(chip);
        self.command_path.remove(chip);
    }

    /// One of `chip`'s dies freed.
    pub(super) fn wake_die(&mut self, chip: usize) {
        self.die.remove(chip);
    }

    /// A fault, repair or deadline timeout: any blocker may have changed.
    pub(super) fn wake_all(&mut self) {
        self.die.clear();
        self.command_path.clear();
        self.data_path.clear();
    }
}

impl Dispatcher {
    /// `release_scopes` says whether the fabric names the chips each
    /// release can free ([`Fabric::release_scope`]).
    pub(super) fn new(config: &SsdConfig, fabric: FabricKind, release_scopes: bool) -> Self {
        let chips = usize::from(config.array.chips);
        let paths = config.scan == DispatchScanKind::Incremental
            && release_scopes
            && config.dispatch.resolve_for(fabric) == DispatchPolicyKind::RetryAll;
        Dispatcher {
            pending: false,
            cursor: 0,
            parked_on_controllers: false,
            data_ready: DenseBitSet::with_capacity(chips),
            scratch: Vec::new(),
            walk: SetWalk::default(),
            sleepers: Sleepers {
                die: DenseBitSet::with_capacity(chips),
                command_path: DenseBitSet::with_capacity(chips),
                data_path: DenseBitSet::with_capacity(chips),
                paths,
            },
            policy: PolicyState::new(config.dispatch, fabric, chips),
        }
    }
}

/// How a chip visit ended: what the next visit can be known to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// Nothing is known about the next visit.
    Done,
    /// Stopped at the head transaction's busy die.
    DieBusy,
    /// An acquisition failed with a path conflict.
    Conflict,
    /// The fabric ran out of controllers: the round ends.
    RanOut,
}

/// The chip ids of word `w`'s set bits.
fn ids(w: usize, bits: u64) -> impl Iterator<Item = usize> {
    (0..64)
        .filter(move |b| bits >> b & 1 == 1)
        .map(move |b| w * 64 + b)
}

impl SsdSim<'_> {
    /// Puts a dispatch round on the calendar at `at`, unless one is pending.
    pub(super) fn schedule_dispatch(&mut self, at: SimTime) {
        if !self.dispatch.pending {
            self.dispatch.pending = true;
            self.queue.schedule(at, Event::Dispatch);
        }
    }

    pub(super) fn on_dispatch(&mut self, now: SimTime) {
        self.dispatch.pending = false;
        if self.dispatch.parked_on_controllers {
            // Parked-until-controller-free: every controller of a pooled
            // fabric is mid-transfer, so no acquisition can succeed until a
            // release frees one (`release`; every release is followed by a
            // dispatch). The round no-ops; the fairness cursor still
            // advances so rotation stays aligned with a round that ran and
            // failed. Relative to an engine without parking this
            // changes only dispatcher-*effort* accounting (`rounds`,
            // `attempts`, `controller_unavailable` stop counting doomed
            // probes) — never simulated behavior: nothing could have
            // dispatched, so execution time, latencies, conflict counts,
            // acquisitions, and event scheduling are untouched. Both scan
            // kinds park identically, keeping incremental vs full-scan
            // metrics bit-identical.
            self.dispatch.cursor = self.dispatch.cursor.wrapping_add(1);
            return;
        }
        self.dispatch.policy.begin_round();
        // Two passes implement the paper's controller-affinity policy: first
        // serve chips whose *home-row* controller is free (short, row-local
        // circuits), then let remaining work reach over to distant
        // controllers. A pass that runs out of controllers ends the round.
        let no_controller = [true, false].into_iter().any(|home| {
            self.dispatch_data_bursts(now, home) || self.dispatch_command_bursts(now, home)
        });
        self.dispatch.cursor = self.dispatch.cursor.wrapping_add(1);
        if no_controller {
            // The round ended on an exhausted controller pool: park. The
            // next release is guaranteed (the pool is exhausted because
            // grants are outstanding) and wakes dispatch, so skipped chips
            // cannot strand and no probe is needed.
            self.dispatch.parked_on_controllers = true;
        } else if self.dispatch.policy.round_needs_probe() {
            // Every attempt this round was suppressed and nothing was
            // dispatched: no in-flight completion is guaranteed to wake the
            // dispatcher, so schedule a probe round ourselves. Rounds are
            // what backoff counts in, so the deferred chips become eligible
            // again after a bounded number of probes.
            debug_assert!(!self.dispatch.pending);
            self.schedule_dispatch(now + POLICY_PROBE_DELAY);
        } else if self.faults.is_some()
            && !self.dispatch.policy.round_dispatched()
            && (self.tsu.pending() > 0 || !self.dispatch.data_ready.is_empty())
        {
            // Fault-mode liveness probe: a round moved nothing while work is
            // queued. Under faults that can mean every route to the work is
            // down (a severed route is a retryable path conflict until
            // repair) with no in-flight completion left to wake us — re-arm
            // ourselves. Only active when a fault plan is configured (even
            // one whose script is empty on this mesh), so fault-free runs
            // keep a bit-identical calendar.
            self.schedule_dispatch(now + FAULT_PROBE_DELAY);
        }
    }

    /// Returns a burst's grant to the fabric, wakes the path sleepers the
    /// release can free, and un-parks dispatch. Un-parking is exact: only
    /// the pooled fabrics (NoSSD, Venice) ever fail with
    /// [`AcquireError::NoFreeController`], each of their releases frees a
    /// controller, and the bus and ideal fabrics never park.
    pub(super) fn release(&mut self, grant: PathGrant) {
        let sleepers = &mut self.dispatch.sleepers;
        if sleepers.paths {
            let scope = self
                .fabric
                .release_scope(grant.fc)
                .expect("path sleepers need scopes");
            sleepers.command_path.remove_all(scope);
            sleepers.data_path.remove_all(scope);
        }
        self.fabric.release(grant);
        self.dispatch.parked_on_controllers = false;
    }

    /// Pending read-data bursts (they hold their die's page register, so
    /// they go before new commands). Returns true when the fabric ran out of
    /// controllers.
    ///
    /// The pass visits chips in circular ascending order from the fairness
    /// cursor. Incrementally it walks the awake members of `data_ready`;
    /// the retained full scan visits every chip — chips with no pending
    /// burst contribute nothing and sleepers' visits are charged in bulk,
    /// so the acquisition sequence is bit-identical between the two.
    fn dispatch_data_bursts(&mut self, now: SimTime, home_only: bool) -> bool {
        let chip_count = self.chips.len();
        let start = self.dispatch.cursor % chip_count;
        if self.config.scan == DispatchScanKind::FullScan {
            return (0..chip_count).any(|off| {
                let chip = ((start + off) % chip_count) as u16;
                self.visit_data(now, chip, home_only) == Visit::RanOut
            });
        }
        let mut walk = std::mem::take(&mut self.dispatch.walk);
        walk.begin(&self.dispatch.data_ready, start);
        let mut replayed = 0u64;
        let ran_out = loop {
            let asleep = &self.dispatch.sleepers.data_path;
            let next = walk.next(
                |w| asleep.word(w),
                |w, bits| {
                    replayed += u64::from(bits.count_ones());
                    if cfg!(debug_assertions) {
                        ids(w, bits).for_each(|c| self.check_data_sleeper(c));
                    }
                },
            );
            let Some(c) = next else { break false };
            match self.visit_data(now, c as u16, home_only) {
                Visit::RanOut => break true,
                Visit::Conflict if self.dispatch.sleepers.paths => {
                    self.dispatch.sleepers.data_path.insert(c);
                }
                _ => {}
            }
        };
        self.dispatch.walk = walk;
        if !home_only {
            self.charge_replayed(replayed);
        }
        ran_out
    }

    /// One chip's data-burst visit: bursts go out front first until one
    /// cannot.
    fn visit_data(&mut self, now: SimTime, chip: u16, home_only: bool) -> Visit {
        let c = usize::from(chip);
        if self.chip_dead(c) {
            // The chip died after its data became ready: fail-drain
            // (mirrors `kill_chip` for bursts queued post-death).
            while self.fail_data_burst(now, c) {}
            return Visit::Done;
        }
        if home_only && !self.fabric.home_controller_free(NodeId(chip)) {
            return Visit::Done;
        }
        while let Some(&txn_id) = self.data_pending[c].front() {
            if self.txn_aborted(self.slot(txn_id).txn.request) {
                // The owning request's deadline fired while this burst
                // waited for a path out: fail it at visit time (mirrors the
                // dead-chip drain above).
                self.fail_data_burst(now, c);
                continue;
            }
            // Data bursts hold their die's page register, so the TSU queue
            // age does not apply; pass zero (no starvation override — the
            // backoff bound alone caps the deferral).
            if !self.dispatch.policy.try_attempt(chip, 0) {
                return Visit::Done;
            }
            match self.fabric.try_acquire(NodeId(chip)) {
                Ok(grant) => {
                    self.dispatch.policy.note_success(chip);
                    self.pop_data_burst(c);
                    let bytes = self.config.page_bytes();
                    let d = self.fabric.transfer(&grant, bytes);
                    let inf = self.slot_mut(txn_id);
                    inf.phase = Phase::DataOut;
                    inf.grant = Some(grant);
                    self.queue.schedule(now + d, Event::DataSent(txn_id));
                }
                Err(AcquireError::ResourceDead) => {
                    // Dead path with no live chip mask (e.g. a dead
                    // dedicated channel): fail the burst and move on.
                    self.fail_data_burst(now, c);
                }
                Err(e) => return self.note_acquire_failure(chip, txn_id, e),
            }
        }
        Visit::Done
    }

    /// Pops chip `c`'s oldest read-data burst, keeping `data_ready` in step
    /// with "`data_pending[c]` non-empty".
    fn pop_data_burst(&mut self, c: usize) -> Option<TxnId> {
        let txn_id = self.data_pending[c].pop_front()?;
        if self.data_pending[c].is_empty() {
            self.dispatch.data_ready.remove(c);
        }
        Some(txn_id)
    }

    /// Fails chip `c`'s oldest read-data burst and frees its die; returns
    /// false when no burst was waiting.
    pub(super) fn fail_data_burst(&mut self, now: SimTime, c: usize) -> bool {
        let Some(txn_id) = self.pop_data_burst(c) else {
            return false;
        };
        self.free_die(self.slot(txn_id).txn.target);
        self.fail_txn(now, txn_id);
        true
    }

    /// Command (and command+data) bursts for queued transactions. Returns
    /// true when the fabric ran out of controllers.
    ///
    /// The busy-chip list is in ascending chip-id order and the rotation
    /// start is its `cursor % busy.len()`-th member, so the list must
    /// contain *every* chip with queued work — sleepers included — or the
    /// rotation would drift between engines. Incrementally the pass walks
    /// the awake members of the TSU's busy set from that member (a rank
    /// query); the retained full scan walks every chip's queues. Identical
    /// output.
    fn dispatch_command_bursts(&mut self, now: SimTime, home_only: bool) -> bool {
        if self.config.scan == DispatchScanKind::FullScan {
            let mut busy = std::mem::take(&mut self.dispatch.scratch);
            self.tsu.busy_chips_scan_into(&mut busy);
            let start = self.dispatch.cursor % busy.len().max(1);
            let ran_out = (0..busy.len()).any(|off| {
                let c = busy[(start + off) % busy.len()];
                self.visit_command(now, c, home_only) == Visit::RanOut
            });
            self.dispatch.scratch = busy;
            return ran_out;
        }
        let busy = self.tsu.busy_set();
        let Some(start) = busy.nth(self.dispatch.cursor % busy.len().max(1)) else {
            return false;
        };
        let mut walk = std::mem::take(&mut self.dispatch.walk);
        walk.begin(busy, start);
        let mut replayed = 0u64;
        let ran_out = loop {
            let sleepers = &self.dispatch.sleepers;
            let next = walk.next(
                |w| sleepers.die.word(w) | sleepers.command_path.word(w),
                |w, bits| {
                    replayed += u64::from((bits & sleepers.command_path.word(w)).count_ones());
                    if cfg!(debug_assertions) {
                        ids(w, bits).for_each(|c| self.check_command_sleeper(c));
                    }
                },
            );
            let Some(c) = next else { break false };
            match self.visit_command(now, c as u16, home_only) {
                Visit::RanOut => break true,
                Visit::DieBusy => {
                    self.dispatch.sleepers.die.insert(c);
                }
                Visit::Conflict if self.dispatch.sleepers.paths => {
                    self.dispatch.sleepers.command_path.insert(c);
                }
                _ => {}
            }
        };
        self.dispatch.walk = walk;
        if !home_only {
            self.charge_replayed(replayed);
        }
        ran_out
    }

    /// One chip's command visit: queued transactions go out head first
    /// until one cannot.
    fn visit_command(&mut self, now: SimTime, c: u16, home_only: bool) -> Visit {
        if self.chip_dead(usize::from(c)) {
            // Work arrived for a chip after its death (fault handling
            // spawns follow-on transactions): fail it at visit time.
            while let Some(txn) = self.tsu.pop(c) {
                self.fail_txn(now, txn.id);
            }
            return Visit::Done;
        }
        if home_only && !self.fabric.home_controller_free(NodeId(c)) {
            return Visit::Done;
        }
        let queue_age = self.tsu.queue_age_ns(c, now);
        while let Some(txn) = self.tsu.peek(c) {
            let die = self.die_key(txn.target);
            let (txn_kind, txn_id, txn_req) = (txn.kind, txn.id, txn.request);
            if txn_kind.is_read() && self.txn_aborted(txn_req) {
                // The owning request's deadline fired while this transaction
                // sat queued: fail it at visit time (mirrors the dead-chip
                // drain above) — even behind a busy die, so abort drains
                // are never blocked. Writes are exempt: their page is
                // already allocated, so they ride to the array, and the
                // request is still classified a miss at completion.
                let txn = self.tsu.pop(c).expect("peeked");
                debug_assert_eq!(txn.id, txn_id);
                self.fail_txn(now, txn_id);
                continue;
            }
            if self.die_busy[die] {
                return Visit::DieBusy; // nothing on this chip can start
            }
            if !self.dispatch.policy.try_attempt(c, queue_age) {
                return Visit::Done;
            }
            match self.fabric.try_acquire(NodeId(c)) {
                Ok(grant) => {
                    self.dispatch.policy.note_success(c);
                    let txn = self.tsu.pop(c).expect("peeked");
                    debug_assert_eq!(txn.id, txn_id);
                    self.die_busy[die] = true;
                    // Writes ship command + page data in one forward burst;
                    // reads and erases ship the command only.
                    let bytes = if txn_kind.is_write() {
                        self.config.command_bytes + self.config.page_bytes()
                    } else {
                        self.config.command_bytes
                    };
                    let d = self.fabric.transfer(&grant, bytes) + self.config.ftl_latency;
                    let inf = self.slot_mut(txn_id);
                    inf.phase = Phase::Command;
                    inf.grant = Some(grant);
                    self.queue.schedule(now + d, Event::CommandSent(txn_id));
                }
                Err(AcquireError::ResourceDead) => {
                    // No route to a live chip and no repair pending for its
                    // resource: complete with error status.
                    let txn = self.tsu.pop(c).expect("peeked");
                    debug_assert_eq!(txn.id, txn_id);
                    self.fail_txn(now, txn_id);
                }
                Err(e) => return self.note_acquire_failure(c, txn_id, e),
            }
        }
        Visit::Done
    }

    /// Charges a failed acquisition to the policy and records a first
    /// path conflict against the owning request (Figure 13 counts requests
    /// whose service hit ≥ 1 conflict).
    fn note_acquire_failure(&mut self, chip: u16, txn_id: TxnId, e: AcquireError) -> Visit {
        self.dispatch.policy.note_failure(chip, &e);
        if e == AcquireError::NoFreeController {
            return Visit::RanOut;
        }
        if !e.is_path_conflict() {
            return Visit::Done;
        }
        let slot = self.slot_mut(txn_id);
        if !slot.conflict_flagged {
            slot.conflict_flagged = true;
            if let Some(r) = slot.txn.request {
                let st = &mut self.requests[r.0 as usize];
                st.conflicted |= st.live;
            }
        }
        Visit::Conflict
    }

    /// Charges `n` path sleepers that an open pass skipped: each skipped
    /// visit would have been one attempt, one failed walk and one fabric
    /// conflict, and nothing else (see the module docs).
    fn charge_replayed(&mut self, n: u64) {
        if n > 0 {
            self.dispatch.policy.charge_replayed(n);
            self.fabric.charge_conflicts(n);
        }
    }

    /// Debug builds, at every skip: command sleeper `c`'s blocker holds.
    fn check_command_sleeper(&self, c: usize) {
        let head = self
            .tsu
            .peek(c as u16)
            .expect("a skipped command sleeper has queued work");
        assert!(!self.chip_dead(c), "command sleeper {c} is dead");
        assert!(
            !(head.kind.is_read() && self.txn_aborted(head.request)),
            "command sleeper {c}'s head transaction is aborted"
        );
        let die_busy = self.die_busy[self.die_key(head.target)];
        if self.dispatch.sleepers.die.contains(c) {
            assert!(die_busy, "die sleeper {c}'s head die is free");
        } else {
            assert!(!die_busy, "path sleeper {c}'s head die is busy");
            self.check_path_sleeper(c, head.id);
        }
    }

    /// Debug builds, at every skip: data sleeper `c`'s blocker holds.
    fn check_data_sleeper(&self, c: usize) {
        let front = *self.data_pending[c]
            .front()
            .expect("a skipped data sleeper has a burst");
        assert!(!self.chip_dead(c), "data sleeper {c} is dead");
        assert!(
            !self.txn_aborted(self.slot(front).txn.request),
            "data sleeper {c}'s front burst is aborted"
        );
        self.check_path_sleeper(c, front);
    }

    /// A path sleeper's retry would still fail on a path conflict, and the
    /// transaction it would retry is already conflict-flagged.
    fn check_path_sleeper(&self, c: usize, txn: TxnId) {
        let outcome = self
            .fabric
            .acquire_outcome(NodeId(c as u16))
            .expect("a fabric with release scopes answers acquire_outcome");
        assert_eq!(
            outcome,
            Err(AcquireError::PathConflict),
            "path sleeper {c}'s retry would not conflict"
        );
        assert!(
            self.slot(txn).conflict_flagged,
            "path sleeper {c}'s retry is not flagged"
        );
    }
}
