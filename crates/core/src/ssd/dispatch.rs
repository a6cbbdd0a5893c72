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

use venice_interconnect::{AcquireError, NodeId};

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
    /// Reusable scratch: a pass's list of chips to visit.
    scratch: Vec<u16>,
    /// The dispatch policy's per-chip state (see `crate::dispatch`).
    pub(super) policy: PolicyState,
}

impl Dispatcher {
    pub(super) fn new(policy: DispatchPolicyKind, fabric: FabricKind, chips: usize) -> Self {
        Dispatcher {
            pending: false,
            cursor: 0,
            parked_on_controllers: false,
            data_ready: DenseBitSet::with_capacity(chips),
            scratch: Vec::new(),
            policy: PolicyState::new(policy, fabric, chips),
        }
    }
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

    /// Returns a burst's grant to the fabric and un-parks dispatch. Exact:
    /// only the pooled fabrics (NoSSD, Venice) ever fail with
    /// [`AcquireError::NoFreeController`], each of their releases frees a
    /// controller, and the bus and ideal fabrics never park.
    pub(super) fn release(&mut self, grant: PathGrant) {
        self.fabric.release(grant);
        self.dispatch.parked_on_controllers = false;
    }

    /// Pending read-data bursts (they hold their die's page register, so
    /// they go before new commands). Returns true when the fabric ran out of
    /// controllers.
    ///
    /// The pass visits chips in circular ascending order from the fairness
    /// cursor. Incrementally, the visit list comes from the `data_ready`
    /// set (O(ready chips)); the retained full scan enumerates every chip —
    /// chips with no pending burst contribute nothing either way, so the
    /// acquisition sequence is bit-identical between the two.
    fn dispatch_data_bursts(&mut self, now: SimTime, home_only: bool) -> bool {
        let chip_count = self.chips.len();
        let cursor = self.dispatch.cursor;
        let mut ready = std::mem::take(&mut self.dispatch.scratch);
        match self.config.scan {
            DispatchScanKind::Incremental => self
                .dispatch
                .data_ready
                .collect_into_from(cursor % chip_count, &mut ready),
            DispatchScanKind::FullScan => {
                ready.clear();
                ready.extend((0..chip_count).map(|off| ((cursor + off) % chip_count) as u16));
            }
        }
        let ran_out = 'out: {
            for &chip in &ready {
                let c = usize::from(chip);
                if self.chip_dead(c) {
                    // The chip died after its data became ready: fail-drain
                    // (mirrors `kill_chip` for bursts queued post-death).
                    while self.fail_data_burst(now, c) {}
                    continue;
                }
                if home_only && !self.fabric.home_controller_free(NodeId(chip)) {
                    continue;
                }
                while let Some(&txn_id) = self.data_pending[c].front() {
                    if self.txn_aborted(self.slot(txn_id).txn.request) {
                        // The owning request's deadline fired while this
                        // burst waited for a path out: fail it at visit
                        // time (mirrors the dead-chip drain above).
                        self.fail_data_burst(now, c);
                        continue;
                    }
                    // Data bursts hold their die's page register, so the TSU
                    // queue age does not apply; pass zero (no starvation
                    // override — the backoff bound alone caps the deferral).
                    if !self.dispatch.policy.try_attempt(chip, 0) {
                        break;
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
                        Err(e) => {
                            if self.note_acquire_failure(chip, txn_id, e) {
                                break 'out true;
                            }
                            break;
                        }
                    }
                }
            }
            false
        };
        self.dispatch.scratch = ready;
        ran_out
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
        let die = self.die_key(self.slot(txn_id).txn.target);
        self.die_busy[die] = false;
        self.fail_txn(now, txn_id);
        true
    }

    /// Command (and command+data) bursts for queued transactions. Returns
    /// true when the fabric ran out of controllers.
    ///
    /// The busy-chip list is in ascending chip-id order and the rotation
    /// start is `cursor % busy.len()`, so the list must contain *every*
    /// chip with queued work — including chips whose head die is busy (they
    /// cost one peek) — or the rotation would drift between engines.
    /// Incrementally the list comes from the TSU's busy set (O(busy));
    /// the retained full scan walks every chip's queues. Identical output.
    fn dispatch_command_bursts(&mut self, now: SimTime, home_only: bool) -> bool {
        let mut busy = std::mem::take(&mut self.dispatch.scratch);
        match self.config.scan {
            DispatchScanKind::Incremental => self.tsu.busy_chips_into(&mut busy),
            DispatchScanKind::FullScan => self.tsu.busy_chips_scan_into(&mut busy),
        }
        let ran_out = 'out: {
            if busy.is_empty() {
                break 'out false;
            }
            let start = self.dispatch.cursor % busy.len();
            for off in 0..busy.len() {
                let c = busy[(start + off) % busy.len()];
                if self.chip_dead(usize::from(c)) {
                    // Work arrived for a chip after its death (fault handling
                    // spawns follow-on transactions): fail it at visit time.
                    while let Some(txn) = self.tsu.pop(c) {
                        self.fail_txn(now, txn.id);
                    }
                    continue;
                }
                if home_only && !self.fabric.home_controller_free(NodeId(c)) {
                    continue;
                }
                let queue_age = self.tsu.queue_age_ns(c, now);
                while let Some(txn) = self.tsu.peek(c) {
                    let die = self.die_key(txn.target);
                    let (txn_kind, txn_id, txn_req) = (txn.kind, txn.id, txn.request);
                    if txn_kind.is_read() && self.txn_aborted(txn_req) {
                        // The owning request's deadline fired while this
                        // transaction sat queued: fail it at visit time
                        // (mirrors the dead-chip drain above) — even behind
                        // a busy die, so abort drains are never blocked.
                        // Writes are exempt: their page is already allocated,
                        // and dropping the program here would leave a hole in
                        // the block's in-order write pointer — they ride to
                        // the array and the request is still classified a
                        // miss at completion.
                        let txn = self.tsu.pop(c).expect("peeked");
                        debug_assert_eq!(txn.id, txn_id);
                        self.fail_txn(now, txn_id);
                        continue;
                    }
                    if self.die_busy[die] {
                        break; // die occupied: nothing on this chip can start
                    }
                    if !self.dispatch.policy.try_attempt(c, queue_age) {
                        break;
                    }
                    match self.fabric.try_acquire(NodeId(c)) {
                        Ok(grant) => {
                            self.dispatch.policy.note_success(c);
                            let txn = self.tsu.pop(c).expect("peeked");
                            debug_assert_eq!(txn.id, txn_id);
                            self.die_busy[die] = true;
                            // Writes ship command + page data in one forward
                            // burst; reads and erases ship the command only.
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
                            // No route to a live chip and no repair pending
                            // for its resource: complete with error status.
                            let txn = self.tsu.pop(c).expect("peeked");
                            debug_assert_eq!(txn.id, txn_id);
                            self.fail_txn(now, txn_id);
                        }
                        Err(e) => {
                            if self.note_acquire_failure(c, txn_id, e) {
                                break 'out true;
                            }
                            break;
                        }
                    }
                }
            }
            false
        };
        self.dispatch.scratch = busy;
        ran_out
    }

    /// Charges a failed acquisition to the policy and records a first
    /// path conflict against the owning request (Figure 13 counts requests
    /// whose service hit ≥ 1 conflict). True when out of controllers.
    fn note_acquire_failure(&mut self, chip: u16, txn_id: TxnId, e: AcquireError) -> bool {
        self.dispatch.policy.note_failure(chip, &e);
        if e.is_path_conflict() {
            let slot = self.slot_mut(txn_id);
            if !slot.conflict_flagged {
                slot.conflict_flagged = true;
                if let Some(r) = slot.txn.request {
                    let st = &mut self.requests[r.0 as usize];
                    st.conflicted |= st.live;
                }
            }
        }
        e == AcquireError::NoFreeController
    }
}
