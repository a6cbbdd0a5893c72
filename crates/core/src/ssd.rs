//! The end-to-end SSD model: HIL → FTL → TSU → fabric → flash chips, as one
//! discrete-event simulation.
//!
//! The request lifecycle follows the paper's Figure 3 service timeline:
//!
//! * **read**: submission queue → FTL translate → chip queue → acquire
//!   controller + path → command burst (path held) → release → tR (die
//!   busy) → acquire controller + path → data burst → release → completion,
//! * **write**: one forward burst carries command + data, then tPROG runs
//!   inside the die with the path free,
//! * **erase** (GC/wear): command burst, then tBERS.
//!
//! The communication fabric is pluggable ([`FabricKind`]); everything else
//! is identical across systems, so execution-time ratios isolate the fabric
//! — the paper's experimental design. The dispatcher's retry strategy is
//! pluggable too ([`crate::DispatchPolicyKind`], see `crate::dispatch`):
//! each dispatch round consults the policy before issuing an acquisition
//! attempt, and a round that only suppressed work schedules its own probe
//! so deferred chips can never strand.
//!
//! # Hot-path storage
//!
//! All per-request / per-transaction / per-block bookkeeping lives in
//! slab- or dense-`Vec` storage keyed by small integer ids instead of hash
//! containers: transaction ids index a free-list slab of [`TxnSlot`]s,
//! request ids (trace indices) index a dense `Vec<ReqState>`, global block
//! keys index a dense in-flight-user count array, and physical pages with
//! in-flight programs live in a bitset. Steady-state simulation therefore
//! performs no hashing and no per-event allocation; scratch buffers
//! (same-instant event batches, busy-chip lists, migration partitions) are
//! reused across events.
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

use std::collections::VecDeque;

use venice_ftl::{
    Ftl, FtlConfig, Gppa, MappingCache, MigrationJob, RequestId, Transaction,
    TransactionScheduler, TxnId, TxnKind,
};
use venice_hil::{DeadlineClass, HostInterface, HostRequest};
use venice_interconnect::{build_fabric, AcquireError, Fabric, FabricKind, NodeId, PathGrant};
use venice_nand::{ChipId, FlashChip, NandCommandKind, PhysicalPageAddr};
use venice_sim::rng::Xorshift64Star;
use venice_sim::stats::LatencySamples;
use venice_sim::{DenseBitSet, EventQueue, SimDuration, SimTime};
use venice_workloads::{IoOp, Trace};

use crate::dispatch::{DispatchScanKind, PolicyState};
use crate::redundancy::{
    REBUILD_BURST, REBUILD_MAX_JOBS, REBUILD_RATE, REBUILD_RETRY_LIMIT, REBUILD_SCAN_BATCH,
    REBUILD_TICK,
};
use crate::resilience::{
    ResilienceParams, RetryParams, BATCH_DEADLINE, LATENCY_DEADLINE, RETRY_JITTER_SEED,
};
use crate::{FaultAction, FaultPlan, RunMetrics, RunStatus, SsdConfig, TenantMetrics};

/// Simulator events.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Trace record `i` arrives at the host interface.
    Arrival(usize),
    /// The FTL fetches one request from a submission queue.
    Process,
    /// A command (or command+data) burst finished on the wire.
    CommandSent(TxnId),
    /// A flash array operation finished inside a die.
    ChipOpDone(TxnId),
    /// A read-data burst finished on the wire.
    DataSent(TxnId),
    /// A request's completion is posted to the host.
    RequestDone(u64),
    /// Try to dispatch queued work (coalesced; scheduled on state changes).
    Dispatch,
    /// Scripted fault-plan action `i` fires (see `crate::FaultPlan`).
    Fault(usize),
    /// A request's per-attempt deadline expired: abort the in-flight
    /// command at the next command boundary (see `crate::resilience`).
    HostTimeout(u64),
    /// A failed / timed-out request resubmits after its retry backoff.
    HostResubmit(u64),
    /// One pacing quantum of the background rebuild engine (see
    /// `crate::redundancy`): refill the token bucket, advance the scan of
    /// the dead chip's logical pages, and launch reconstruction jobs.
    /// Scheduled only while a rebuild is active, so redundancy-off runs —
    /// and redundancy-on runs that never lose a chip — keep a bit-identical
    /// calendar.
    RebuildTick,
}

/// Verdict of the submission-side admission policy for one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admission {
    /// Under the watermarks (or policy off): submit normally.
    Accept,
    /// Tenant overloaded but the deadline still looks meetable: defer the
    /// arrival (backpressure — the host stalls, like a full queue).
    Defer,
    /// Tenant overloaded and the tail estimate says the deadline cannot be
    /// met: shed terminally; the request never enters the device.
    Shed,
}

/// Which wire/array phase an in-flight transaction is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Queued,
    Command,
    ArrayOp,
    DataOut,
}

/// Sentinel for "transaction does not belong to a migration".
const NO_MIGRATION: usize = usize::MAX;

/// Delay before a policy-forced dispatch probe (see
/// [`SsdSim::on_dispatch`]): one wheel-bucket-sized breather, long enough
/// to advance the clock, short next to any array operation.
const POLICY_PROBE_DELAY: SimDuration = SimDuration::from_nanos(256);

/// Delay between fault liveness probes: with faults in play a dispatch
/// round can fail with no in-flight event guaranteed to re-trigger it
/// (every path to a chip severed until a scripted repair), so the engine
/// keeps probing at this cadence. Coarser than [`POLICY_PROBE_DELAY`] —
/// outages last tens of microseconds — and only ever scheduled when the
/// configured fault plan is not `FaultPlan::None`.
const FAULT_PROBE_DELAY: SimDuration = SimDuration::from_micros(2);

/// One slab slot of per-transaction state. The slot index *is* the
/// transaction id; slots are recycled through a free list when the
/// transaction completes.
struct TxnSlot {
    txn: Transaction,
    phase: Phase,
    grant: Option<PathGrant>,
    /// Owning migration slot, or [`NO_MIGRATION`].
    migration: usize,
    /// The transaction already charged a first-attempt path conflict.
    conflict_flagged: bool,
    live: bool,
}

/// Dense per-request state, indexed by request id (= trace record index).
#[derive(Clone, Default)]
struct ReqState {
    arrival: SimTime,
    /// Tenant the request belongs to (index into the config's `TenantSet`).
    tenant: u8,
    remaining: u32,
    conflicted: bool,
    live: bool,
    /// At least one of the request's transactions failed on a dead chip or
    /// dead path: the request completes with error status.
    failed: bool,
    /// Host resubmissions so far (bounded retry); 0 on the first attempt.
    attempts: u32,
    /// Absolute deadline of the current attempt (`SimTime::ZERO` =
    /// unarmed); re-armed on every resubmission, so a stale timer is any
    /// firing whose instant no longer matches this field.
    deadline_at: SimTime,
    /// The current attempt's deadline fired: outstanding transactions are
    /// aborted at the next command boundary.
    timed_out: bool,
    /// The attempt read a page whose only copy sat on a dead chip with no
    /// reconstructable redundancy: the failure is *data loss*, not a
    /// routing casualty (see [`crate::RequestOutcome::DataLoss`]).
    data_loss: bool,
    /// The request reached its one terminal outcome (completed or shed).
    done: bool,
}

struct MigrationState {
    job: MigrationJob,
    wear: bool,
    reads_pending: u32,
    writes_pending: u32,
    erase_issued: bool,
}

/// One in-flight rebuild job: reconstruct the dead chip's copy of `lpa`
/// from its surviving parity-group members, then remap it onto a live
/// plane. Jobs are bounded by [`REBUILD_MAX_JOBS`], so lookups are linear
/// scans over a tiny `Vec` — no hashing (the ROADMAP storage rule).
struct RebuildJob {
    lpa: u64,
    /// Outstanding reconstruction reads; the remapped write launches when
    /// this reaches zero (a buffer-resident page starts at zero).
    reads_pending: u32,
}

/// The background rebuild engine for one dead chip (see
/// `crate::redundancy` for the pacing constants and the RAIN model).
/// One chip rebuilds at a time — later permanent deaths queue behind it
/// in [`SsdSim::rebuild_pending`] — mirroring a real RAID controller's
/// serialized rebuild.
struct RebuildState {
    /// The dead chip being rebuilt.
    chip: usize,
    /// Scan cursor over the logical address space: pages mapped to the
    /// dead chip are pushed onto [`RebuildState::staged`] as they are
    /// found.
    next_lpa: u64,
    /// Dead-chip pages awaiting a reconstruction job, in staging order.
    /// Host-side arbitration never sees them.
    staged: VecDeque<u64>,
    /// Token bucket: [`REBUILD_RATE`] tokens per [`REBUILD_TICK`], capped
    /// at [`REBUILD_BURST`]; launching one job costs one token, so a
    /// saturated bucket defers staged pages instead of dropping them.
    tokens: u32,
    /// In-flight reconstruction jobs (≤ [`REBUILD_MAX_JOBS`]: staged pages
    /// launch only below the cap).
    jobs: Vec<RebuildJob>,
    /// The scan cursor reached the end of the logical space.
    scan_done: bool,
    /// Re-stage counts for severed-survivor pages, keyed by lpa (linear
    /// scans — the list only ever holds pages of the one chip being
    /// rebuilt). A page that exhausts [`REBUILD_RETRY_LIMIT`] attempts is
    /// skipped.
    retries: Vec<(u64, u32)>,
    /// Blocked pages parked until the next tick re-stages them — tick
    /// spacing keeps one page from burning all its bounded attempts (and
    /// the whole token bucket) against a blocker that has not had a single
    /// event's time to clear.
    deferred: Vec<u64>,
}

/// What `survivor_targets` found for one dead page's parity group. XOR
/// reconstruction is all-or-nothing: every media-alive survivor that ever
/// wrote the mirrored block must contribute, so one blocked peer blocks
/// the whole page and one destroyed peer loses it outright.
struct SurvivorSet {
    /// Spawnable reconstruction-read targets (peers that never wrote the
    /// mirrored block are absent — XOR with an erased page is free).
    targets: Vec<PhysicalPageAddr>,
    /// Media-alive peers unreachable behind a fabric fault's blast
    /// radius. The severance may never heal, so rebuild retries against
    /// them are bounded by [`REBUILD_RETRY_LIMIT`].
    severed: u32,
    /// Media-alive peers whose plane hosts an active migration. Always
    /// transient — migrations are finite — so rebuild defers these pages
    /// without burning a bounded attempt.
    migrating: u32,
    /// A peer's media is permanently gone (overlapping chip deaths): the
    /// group is short a member forever and the page is unrecoverable.
    lost: bool,
}

impl SurvivorSet {
    /// True when a media-alive survivor is unreadable right now: XOR
    /// reconstruction needs the complete set, so one blocked peer blocks
    /// the whole page.
    fn blocked(&self) -> bool {
        self.severed > 0 || self.migrating > 0
    }
}

/// Outcome of one foreground degraded-read attempt.
enum DegradedRead {
    /// The complete survivor set was readable: reconstruction reads
    /// spawned (zero when every contribution was an erased page — the
    /// content reconstructs without touching flash).
    Spawned(u32),
    /// A media-alive survivor is transiently unreadable: the attempt
    /// fails as a routing casualty, never as data loss — a resilience
    /// retry can reconstruct once the path or plane drains.
    Blocked,
    /// A survivor's media is gone with the primary: even parity cannot
    /// recover the page.
    Lost,
}

/// The SSD simulator. Construct with [`SsdSim::new`], run a whole trace with
/// [`SsdSim::run`], and read the resulting [`RunMetrics`].
///
/// # Example
///
/// ```
/// use venice_ssd::{SsdConfig, SsdSim};
/// use venice_interconnect::FabricKind;
/// use venice_workloads::WorkloadSpec;
///
/// let trace = WorkloadSpec::new("demo", 50.0, 8.0, 100.0)
///     .footprint_mb(64)
///     .generate(200);
/// let config = SsdConfig::performance_optimized()
///     .sized_for_footprint(trace.footprint_bytes());
/// let metrics = SsdSim::new(config, FabricKind::Venice, &trace).run();
/// assert_eq!(metrics.completed_requests, 200);
/// ```
pub struct SsdSim {
    config: SsdConfig,
    kind: FabricKind,
    trace: Trace,
    fabric: Box<dyn Fabric>,
    chips: Vec<FlashChip>,
    ftl: Ftl,
    cmt: MappingCache,
    tsu: TransactionScheduler,
    hil: HostInterface,
    queue: EventQueue<Event>,

    /// Per-request state, indexed by request id (= trace record index).
    requests: Vec<ReqState>,
    /// An arrival blocked on a full submission queue: the host stalls and
    /// the remainder of the trace shifts in time (MQSim-style dependent
    /// replay — applications do not issue independently of completions).
    stalled_arrival: Option<(HostRequest, usize)>,
    /// Transaction slab: slot index = transaction id, recycled on completion.
    txns: Vec<TxnSlot>,
    free_txns: Vec<u32>,
    live_txns: usize,
    /// Total transactions ever spawned (the `transactions` metric).
    spawned_txns: u64,
    /// Per-chip FIFO of read transactions whose data awaits a path out.
    data_pending: Vec<VecDeque<TxnId>>,
    /// Dies claimed by an in-flight operation, indexed `chip * dies + die`.
    die_busy: Vec<bool>,
    migrations: Vec<Option<MigrationState>>,
    free_migrations: Vec<usize>,
    /// Per-plane "GC in progress" flags, indexed by dense plane index.
    active_gc_planes: Vec<bool>,
    /// In-flight reads/programs per global block: an erase must wait until
    /// every operation targeting its block has drained (a stale read may
    /// legally target an invalidated page until the block is erased, and a
    /// program allocated into the block must land before the erase).
    /// Indexed by global block key.
    block_users: Vec<u32>,
    /// Migration slots whose erase waits for a block's users to drain, as
    /// `(block key, migration slot)` pairs (rare; scanned linearly).
    blocked_erases: Vec<(usize, usize)>,
    /// Physical pages allocated but not yet programmed: reads of these are
    /// served from the controller's write buffer without touching flash.
    pending_programs: DenseBitSet,
    /// Host-write pages deferred because every plane is down to its GC
    /// reserve block (write throttling); retried after each erase.
    throttled_writes: VecDeque<(u64, u64)>,
    wear_job_active: bool,
    erases_since_wear_check: u32,
    dispatch_pending: bool,
    dispatch_cursor: usize,
    /// The dispatch policy's per-chip state (see `crate::dispatch`).
    policy: PolicyState,
    /// Ready set: chips with at least one read-data burst waiting for a
    /// path out (mirrors "`data_pending[c]` non-empty"), maintained at
    /// burst arrival and drain so incremental dispatch rounds visit only
    /// these chips instead of walking every chip.
    data_ready: DenseBitSet,
    /// Parked-until-controller-free: set when a dispatch round ended on
    /// [`AcquireError::NoFreeController`] (a pooled fabric's controllers
    /// are all mid-transfer, so *no* acquisition can succeed); dispatch
    /// rounds no-op — advancing only the fairness cursor — until the next
    /// fabric release (see [`SsdSim::release`]).
    parked_on_controllers: bool,

    /// Reusable scratch: busy-chip list for dispatch rounds.
    busy_scratch: Vec<u16>,
    /// Reusable scratch: ready-chip list for incremental data-burst passes.
    data_scratch: Vec<u16>,
    /// Reusable scratch: migration pages served from the write buffer.
    mig_buffered: Vec<(u64, Gppa)>,
    /// Reusable scratch: migration pages needing a flash read.
    mig_flash: Vec<(u64, Gppa)>,

    /// The outcome ledger: every terminal request outcome is counted once,
    /// against its tenant (indexed by tenant id; one slot on the
    /// single-tenant default). The run totals are its sums.
    tenants: Vec<TenantMetrics>,
    /// `Process` events that found nothing fetchable because every queued
    /// tenant sat at its queue-depth cap: each one is re-scheduled by a
    /// later completion (which frees in-flight capacity). Zero on the
    /// single-tenant default path — caps are the only way a fetch can fail
    /// with entries queued — so the golden hash sees no extra events.
    deferred_fetches: u64,
    first_arrival: SimTime,
    last_completion: SimTime,

    /// The expanded fault-plan script (empty under `FaultPlan::None`);
    /// entry `i` fires as `Event::Fault(i)`.
    fault_script: Vec<(SimTime, FaultAction)>,
    /// Per-chip count of overlapping death causes (fabric blast radius +
    /// scripted chip deaths); a chip is dead while its count is non-zero.
    chip_dead: Vec<u8>,
    /// Per-chip media-loss flag: set only by a permanent
    /// [`FaultAction::ChipDeath`], never cleared (dies don't heal). A chip
    /// in `chip_dead` but not here is merely unreachable (fabric blast
    /// radius) — its data is intact, so failures against it classify as
    /// routing casualties, never as data loss.
    media_dead: Vec<bool>,
    /// Per-chip armed transient NAND failures: each charge fails one
    /// program/erase once (retried after a full re-issue latency).
    transient_charges: Vec<u32>,
    faults_injected: u64,
    faults_active: u64,
    retried_ops: u64,

    /// Expanded host-resilience knobs (all-`None` when the configured
    /// [`crate::ResiliencePolicy`] is `None`, so every resilience path is
    /// inert).
    resilience: ResilienceParams,
    /// Deterministic retry-jitter stream; consumed only when a retry is
    /// actually scheduled, so retry-free runs never advance it.
    retry_rng: Xorshift64Star,
    /// Outstanding retried requests per tenant (the retry-budget meter):
    /// incremented when a request's *first* retry is granted, decremented
    /// at its terminal completion.
    tenant_retry_outstanding: Vec<u32>,
    /// Sticky per-tenant overload flags (admission hysteresis): set at the
    /// high watermark, cleared at the low one.
    overloaded: Vec<bool>,
    /// Decaying max of completion latencies (ns): rises instantly to the
    /// worst recent completion and decays by 1/8 per completion — the cheap
    /// deterministic tail proxy the deadline-aware shedding decision
    /// consults (nothing else reads it).
    tail_estimate_ns: u64,

    /// The active rebuild, if a permanent chip death armed one (only with
    /// redundancy armed).
    rebuild: Option<RebuildState>,
    /// Permanently dead chips waiting behind the active rebuild.
    rebuild_pending: VecDeque<usize>,
    /// A [`Event::RebuildTick`] is on the calendar (at most one at a time).
    rebuild_tick_armed: bool,
    /// Foreground reads served by parity reconstruction instead of the
    /// dead chip (one per reconstructed page read).
    degraded_reads: u64,
    /// Dead-chip pages reconstructed and remapped by the rebuild engine.
    rebuilt_pages: u64,
    /// Dead-chip pages the rebuild engine had to give up on: no
    /// parity-group survivor was spawnable when the job launched (peers
    /// media-dead, unreachable behind a fabric fault, or migration-busy).
    /// Non-zero means the recovery is incomplete — the pages stay mapped
    /// to the dead chip and a later foreground read still classifies them.
    rebuild_skipped_pages: u64,
    /// Instant the last rebuild drained (ZERO = none ran); MTTR is this
    /// minus the fault-injection time.
    rebuild_done: SimTime,
}

impl SsdSim {
    /// Builds a simulator for one `(config, fabric, trace)` triple. The SSD
    /// is preconditioned to steady state: every logical page is mapped and
    /// the chips' write pointers mirror the FTL's block fills.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SsdConfig::validate`]) or the trace footprint exceeds the logical
    /// space.
    pub fn new(config: SsdConfig, kind: FabricKind, trace: &Trace) -> Self {
        config.validate();
        let logical_pages = config.logical_pages_for(trace.footprint_bytes().max(1));
        let physical = config.array.total_pages();
        assert!(
            logical_pages < physical,
            "trace footprint ({logical_pages} pages) must fit under physical \
             capacity ({physical} pages); call sized_for_footprint first"
        );
        let spare_blocks_per_plane = (physical - logical_pages)
            / u64::from(config.array.chip.pages_per_block)
            / u64::from(config.array.total_planes());
        let mut ftl = Ftl::new(FtlConfig {
            array: config.array,
            logical_pages,
            // Trigger GC with half the over-provisioned blocks still free,
            // capped at the paper-scale default of 4.
            gc_threshold_blocks: (spare_blocks_per_plane / 2).clamp(1, 4) as u32,
            wear_delta_threshold: 64,
        });
        let mut chips: Vec<FlashChip> = (0..config.array.chips)
            .map(|_| FlashChip::with_energy(config.array.chip, config.timing, config.energy))
            .collect();
        for (block_addr, written) in ftl.precondition() {
            chips[usize::from(block_addr.chip.0)].precondition_block(block_addr.addr, written);
        }
        let entries_per_tp = config.page_bytes() / 8; // 8-byte mapping entries
        let chip_count = usize::from(config.array.chips);
        let dies_per_chip = config.array.chip.dies as usize;
        let total_blocks = config.array.total_blocks() as usize;
        let total_planes = config.array.total_planes() as usize;
        SsdSim {
            fabric: build_fabric(kind, config.fabric),
            chips,
            cmt: MappingCache::covering(logical_pages, entries_per_tp),
            tsu: TransactionScheduler::new(chip_count),
            hil: HostInterface::with_tenants(config.hil, config.tenants.clone()),
            // Bucket width auto-tuned so tPROG completions stay in the
            // wheel tier (ROADMAP perf follow-up (b)); pop order is
            // width-independent.
            queue: EventQueue::with_bucket_ns(config.wheel_bucket_ns()),
            requests: vec![ReqState::default(); trace.len()],
            stalled_arrival: None,
            txns: Vec::new(),
            free_txns: Vec::new(),
            live_txns: 0,
            spawned_txns: 0,
            data_pending: (0..chip_count).map(|_| VecDeque::new()).collect(),
            die_busy: vec![false; chip_count * dies_per_chip],
            migrations: Vec::new(),
            free_migrations: Vec::new(),
            active_gc_planes: vec![false; total_planes],
            block_users: vec![0; total_blocks],
            blocked_erases: Vec::new(),
            pending_programs: DenseBitSet::with_capacity(physical as usize),
            throttled_writes: VecDeque::new(),
            wear_job_active: false,
            erases_since_wear_check: 0,
            dispatch_pending: false,
            dispatch_cursor: 0,
            policy: PolicyState::new(config.dispatch, kind, chip_count),
            data_ready: DenseBitSet::with_capacity(chip_count),
            parked_on_controllers: false,
            busy_scratch: Vec::new(),
            data_scratch: Vec::new(),
            mig_buffered: Vec::new(),
            mig_flash: Vec::new(),
            tenants: config.tenants.specs().iter().map(TenantMetrics::new).collect(),
            deferred_fetches: 0,
            first_arrival: trace.events().first().map_or(SimTime::ZERO, |e| e.arrival),
            last_completion: SimTime::ZERO,
            fault_script: config
                .fault_plan
                .events_for(config.fabric.rows, config.fabric.cols),
            chip_dead: vec![0; chip_count],
            media_dead: vec![false; chip_count],
            transient_charges: vec![0; chip_count],
            faults_injected: 0,
            faults_active: 0,
            retried_ops: 0,
            resilience: config.resilience.params(),
            retry_rng: Xorshift64Star::new(RETRY_JITTER_SEED),
            tenant_retry_outstanding: vec![0; config.tenants.len()],
            overloaded: vec![false; config.tenants.len()],
            tail_estimate_ns: 0,
            rebuild: None,
            rebuild_pending: VecDeque::new(),
            rebuild_tick_armed: false,
            degraded_reads: 0,
            rebuilt_pages: 0,
            rebuild_skipped_pages: 0,
            rebuild_done: SimTime::ZERO,
            ftl,
            trace: trace.clone(),
            config,
            kind,
        }
    }

    /// Runs the whole trace to completion and returns the metrics.
    ///
    /// The main loop drains the calendar in same-instant batches
    /// ([`EventQueue::pop_batch`]); handler-scheduled events at the same
    /// instant form follow-up batches, so delivery order is identical to
    /// one-at-a-time popping.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stalls (queued work with no pending events),
    /// which would indicate a scheduler bug.
    pub fn run(mut self) -> RunMetrics {
        if !self.trace.is_empty() {
            self.queue
                .schedule(self.trace.events()[0].arrival, Event::Arrival(0));
        }
        // Fault-plan actions ride the same calendar as everything else;
        // `FaultPlan::None` expands to nothing, so fault-free runs schedule
        // zero extra events (the `events` metric feeds the golden hash).
        for i in 0..self.fault_script.len() {
            let at = self.fault_script[i].0;
            self.queue.schedule(at, Event::Fault(i));
        }
        let mut batch: Vec<Event> = Vec::new();
        let mut status = RunStatus::Complete;
        while let Some(now) = self.queue.pop_batch(&mut batch) {
            // Runaway-run watchdog: end with a structured aborted outcome
            // instead of spinning the calendar forever.
            if self
                .config
                .max_events
                .is_some_and(|m| self.queue.scheduled_total() > m)
                || self.config.max_sim_ns.is_some_and(|m| now.as_nanos() > m)
            {
                status = RunStatus::Aborted;
                break;
            }
            // Test-only fail point (sweep-isolation tests): a deliberate,
            // deterministic engine panic standing in for any engine bug.
            if let Some(m) = self.config.panic_after_events {
                assert!(
                    self.queue.scheduled_total() <= m,
                    "injected fail-point panic after {} scheduled events",
                    self.queue.scheduled_total()
                );
            }
            for ev in batch.drain(..) {
                self.handle(now, ev);
            }
        }
        if status == RunStatus::Complete {
            assert!(
                self.tsu.is_empty()
                    && self.live_txns == 0
                    && self.stalled_arrival.is_none()
                    && self.throttled_writes.is_empty()
                    && self.rebuild.is_none()
                    && self.rebuild_pending.is_empty(),
                "simulation drained its event queue with work still outstanding"
            );
            assert_eq!(
                self.tenants.iter().map(|t| t.completed + t.shed).sum::<u64>(),
                self.trace.len() as u64,
                "every request must reach one terminal outcome"
            );
        }
        self.finish(status)
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrival(i) => self.on_arrival(now, i),
            Event::Process => self.on_process(now),
            Event::CommandSent(txn) => self.on_command_sent(now, txn),
            Event::ChipOpDone(txn) => self.on_chip_op_done(now, txn),
            Event::DataSent(txn) => self.on_data_sent(now, txn),
            Event::RequestDone(req) => self.on_request_done(now, req),
            Event::Dispatch => self.on_dispatch(now),
            Event::Fault(i) => self.on_fault(now, i),
            Event::HostTimeout(r) => self.on_host_timeout(now, r),
            Event::HostResubmit(r) => self.on_host_resubmit(now, r),
            Event::RebuildTick => self.on_rebuild_tick(now),
        }
    }

    fn schedule_dispatch(&mut self, now: SimTime) {
        if !self.dispatch_pending {
            self.dispatch_pending = true;
            self.queue.schedule(now, Event::Dispatch);
        }
    }

    // ------------------------------------------------------------------
    // Transaction slab
    // ------------------------------------------------------------------

    #[inline]
    fn slot(&self, id: TxnId) -> &TxnSlot {
        let s = &self.txns[id.0 as usize];
        debug_assert!(s.live, "transaction {id:?} not live");
        s
    }

    #[inline]
    fn slot_mut(&mut self, id: TxnId) -> &mut TxnSlot {
        let s = &mut self.txns[id.0 as usize];
        debug_assert!(s.live, "transaction {id:?} not live");
        s
    }

    /// Frees a transaction slot, returning its transaction and owning
    /// migration slot (if any).
    fn free_txn(&mut self, id: TxnId) -> (Transaction, usize) {
        let s = &mut self.txns[id.0 as usize];
        debug_assert!(s.live, "double free of transaction {id:?}");
        s.live = false;
        s.grant = None;
        let migration = s.migration;
        let txn = s.txn;
        self.free_txns.push(id.0 as u32);
        self.live_txns -= 1;
        (txn, migration)
    }

    // ------------------------------------------------------------------
    // Host side
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, index: usize) {
        let e = self.trace.events()[index];
        // Trace tags beyond the configured tenant count clamp to the last
        // tenant, so a single-tenant config merges any tagged trace back
        // into one stream (the bit-identical default path).
        let tenant = usize::from(self.trace.tenant_of(index)).min(self.config.tenants.len() - 1);
        let req = HostRequest {
            id: index as u64,
            tenant: tenant as u8,
            arrival: now,
            op: e.op,
            offset: e.offset,
            bytes: e.bytes,
            deadline: None,
        };
        self.submit_arrival(now, req, index);
    }

    /// Offers trace record `index` to the device at `now`, on arrival or
    /// when a stall resumes: admission, then submission stamped with `now`
    /// and its tenant's deadline. A deferred or rejected submission stalls
    /// the host, so the rest of the trace shifts by however long it waits.
    fn submit_arrival(&mut self, now: SimTime, mut req: HostRequest, index: usize) {
        let tenant = usize::from(req.tenant);
        match self.admission_verdict(tenant) {
            Admission::Accept => {}
            Admission::Defer => {
                // Overload backpressure behaves exactly like a full queue.
                self.stalled_arrival = Some((req, index));
                return;
            }
            Admission::Shed => {
                self.shed_request(index, tenant);
                self.schedule_next_arrival(now, index);
                return;
            }
        }
        req.arrival = now;
        req.deadline = self.deadline_for(tenant).map(|d| now + d);
        if self.hil.submit(req) {
            self.after_submit(now, req);
            self.schedule_next_arrival(now, index);
        } else {
            self.stalled_arrival = Some((req, index));
        }
    }

    /// Per-attempt deadline for `tenant`: the policy deadline modulated by
    /// the tenant's [`DeadlineClass`]. `None` when the policy arms no
    /// deadline (classes are inert then) or the class opts the tenant out;
    /// with every class at the default the result is exactly the policy
    /// deadline, so existing runs are bit-identical.
    fn deadline_for(&self, tenant: usize) -> Option<SimDuration> {
        let base = self.resilience.deadline?;
        match self.config.tenants.specs()[tenant].deadline {
            DeadlineClass::Default => Some(base),
            DeadlineClass::Latency => Some(LATENCY_DEADLINE),
            DeadlineClass::Batch => Some(BATCH_DEADLINE),
            DeadlineClass::None => None,
        }
    }

    /// Post-submit bookkeeping shared by first attempts, stall resumes, and
    /// resubmissions: schedules the fetch and arms the deadline the caller
    /// stamped into `req`.
    fn after_submit(&mut self, now: SimTime, req: HostRequest) {
        self.queue
            .schedule(now + self.config.hil.submission_latency, Event::Process);
        if let Some(at) = req.deadline {
            self.requests[req.id as usize].deadline_at = at;
            self.queue.schedule(at, Event::HostTimeout(req.id));
        }
    }

    /// Evaluates (and updates — the hysteresis flag is sticky) the
    /// admission policy for one submission attempt of `tenant`.
    fn admission_verdict(&mut self, tenant: usize) -> Admission {
        let Some(adm) = self.resilience.admission else {
            return Admission::Accept;
        };
        let cap = self.hil.namespace_capacity(tenant);
        let out = self.hil.tenant_outstanding(tenant);
        if self.overloaded[tenant] {
            if out <= cap * adm.low_pct as usize / 100 {
                self.overloaded[tenant] = false;
            }
        } else if out >= cap * adm.high_pct as usize / 100 {
            self.overloaded[tenant] = true;
        }
        if !self.overloaded[tenant] {
            return Admission::Accept;
        }
        // Overloaded: shed when the tail estimate says the deadline cannot
        // be met anyway, otherwise defer (plain backpressure).
        match self.deadline_for(tenant) {
            Some(d) if self.tail_estimate_ns > d.as_nanos() => Admission::Shed,
            _ => Admission::Defer,
        }
    }

    /// Terminal [`crate::RequestOutcome::Shed`]: the request never enters
    /// the device. `completed + shed` partitions the trace.
    fn shed_request(&mut self, index: usize, tenant: usize) {
        let st = &mut self.requests[index];
        debug_assert!(!st.done, "double terminal outcome for request {index}");
        st.done = true;
        self.tenants[tenant].shed += 1;
    }

    /// A request's per-attempt deadline fired. Stale timers (the attempt
    /// already completed, or a resubmission armed a strictly later
    /// deadline) are ignored; live ones mark the request timed out so its
    /// outstanding transactions abort at the next command boundary — queued
    /// TSU work and ready data bursts at dispatch-visit time, in-flight
    /// array operations at op-done time — reusing the fail-stop machinery
    /// from the fault layer.
    fn on_host_timeout(&mut self, now: SimTime, req_id: u64) {
        let st = &mut self.requests[req_id as usize];
        if st.done || st.timed_out || st.deadline_at != now {
            return;
        }
        st.timed_out = true;
        if st.live {
            // Kick a round so a fully-queued victim does not wait for an
            // unrelated wake to get its abort drain.
            self.schedule_dispatch(now);
        }
        // Not yet fetched: the in-flight `Process` event aborts it at fetch
        // time (`on_process`), so no extra event is needed.
    }

    /// True when a transaction's owner was timed out: dispatch and
    /// completion paths fail such transactions at their next visit. Only an
    /// armed deadline times a request out, so runs without one never read
    /// the request slot here.
    fn txn_aborted(&self, req: Option<RequestId>) -> bool {
        self.resilience.deadline.is_some()
            && req.is_some_and(|r| self.requests[r.0 as usize].timed_out)
    }

    /// Attempts to schedule a host resubmission of a failed / timed-out
    /// attempt. Returns false — the caller classifies the request
    /// terminally — when retry is off, the attempt cap is reached, or the
    /// tenant's retry budget is exhausted.
    fn try_schedule_retry(&mut self, now: SimTime, req_id: u64, tenant: usize) -> bool {
        let Some(retry) = self.resilience.retry else {
            return false;
        };
        let st = &self.requests[req_id as usize];
        if st.attempts >= retry.max_retries {
            return false;
        }
        if st.attempts == 0 && self.tenant_retry_outstanding[tenant] >= retry.tenant_budget {
            return false;
        }
        let st = &mut self.requests[req_id as usize];
        if st.attempts == 0 {
            self.tenant_retry_outstanding[tenant] += 1;
        }
        st.attempts += 1;
        st.timed_out = false;
        st.failed = false;
        st.data_loss = false;
        // Disarm the old deadline so its still-scheduled timer reads as
        // stale even if it fires during the backoff window; the
        // resubmission arms a fresh one.
        st.deadline_at = SimTime::ZERO;
        let attempts = st.attempts;
        self.tenants[tenant].host_retries += 1;
        let delay = self.retry_backoff(retry, attempts);
        self.queue.schedule(now + delay, Event::HostResubmit(req_id));
        true
    }

    /// Exponential backoff with deterministic jitter: `backoff × 2^(n-1)`
    /// clamped to the cap, plus up to half that step of seeded jitter (the
    /// jitter decorrelates retry storms without hurting replayability).
    fn retry_backoff(&mut self, retry: RetryParams, attempt: u32) -> SimDuration {
        let base = retry.backoff.as_nanos() << (attempt.saturating_sub(1)).min(16);
        let capped = base.min(retry.backoff_cap.as_nanos());
        let jitter = self.retry_rng.next_bounded(capped / 2 + 1);
        SimDuration::from_nanos(capped + jitter)
    }

    /// A retry backoff elapsed: resubmit the request through the host
    /// interface. The original arrival is kept so the recorded latency
    /// spans every attempt; the deadline (if armed) restarts per attempt.
    fn on_host_resubmit(&mut self, now: SimTime, req_id: u64) {
        let index = req_id as usize;
        let e = self.trace.events()[index];
        let st = &self.requests[index];
        let deadline = self.deadline_for(usize::from(st.tenant)).map(|d| now + d);
        let req = HostRequest {
            id: req_id,
            tenant: st.tenant,
            arrival: st.arrival,
            op: e.op,
            offset: e.offset,
            bytes: e.bytes,
            deadline,
        };
        if self.hil.submit(req) {
            self.after_submit(now, req);
        } else {
            // Queue full: try again after the same backoff step without
            // charging an attempt (the device never saw this resubmission).
            // Completions drain the queue, so this terminates.
            let retry = self.resilience.retry.expect("resubmit implies retry armed");
            let attempts = self.requests[index].attempts;
            let delay = self.retry_backoff(retry, attempts);
            self.queue.schedule(now + delay, Event::HostResubmit(req_id));
        }
    }

    /// Schedules trace record `index + 1` preserving the original
    /// inter-arrival gap from record `index` (measured from the time record
    /// `index` actually entered the queue).
    fn schedule_next_arrival(&mut self, now: SimTime, index: usize) {
        if index + 1 < self.trace.len() {
            let gap = self.trace.events()[index + 1]
                .arrival
                .saturating_since(self.trace.events()[index].arrival);
            self.queue.schedule(now + gap, Event::Arrival(index + 1));
        }
    }

    fn on_process(&mut self, now: SimTime) {
        let Some(req) = self.hil.fetch() else {
            // Entries queued but nothing fetchable: every queued tenant is
            // at its queue-depth cap. Defer; a completion re-schedules us.
            if self.hil.queued() > 0 {
                self.deferred_fetches += 1;
            }
            return;
        };
        if self.requests[req.id as usize].timed_out {
            // The deadline fired while the request sat in its submission
            // queue: abort before it touches the FTL. The error completion
            // posts through the normal path (zero transactions).
            let st = &mut self.requests[req.id as usize];
            st.arrival = req.arrival;
            st.tenant = req.tenant;
            st.remaining = 0;
            st.live = true;
            self.queue.schedule(
                now + self.config.hil.completion_latency,
                Event::RequestDone(req.id),
            );
            return;
        }
        let page = self.config.page_bytes();
        let first = req.offset / page;
        let last = (req.offset + u64::from(req.bytes).max(1) - 1) / page;
        let mut txns = 0u32;
        let mut data_loss = false;
        let mut transient_loss = false;
        for lpa in first..=last {
            if lpa >= self.ftl.logical_pages() {
                continue; // footprint rounding edge
            }
            self.charge_mapping_lookup(now, lpa);
            match req.op {
                IoOp::Read => {
                    // A never-written page reads as zeros, and a page whose
                    // program is still in flight is served from the
                    // controller's write buffer: neither touches flash.
                    let Some(gppa) = self.ftl.translate_read(lpa).expect("lpa in range") else {
                        continue;
                    };
                    if self.pending_programs.contains(gppa.0 as usize) {
                        continue;
                    }
                    let target = self.ftl.config().array.unpack(gppa);
                    let chip = usize::from(target.chip.0);
                    if self.chip_dead[chip] > 0 {
                        if self.config.redundancy.is_armed() {
                            // Degraded read: fan reconstruction reads out to
                            // the surviving parity-group members through the
                            // normal TSU/fabric path; the controller XORs
                            // them (free in this timing model).
                            match self.spawn_degraded_read(now, lpa, req.id, target) {
                                DegradedRead::Spawned(fanout) => {
                                    self.degraded_reads += 1;
                                    txns += fanout;
                                }
                                DegradedRead::Blocked => transient_loss = true,
                                // Unrecoverable by parity — but data is *lost*
                                // only when the primary's own media died. A
                                // group-mate of the dead chip that merely sits
                                // behind a fabric fault keeps its data; that
                                // failure stays a routing casualty.
                                DegradedRead::Lost if self.media_dead[chip] => data_loss = true,
                                DegradedRead::Lost => transient_loss = true,
                            }
                            continue;
                        }
                        // No redundancy: the read rides to dispatch and fails
                        // there, *classified* as data loss when the die itself
                        // is gone. A chip that is merely unreachable (fabric
                        // blast radius) keeps its data — that failure stays a
                        // routing casualty.
                        data_loss |= self.media_dead[chip];
                    }
                    self.spawn_txn(
                        now,
                        TxnKind::UserRead,
                        target,
                        Some(lpa),
                        Some(req.id),
                        NO_MIGRATION,
                    );
                    txns += 1;
                }
                IoOp::Write => {
                    // A write that finds every plane down to its GC reserve
                    // is throttled; it still counts toward completion.
                    if !self.spawn_user_write(now, req.id, lpa) {
                        self.throttled_writes.push_back((req.id, lpa));
                    }
                    txns += 1;
                }
            }
        }
        // Field-wise update, not a struct overwrite: the resilience fields
        // (`attempts`, `deadline_at`, `timed_out`, `done`) persist across
        // resubmissions of the same request.
        let st = &mut self.requests[req.id as usize];
        st.arrival = req.arrival;
        st.tenant = req.tenant;
        st.remaining = txns;
        st.conflicted = false;
        st.live = true;
        // A lost page fails the attempt up front (its error completion may
        // post with zero transactions when reconstruction had no survivor
        // to read). A transiently unreconstructable page fails the attempt
        // the same way but is a routing-class casualty, not data loss.
        st.failed = data_loss || transient_loss;
        st.data_loss = data_loss;
        if txns == 0 {
            // Nothing touches flash (e.g. read of never-written data).
            self.queue.schedule(
                now + self.config.hil.completion_latency,
                Event::RequestDone(req.id),
            );
        }
        self.check_gc(now);
        self.schedule_dispatch(now);
    }

    /// Allocates and issues one host-write page; returns false when the FTL
    /// is out of unreserved space and the write must be throttled.
    fn spawn_user_write(&mut self, now: SimTime, req_id: u64, lpa: u64) -> bool {
        match self.ftl.allocate_write(lpa) {
            Ok(gppa) => {
                self.cmt.mark_dirty(lpa);
                self.pending_programs.insert(gppa.0 as usize);
                let target = self.ftl.config().array.unpack(gppa);
                self.spawn_txn(
                    now,
                    TxnKind::UserWrite,
                    target,
                    Some(lpa),
                    Some(req_id),
                    NO_MIGRATION,
                );
                true
            }
            Err(venice_ftl::FtlError::OutOfSpace) => false,
            Err(e) => panic!("host write failed: {e}"),
        }
    }

    /// Cached-mapping-table lookup: a miss issues a mapping-table read
    /// (modelled as a read of the data page the translation entry points at)
    /// and fills the cache.
    fn charge_mapping_lookup(&mut self, now: SimTime, lpa: u64) {
        if self.cmt.lookup(lpa) {
            return;
        }
        if let Some(gppa) = self.ftl.translate(lpa) {
            if !self.pending_programs.contains(gppa.0 as usize) {
                let target = self.ftl.config().array.unpack(gppa);
                self.spawn_txn(now, TxnKind::MapRead, target, Some(lpa), None, NO_MIGRATION);
            }
        }
        // Dirty write-backs are absorbed by the controller DRAM buffer; the
        // covering cache used in the paper-scale experiments never evicts.
        let _ = self.cmt.fill(lpa);
    }

    fn on_request_done(&mut self, now: SimTime, req_id: u64) {
        let st = &mut self.requests[req_id as usize];
        debug_assert!(st.live, "request {req_id} not tracked");
        st.live = false;
        let (arrival, tenant, conflicted, failed, timed_out, attempts, deadline_at, data_loss) = (
            st.arrival,
            usize::from(st.tenant),
            st.conflicted,
            st.failed,
            st.timed_out,
            st.attempts,
            st.deadline_at,
            st.data_loss,
        );
        self.hil.complete(req_id, now);
        // Bounded host retry: a failed or timed-out attempt resubmits after
        // backoff instead of going terminal, while cap and budget allow.
        // The freed queue slot still re-arms deferred fetches and stalled
        // arrivals.
        if (failed || timed_out) && self.try_schedule_retry(now, req_id, tenant) {
            self.rearm_after_completion(now);
            return;
        }
        // Terminal outcome classification: exactly one per request.
        let latency = now.saturating_since(arrival);
        let t = &mut self.tenants[tenant];
        t.latencies.record(latency);
        t.completed += 1;
        t.conflicted += u64::from(conflicted);
        if timed_out {
            // `RequestOutcome::DeadlineMiss`: an error completion — counted
            // against availability like a device failure.
            t.deadline_misses += 1;
            t.failed += 1;
        } else if failed {
            // `RequestOutcome::FailedAfterRetries` (with retry off, every
            // device failure is terminal immediately). The request reached
            // the host with error status; it still counts as completed (the
            // calendar drained it) but not as available. With `data_loss`
            // it is `RequestOutcome::DataLoss`: the failure is durability,
            // not routing — the page's only copy sat on a dead chip with
            // nothing to reconstruct it from (a subset of failures).
            t.failed += 1;
            t.data_loss += u64::from(data_loss);
        } else if deadline_at == SimTime::ZERO || now <= deadline_at {
            // `RequestOutcome::Ok` with the deadline met (or unarmed): the
            // goodput numerator.
            t.deadline_met += 1;
        }
        let st = &mut self.requests[req_id as usize];
        debug_assert!(!st.done, "double terminal outcome for request {req_id}");
        st.done = true;
        if attempts > 0 {
            debug_assert!(self.tenant_retry_outstanding[tenant] > 0);
            self.tenant_retry_outstanding[tenant] -= 1;
        }
        let l = latency.as_nanos();
        self.tail_estimate_ns = l.max(self.tail_estimate_ns - self.tail_estimate_ns / 8);
        self.last_completion = self.last_completion.max(now);
        self.rearm_after_completion(now);
    }

    /// A completion freed submission capacity: retry one fetch that a
    /// queue-depth cap deferred (never taken on the single-tenant path —
    /// `deferred_fetches` stays zero without caps) and resume a stalled
    /// arrival.
    fn rearm_after_completion(&mut self, now: SimTime) {
        if self.deferred_fetches > 0 && self.hil.queued() > 0 {
            self.deferred_fetches -= 1;
            self.queue
                .schedule(now + self.config.hil.submission_latency, Event::Process);
        }
        if let Some((req, index)) = self.stalled_arrival.take() {
            self.submit_arrival(now, req, index);
        }
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    fn spawn_txn(
        &mut self,
        now: SimTime,
        kind: TxnKind,
        target: PhysicalPageAddr,
        lpa: Option<u64>,
        request: Option<u64>,
        migration: usize,
    ) -> TxnId {
        let idx = self
            .free_txns
            .pop()
            .map_or(self.txns.len(), |i| i as usize);
        let id = TxnId(idx as u64);
        let txn = Transaction {
            id,
            kind,
            target,
            lpa,
            request: request.map(RequestId),
        };
        let slot = TxnSlot {
            txn,
            phase: Phase::Queued,
            grant: None,
            migration,
            conflict_flagged: false,
            live: true,
        };
        if idx == self.txns.len() {
            self.txns.push(slot);
        } else {
            debug_assert!(!self.txns[idx].live, "free list returned a live slot");
            self.txns[idx] = slot;
        }
        self.live_txns += 1;
        self.spawned_txns += 1;
        if kind.is_read() || kind.is_write() {
            let key = self.block_key(target);
            self.block_users[key] += 1;
        }
        self.tsu.enqueue(txn, now);
        self.schedule_dispatch(now);
        id
    }

    /// Global block key of a physical page (dense index into
    /// [`SsdSim::block_users`]).
    fn block_key(&self, p: PhysicalPageAddr) -> usize {
        let array = &self.ftl.config().array;
        array.plane_index(p) * array.chip.blocks_per_plane as usize + p.addr.block as usize
    }

    /// Dense die index of a physical page (into [`SsdSim::die_busy`]).
    #[inline]
    fn die_key(&self, p: PhysicalPageAddr) -> usize {
        usize::from(p.chip.0) * self.config.array.chip.dies as usize + p.addr.die as usize
    }

    /// Marks one user of `target`'s block as drained, releasing any erase
    /// waiting on that block.
    fn release_block_user(&mut self, now: SimTime, target: PhysicalPageAddr) {
        let key = self.block_key(target);
        debug_assert!(self.block_users[key] > 0, "user count tracked");
        self.block_users[key] -= 1;
        if self.block_users[key] == 0 && !self.blocked_erases.is_empty() {
            // Release erases blocked on this block, preserving queue order.
            let mut i = 0;
            while i < self.blocked_erases.len() {
                if self.blocked_erases[i].0 == key {
                    let (_, slot) = self.blocked_erases.remove(i);
                    self.spawn_migration_erase(now, slot);
                } else {
                    i += 1;
                }
            }
        }
    }

    fn on_dispatch(&mut self, now: SimTime) {
        self.dispatch_pending = false;
        if self.parked_on_controllers {
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
            self.dispatch_cursor = self.dispatch_cursor.wrapping_add(1);
            return;
        }
        self.policy.begin_round();
        // Two passes implement the paper's controller-affinity policy: first
        // serve chips whose *home-row* controller is free (short, row-local
        // circuits), then let remaining work reach over to distant
        // controllers.
        let mut no_controller = false;
        for pass in 0..2 {
            if no_controller {
                break;
            }
            no_controller = self.dispatch_data_bursts(now, pass == 0);
            if !no_controller {
                no_controller = self.dispatch_command_bursts(now, pass == 0);
            }
        }
        self.dispatch_cursor = self.dispatch_cursor.wrapping_add(1);
        if no_controller {
            // The round ended on an exhausted controller pool: park. The
            // next release is guaranteed (the pool is exhausted because
            // grants are outstanding) and wakes dispatch, so skipped chips
            // cannot strand and no probe is needed.
            self.parked_on_controllers = true;
        } else if self.policy.round_needs_probe() {
            // Every attempt this round was suppressed and nothing was
            // dispatched: no in-flight completion is guaranteed to wake the
            // dispatcher, so schedule a probe round ourselves. Rounds are
            // what backoff counts in, so the deferred chips become eligible
            // again after a bounded number of probes.
            debug_assert!(!self.dispatch_pending);
            self.dispatch_pending = true;
            self.queue
                .schedule(now + POLICY_PROBE_DELAY, Event::Dispatch);
        } else if self.config.fault_plan != FaultPlan::None
            && !self.policy.round_dispatched()
            && !self.dispatch_pending
            && (self.tsu.pending() > 0 || !self.data_ready.is_empty())
        {
            // Fault-mode liveness probe: a round moved nothing while work is
            // queued. Under faults that can mean every route to the work is
            // down (a severed route is a retryable path conflict until
            // repair) with no in-flight completion left to wake us — re-arm
            // ourselves. Only active when a fault plan is configured (even
            // one whose script is empty on this mesh), so fault-free runs
            // keep a bit-identical calendar.
            self.dispatch_pending = true;
            self.queue
                .schedule(now + FAULT_PROBE_DELAY, Event::Dispatch);
        }
    }

    /// Returns a burst's grant to the fabric and un-parks dispatch. Exact:
    /// only the pooled fabrics (NoSSD, Venice) ever fail with
    /// [`AcquireError::NoFreeController`], each of their releases frees a
    /// controller, and the bus and ideal fabrics never park.
    fn release(&mut self, grant: PathGrant) {
        self.fabric.release(grant);
        self.parked_on_controllers = false;
    }

    // ------------------------------------------------------------------
    // Fault injection & degraded mode
    // ------------------------------------------------------------------

    /// Delivers one scripted fault-plan action. Every class reconverges on
    /// a dispatch kick: repairs free resources parked chips may now reach,
    /// and faults fail transactions whose follow-on work (migration steps,
    /// request completions) must keep the calendar moving.
    fn on_fault(&mut self, now: SimTime, index: usize) {
        let action = self.fault_script[index].1;
        self.faults_injected += 1;
        match action {
            FaultAction::Fabric(fault) => {
                if fault.is_down() {
                    self.faults_active += 1;
                } else {
                    self.faults_active = self.faults_active.saturating_sub(1);
                }
                let impact = self.fabric.inject_fault(fault);
                for node in impact.dead_chips {
                    // Fabric blast radii are outages, not media loss: they
                    // never arm a rebuild (the chip's data is intact behind
                    // the severed path).
                    self.kill_chip(now, usize::from(node.0), false);
                }
                for node in impact.revived_chips {
                    self.revive_chip(usize::from(node.0));
                }
            }
            FaultAction::ChipDeath(node) => {
                self.faults_active += 1;
                self.kill_chip(now, usize::from(node.0), true);
            }
            FaultAction::ArmTransient { chip, charges } => {
                self.transient_charges[usize::from(chip.0)] += charges;
            }
        }
        // Repairs may free the resource every pooled controller was parked
        // on, and fault drains leave successor work needing a round; either
        // way the dispatcher must look again.
        self.parked_on_controllers = false;
        self.schedule_dispatch(now);
    }

    /// Marks a chip unreachable and fail-drains everything queued for it.
    /// Failing a transaction runs its normal completion bookkeeping, which
    /// can spawn *new* transactions onto the same dead chip (relocation
    /// writes, source-block erases) or advance in-flight *rebuild* jobs
    /// (whose remapped writes land elsewhere), so the drain loops until
    /// both the TSU queues — the rebuild class included — and the pending
    /// data bursts are empty.
    ///
    /// `permanent` distinguishes media loss (a scripted
    /// [`FaultAction::ChipDeath`] — the die is gone and, with redundancy
    /// armed, a background rebuild starts) from a fabric outage's blast
    /// radius (the chip is merely unreachable until repair).
    fn kill_chip(&mut self, now: SimTime, chip: usize, permanent: bool) {
        self.chip_dead[chip] += 1;
        if permanent {
            self.media_dead[chip] = true;
            if self.config.redundancy.is_armed() {
                self.start_rebuild(now, chip);
            }
        }
        if self.chip_dead[chip] > 1 {
            return; // already dead via an overlapping fault
        }
        let mut drained: Vec<Transaction> = Vec::new();
        loop {
            self.tsu.drain_chip_into(chip as u16, &mut drained);
            if drained.is_empty() && self.data_pending[chip].is_empty() {
                break;
            }
            for txn in &drained {
                self.fail_txn(now, txn.id);
            }
            while self.fail_data_burst(now, chip) {}
        }
        // In-flight command/array events finish on their own; the dead-chip
        // check in `on_chip_op_done` fails them at the command boundary.
    }

    /// Reverses one layer of chip death (repair). Queued work resumes on
    /// the next dispatch round; nothing needs re-arming beyond that because
    /// a dead chip's queues were drained, so new work wakes the ready sets.
    fn revive_chip(&mut self, chip: usize) {
        self.chip_dead[chip] = self.chip_dead[chip].saturating_sub(1);
    }

    /// Completes a transaction with error status: the owning request (if
    /// any) is marked failed but still completes, and migration bookkeeping
    /// advances normally — a degraded run must never strand the calendar.
    fn fail_txn(&mut self, now: SimTime, txn_id: TxnId) {
        let (txn, migration) = self.free_txn(txn_id);
        if let Some(req) = txn.request {
            let st = &mut self.requests[req.0 as usize];
            if st.live {
                st.failed = true;
            }
        }
        self.complete_txn(now, txn, migration);
    }

    // ------------------------------------------------------------------
    // Redundancy: degraded reads & background rebuild
    // ------------------------------------------------------------------

    /// Reconstruction-read targets for a dead chip's page: the surviving
    /// members of its parity group, each mirrored at the dead page's
    /// address with the page clamped to the peer block's write pointer (a
    /// peer that never wrote the block contributes nothing — XOR with an
    /// erased page is free). Peers whose plane hosts an active migration
    /// count as `blocked`: the migration's victim-block erase may already
    /// be in flight, and a mirrored read spawned now could land on the
    /// block *after* the erase resets its write pointer. A read spawned
    /// when no migration is active is safe — it holds a `block_users`
    /// count, so any later erase waits for it to drain. Peers behind a
    /// fabric fault's blast radius are `blocked` too (their media is
    /// intact but unreadable), and a media-dead peer marks the whole set
    /// `lost` — XOR cannot reconstruct around a missing member.
    fn survivor_targets(&self, dead: PhysicalPageAddr) -> SurvivorSet {
        let cols = self.config.fabric.cols;
        let mut set =
            SurvivorSet { targets: Vec::new(), severed: 0, migrating: 0, lost: false };
        for peer in self.config.redundancy.survivors(dead.chip.0, cols) {
            let c = usize::from(peer);
            let wp = self.chips[c].write_pointer(dead.addr);
            if wp == 0 {
                continue; // never wrote the block: no contribution needed
            }
            if self.media_dead[c] {
                set.lost = true;
                continue;
            }
            if self.chip_dead[c] > 0 {
                set.severed += 1;
                continue;
            }
            let probe = PhysicalPageAddr { chip: ChipId(peer), addr: dead.addr };
            if self.plane_under_migration(self.ftl.config().array.plane_index(probe)) {
                set.migrating += 1;
                continue;
            }
            let mut addr = dead.addr;
            addr.page = addr.page.min(wp - 1);
            set.targets.push(PhysicalPageAddr { chip: ChipId(peer), addr });
        }
        set
    }

    /// True when any active GC / wear migration targets `plane` (the
    /// active-slot list is tiny, so a linear scan suffices).
    fn plane_under_migration(&self, plane: usize) -> bool {
        self.migrations.iter().flatten().any(|m| m.job.plane == plane)
    }

    /// Fans one foreground read of a dead chip's page out to its surviving
    /// parity-group members: one reconstruction read per contributing
    /// survivor, all owned by the originating request so the completion
    /// posts only once every member arrived. XOR reconstruction is
    /// all-or-nothing, so a single blocked (or destroyed) survivor fails
    /// the whole attempt — partial fan-outs would decode garbage.
    fn spawn_degraded_read(
        &mut self,
        now: SimTime,
        lpa: u64,
        req_id: u64,
        dead: PhysicalPageAddr,
    ) -> DegradedRead {
        let set = self.survivor_targets(dead);
        if set.lost {
            return DegradedRead::Lost;
        }
        if set.blocked() {
            return DegradedRead::Blocked;
        }
        for &target in &set.targets {
            self.spawn_txn(now, TxnKind::UserRead, target, Some(lpa), Some(req_id), NO_MIGRATION);
        }
        DegradedRead::Spawned(set.targets.len() as u32)
    }

    /// Arms the background rebuild of a permanently dead `chip`, queueing
    /// behind an active rebuild (one chip rebuilds at a time, like a real
    /// RAID controller's serialized rebuild).
    fn start_rebuild(&mut self, now: SimTime, chip: usize) {
        debug_assert!(self.config.redundancy.is_armed());
        if self.rebuild.as_ref().is_some_and(|r| r.chip == chip)
            || self.rebuild_pending.contains(&chip)
        {
            return; // already rebuilding / queued (overlapping scripts)
        }
        if self.rebuild.is_some() {
            self.rebuild_pending.push_back(chip);
            return;
        }
        self.rebuild = Some(RebuildState {
            chip,
            next_lpa: 0,
            staged: VecDeque::new(),
            tokens: REBUILD_BURST,
            jobs: Vec::new(),
            scan_done: false,
            retries: Vec::new(),
            deferred: Vec::new(),
        });
        if !self.rebuild_tick_armed {
            self.rebuild_tick_armed = true;
            self.queue.schedule(now + REBUILD_TICK, Event::RebuildTick);
        }
    }

    /// One pacing quantum of the rebuild engine: refill the token bucket,
    /// advance the scan of the logical space (staging dead-chip pages),
    /// and launch reconstruction jobs while tokens and job slots last. The
    /// tick re-arms itself only while a rebuild is active, so a finished
    /// rebuild stops touching the calendar.
    fn on_rebuild_tick(&mut self, now: SimTime) {
        if self.rebuild.is_none() {
            self.rebuild_tick_armed = false;
            return;
        }
        let chip = {
            let r = self.rebuild.as_mut().expect("checked above");
            r.tokens = (r.tokens + REBUILD_RATE).min(REBUILD_BURST);
            r.chip
        };
        // Re-stage last tick's blocked pages first: their blockers have
        // had a tick to clear, and queue order retries them before fresh
        // scan output claims the tokens.
        let r = self.rebuild.as_mut().expect("checked above");
        r.staged.extend(r.deferred.drain(..));
        let logical = self.ftl.logical_pages();
        let mut scanned = 0u64;
        while scanned < REBUILD_SCAN_BATCH {
            let lpa = {
                let r = self.rebuild.as_mut().expect("checked above");
                if r.scan_done || r.next_lpa >= logical {
                    r.scan_done = true;
                    break;
                }
                let l = r.next_lpa;
                r.next_lpa += 1;
                l
            };
            scanned += 1;
            let on_dead = self.ftl.translate(lpa).is_some_and(|g| {
                usize::from(self.ftl.config().array.unpack(g).chip.0) == chip
            });
            if on_dead {
                // Deferred (never dropped) while the job cap or the token
                // bucket is exhausted.
                self.rebuild.as_mut().expect("checked above").staged.push_back(lpa);
            }
        }
        loop {
            let r = self.rebuild.as_mut().expect("checked above");
            if r.tokens == 0 || r.jobs.len() >= REBUILD_MAX_JOBS {
                break;
            }
            let Some(lpa) = r.staged.pop_front() else {
                break;
            };
            r.tokens -= 1;
            self.launch_rebuild_job(now, lpa);
        }
        self.maybe_finish_rebuild(now);
        if self.rebuild.is_some() {
            self.queue.schedule(now + REBUILD_TICK, Event::RebuildTick);
        } else {
            self.rebuild_tick_armed = false;
        }
        self.schedule_dispatch(now);
    }

    /// Launches one reconstruction job for a staged logical page. Pages
    /// remapped since the scan staged them (host overwrite, GC) need
    /// nothing; buffer-resident pages skip straight to the remapped write;
    /// the rest spawn one low-priority [`TxnKind::RebuildRead`] per
    /// contributing group member. Strict parity: a page whose survivor
    /// set is short a *transiently* unreadable member re-stages with
    /// bounded attempts ([`REBUILD_RETRY_LIMIT`]) — each retry costs a
    /// token, so the pacing bucket bounds the churn — and a page short a
    /// *destroyed* member (or out of attempts) is skipped and counted in
    /// `rebuild_skipped_pages`. The rebuild always drains, and a
    /// foreground read classifies any true loss.
    fn launch_rebuild_job(&mut self, now: SimTime, lpa: u64) {
        let chip = self.rebuild.as_ref().expect("rebuild active").chip;
        let on_dead = self
            .ftl
            .translate(lpa)
            .filter(|g| usize::from(self.ftl.config().array.unpack(*g).chip.0) == chip);
        let Some(gppa) = on_dead else {
            return;
        };
        if self.pending_programs.contains(gppa.0 as usize) {
            // The lost copy's program never landed but its data is still in
            // the controller's write buffer: rebuild without touching the
            // survivors.
            let r = self.rebuild.as_mut().expect("rebuild active");
            r.jobs.push(RebuildJob { lpa, reads_pending: 0 });
            let idx = r.jobs.len() - 1;
            self.launch_rebuild_write(now, idx);
            return;
        }
        let dead = self.ftl.config().array.unpack(gppa);
        let set = self.survivor_targets(dead);
        if set.lost {
            // Overlapping deaths destroyed a group member: the page stays
            // mapped to the dead chip and the recovery is incomplete.
            self.rebuild_skipped_pages += 1;
            return;
        }
        if set.severed > 0 {
            // A media-alive survivor sits behind a fabric fault that may
            // never heal: defer rather than reconstruct from a partial
            // set, up to REBUILD_RETRY_LIMIT tick-spaced attempts so a
            // permanent severance cannot stall the drain.
            let r = self.rebuild.as_mut().expect("rebuild active");
            match r.retries.iter().position(|(l, _)| *l == lpa) {
                Some(i) if r.retries[i].1 >= REBUILD_RETRY_LIMIT => {
                    r.retries.swap_remove(i);
                    self.rebuild_skipped_pages += 1;
                }
                Some(i) => {
                    r.retries[i].1 += 1;
                    r.deferred.push(lpa);
                }
                None => {
                    r.retries.push((lpa, 1));
                    r.deferred.push(lpa);
                }
            }
            return;
        }
        if set.migrating > 0 {
            // A survivor's plane hosts an active migration. Migrations are
            // finite and GC quiesces once writes drain, so parking the
            // page until the next tick always terminates — no bounded
            // attempt is burned on a blocker that is guaranteed to clear.
            self.rebuild.as_mut().expect("rebuild active").deferred.push(lpa);
            return;
        }
        let r = self.rebuild.as_mut().expect("rebuild active");
        r.retries.retain(|(l, _)| *l != lpa);
        r.jobs.push(RebuildJob { lpa, reads_pending: set.targets.len() as u32 });
        let idx = r.jobs.len() - 1;
        if set.targets.is_empty() {
            // Every contribution was an erased page: the content
            // reconstructs without touching flash — write it straight out.
            self.launch_rebuild_write(now, idx);
            return;
        }
        for target in set.targets {
            self.spawn_txn(now, TxnKind::RebuildRead, target, Some(lpa), None, NO_MIGRATION);
        }
    }

    /// A reconstruction read arrived (or fail-drained — the bookkeeping
    /// must advance either way so `kill_chip` drains never strand a job):
    /// when the last one lands, the reconstructed page is written back out.
    fn on_rebuild_read_done(&mut self, now: SimTime, txn: Transaction) {
        let lpa = txn.lpa.expect("rebuild read has an lpa");
        let r = self.rebuild.as_mut().expect("rebuild read implies active rebuild");
        let idx = r
            .jobs
            .iter()
            .position(|j| j.lpa == lpa)
            .expect("rebuild read has a job");
        r.jobs[idx].reads_pending -= 1;
        if r.jobs[idx].reads_pending == 0 {
            self.launch_rebuild_write(now, idx);
        }
    }

    /// Writes one reconstructed page back out through the normal FTL
    /// allocator, retrying allocations that land on a dead plane (the
    /// discarded pages are plain invalidated space for GC). The program is
    /// spawned immediately after its allocation — any interleaved
    /// allocation would break the chip's in-order program contract. Out of
    /// space re-stages the page rather than dropping it; GC frees room (the
    /// dead chip's invalidated blocks are reclaimable) and a later tick
    /// retries.
    fn launch_rebuild_write(&mut self, now: SimTime, job_idx: usize) {
        let (lpa, chip) = {
            let r = self.rebuild.as_ref().expect("rebuild active");
            (r.jobs[job_idx].lpa, r.chip)
        };
        let still_dead = self
            .ftl
            .translate(lpa)
            .is_some_and(|g| usize::from(self.ftl.config().array.unpack(g).chip.0) == chip);
        if !still_dead {
            // Remapped while its reconstruction reads were in flight
            // (host overwrite): nothing left to rebuild.
            self.retire_rebuild_job(now, job_idx);
            return;
        }
        let attempts = self.config.array.total_planes().max(1);
        let mut dest = None;
        for _ in 0..attempts {
            match self.ftl.allocate_write(lpa) {
                Ok(gppa) => {
                    let target = self.ftl.config().array.unpack(gppa);
                    if self.chip_dead[usize::from(target.chip.0)] == 0 {
                        dest = Some((gppa, target));
                        break;
                    }
                    // Dead-plane allocation: superseded by the next attempt.
                }
                Err(venice_ftl::FtlError::OutOfSpace) => break,
                Err(e) => panic!("rebuild write failed: {e}"),
            }
        }
        match dest {
            Some((gppa, target)) => {
                self.pending_programs.insert(gppa.0 as usize);
                self.spawn_txn(now, TxnKind::RebuildWrite, target, Some(lpa), None, NO_MIGRATION);
            }
            None => {
                let r = self.rebuild.as_mut().expect("rebuild active");
                r.jobs.swap_remove(job_idx);
                r.staged.push_back(lpa);
                self.check_gc(now);
            }
        }
    }

    /// A remapped rebuild write landed (or fail-drained): the page is
    /// rebuilt and its job retires.
    fn on_rebuild_write_done(&mut self, now: SimTime, txn: Transaction) {
        let lpa = txn.lpa.expect("rebuild write has an lpa");
        let r = self.rebuild.as_mut().expect("rebuild write implies active rebuild");
        let idx = r
            .jobs
            .iter()
            .position(|j| j.lpa == lpa && j.reads_pending == 0)
            .expect("rebuild write has a job");
        self.rebuilt_pages += 1;
        self.retire_rebuild_job(now, idx);
        self.check_gc(now);
    }

    /// Removes one finished job and, when the scan is done and nothing is
    /// staged or in flight, retires the whole rebuild — recording the MTTR
    /// endpoint and starting the next queued chip, if any.
    fn retire_rebuild_job(&mut self, now: SimTime, job_idx: usize) {
        self.rebuild
            .as_mut()
            .expect("rebuild active")
            .jobs
            .swap_remove(job_idx);
        self.maybe_finish_rebuild(now);
    }

    fn maybe_finish_rebuild(&mut self, now: SimTime) {
        let done = self.rebuild.as_ref().is_some_and(|r| {
            r.scan_done && r.jobs.is_empty() && r.deferred.is_empty() && r.staged.is_empty()
        });
        if !done {
            return;
        }
        self.rebuild = None;
        self.rebuild_done = now;
        if let Some(chip) = self.rebuild_pending.pop_front() {
            self.start_rebuild(now, chip);
        }
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
        let mut ready = std::mem::take(&mut self.data_scratch);
        match self.config.scan {
            DispatchScanKind::Incremental => self
                .data_ready
                .collect_into_from(self.dispatch_cursor % chip_count, &mut ready),
            DispatchScanKind::FullScan => {
                ready.clear();
                ready.extend(
                    (0..chip_count).map(|off| ((self.dispatch_cursor + off) % chip_count) as u16),
                );
            }
        }
        let ran_out = 'out: {
            for &chip in &ready {
                let c = usize::from(chip);
                if self.chip_dead[c] > 0 {
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
                    if !self.policy.try_attempt(chip, 0) {
                        break;
                    }
                    match self.fabric.try_acquire(NodeId(chip)) {
                        Ok(grant) => {
                            self.policy.note_success(chip);
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
                            self.policy.note_failure(chip, &e);
                            let req = self.slot(txn_id).txn.request;
                            self.note_acquire_failure(txn_id, req, e);
                            if e == AcquireError::NoFreeController {
                                break 'out true;
                            }
                            break;
                        }
                    }
                }
            }
            false
        };
        self.data_scratch = ready;
        ran_out
    }

    /// Pops chip `c`'s oldest read-data burst, keeping `data_ready` in step
    /// with "`data_pending[c]` non-empty".
    fn pop_data_burst(&mut self, c: usize) -> Option<TxnId> {
        let txn_id = self.data_pending[c].pop_front()?;
        if self.data_pending[c].is_empty() {
            self.data_ready.remove(c);
        }
        Some(txn_id)
    }

    /// Fails chip `c`'s oldest read-data burst and frees its die; returns
    /// false when no burst was waiting.
    fn fail_data_burst(&mut self, now: SimTime, c: usize) -> bool {
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
        let mut busy = std::mem::take(&mut self.busy_scratch);
        match self.config.scan {
            DispatchScanKind::Incremental => self.tsu.busy_chips_into(&mut busy),
            DispatchScanKind::FullScan => self.tsu.busy_chips_scan_into(&mut busy),
        }
        let ran_out = 'out: {
            if busy.is_empty() {
                break 'out false;
            }
            let start = self.dispatch_cursor % busy.len();
            for off in 0..busy.len() {
                let c = busy[(start + off) % busy.len()];
                if self.chip_dead[usize::from(c)] > 0 {
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
                    if !self.policy.try_attempt(c, queue_age) {
                        break;
                    }
                    match self.fabric.try_acquire(NodeId(c)) {
                        Ok(grant) => {
                            self.policy.note_success(c);
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
                            self.policy.note_failure(c, &e);
                            self.note_acquire_failure(txn_id, txn_req, e);
                            if e == AcquireError::NoFreeController {
                                break 'out true;
                            }
                            break;
                        }
                    }
                }
            }
            false
        };
        self.busy_scratch = busy;
        ran_out
    }

    /// Records a first-attempt path conflict against the owning request
    /// (Figure 13 counts requests whose service hit ≥ 1 conflict).
    fn note_acquire_failure(&mut self, txn_id: TxnId, req: Option<RequestId>, e: AcquireError) {
        if !e.is_path_conflict() {
            return;
        }
        let slot = self.slot_mut(txn_id);
        if slot.conflict_flagged {
            return;
        }
        slot.conflict_flagged = true;
        if let Some(r) = req {
            let st = &mut self.requests[r.0 as usize];
            if st.live {
                st.conflicted = true;
            }
        }
    }

    fn on_command_sent(&mut self, now: SimTime, txn_id: TxnId) {
        let inf = self.slot_mut(txn_id);
        debug_assert_eq!(inf.phase, Phase::Command);
        inf.phase = Phase::ArrayOp;
        let grant = inf.grant.take().expect("command held a grant");
        let txn = inf.txn;
        self.release(grant);
        let kind = if txn.kind.is_read() {
            NandCommandKind::Read
        } else if txn.kind.is_write() {
            NandCommandKind::Program
        } else {
            NandCommandKind::Erase
        };
        let done = self.chips[usize::from(txn.target.chip.0)]
            .start(kind, &[txn.target.addr], now)
            .unwrap_or_else(|e| panic!("chip rejected {txn:?}: {e}"));
        self.queue.schedule(done, Event::ChipOpDone(txn_id));
        self.schedule_dispatch(now);
    }

    fn on_chip_op_done(&mut self, now: SimTime, txn_id: TxnId) {
        let inf = self.slot(txn_id);
        let txn = inf.txn;
        let chip = usize::from(txn.target.chip.0);
        if self.chip_dead[chip] > 0 || self.txn_aborted(txn.request) {
            // The chip died, or the owner's deadline fired, mid-array-op:
            // fail-stop at the command boundary. The op's result is lost and
            // the die frees for the next transaction.
            let die = self.die_key(txn.target);
            self.die_busy[die] = false;
            self.fail_txn(now, txn_id);
            self.schedule_dispatch(now);
            return;
        }
        if !txn.kind.is_read() && self.transient_charges[chip] > 0 {
            // Transient program/erase failure: retry in place. The die stays
            // claimed and the command is NOT re-issued to the chip model
            // (that would violate program ordering); the bounded retry costs
            // one more array-op time on the calendar.
            self.transient_charges[chip] -= 1;
            self.retried_ops += 1;
            let d = if txn.kind.is_erase() {
                self.config.timing.t_bers
            } else {
                self.config.timing.t_prog
            };
            self.queue.schedule(now + d, Event::ChipOpDone(txn_id));
            return;
        }
        if txn.kind.is_read() {
            // Data waits in the page register for a path out; the die stays
            // claimed until the burst drains.
            self.data_pending[usize::from(txn.target.chip.0)].push_back(txn_id);
            self.data_ready.insert(usize::from(txn.target.chip.0));
        } else {
            let die = self.die_key(txn.target);
            self.die_busy[die] = false;
            let (txn, migration) = self.free_txn(txn_id);
            self.complete_txn(now, txn, migration);
        }
        self.schedule_dispatch(now);
    }

    fn on_data_sent(&mut self, now: SimTime, txn_id: TxnId) {
        let inf = self.slot_mut(txn_id);
        debug_assert_eq!(inf.phase, Phase::DataOut);
        let grant = inf.grant.take().expect("data burst held a grant");
        self.release(grant);
        let (txn, migration) = self.free_txn(txn_id);
        let die = self.die_key(txn.target);
        self.die_busy[die] = false;
        self.complete_txn(now, txn, migration);
        self.schedule_dispatch(now);
    }

    fn complete_txn(&mut self, now: SimTime, txn: Transaction, migration: usize) {
        if txn.kind.is_write() {
            let gppa = self.ftl.config().array.pack(txn.target);
            self.pending_programs.remove(gppa.0 as usize);
        }
        if txn.kind.is_read() || txn.kind.is_write() {
            self.release_block_user(now, txn.target);
        }
        match txn.kind {
            TxnKind::UserRead | TxnKind::UserWrite => {
                let req = txn.request.expect("user txn has a request");
                let st = &mut self.requests[req.0 as usize];
                debug_assert!(st.live, "request tracked");
                st.remaining -= 1;
                if st.remaining == 0 {
                    self.queue.schedule(
                        now + self.config.hil.completion_latency,
                        Event::RequestDone(req.0),
                    );
                }
                if txn.kind == TxnKind::UserWrite {
                    self.check_gc(now);
                }
            }
            TxnKind::GcRead | TxnKind::WearRead => self.on_migration_read_done(now, txn, migration),
            TxnKind::GcWrite | TxnKind::WearWrite => self.on_migration_write_done(now, migration),
            TxnKind::GcErase | TxnKind::WearErase => self.on_migration_erase_done(now, migration),
            TxnKind::RebuildRead => self.on_rebuild_read_done(now, txn),
            TxnKind::RebuildWrite => self.on_rebuild_write_done(now, txn),
            TxnKind::MapRead | TxnKind::MapWrite => {}
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection and wear leveling
    // ------------------------------------------------------------------

    fn check_gc(&mut self, now: SimTime) {
        for plane in self.ftl.planes_needing_gc() {
            if self.active_gc_planes[plane] {
                continue;
            }
            if let Some(job) = self.ftl.start_gc(plane) {
                self.active_gc_planes[plane] = true;
                self.start_migration(now, job, false);
            }
        }
    }

    fn check_wear(&mut self, now: SimTime) {
        if self.wear_job_active {
            return;
        }
        if let Some(job) = self.ftl.check_wear_leveling() {
            self.wear_job_active = true;
            self.start_migration(now, job, true);
        }
    }

    fn alloc_migration(&mut self, state: MigrationState) -> usize {
        match self.free_migrations.pop() {
            Some(slot) => {
                debug_assert!(self.migrations[slot].is_none());
                self.migrations[slot] = Some(state);
                slot
            }
            None => {
                self.migrations.push(Some(state));
                self.migrations.len() - 1
            }
        }
    }

    fn start_migration(&mut self, now: SimTime, job: MigrationJob, wear: bool) {
        let read_kind = if wear { TxnKind::WearRead } else { TxnKind::GcRead };
        // Pages whose program is still in flight are copied straight from
        // the write buffer; the rest need a flash read first. Partition into
        // the reusable scratch buffers (no clone of `job.pages`).
        let mut buffered = std::mem::take(&mut self.mig_buffered);
        let mut flash = std::mem::take(&mut self.mig_flash);
        debug_assert!(buffered.is_empty() && flash.is_empty());
        for &(lpa, old) in &job.pages {
            if self.pending_programs.contains(old.0 as usize) {
                buffered.push((lpa, old));
            } else {
                flash.push((lpa, old));
            }
        }
        let slot = self.alloc_migration(MigrationState {
            reads_pending: flash.len() as u32,
            writes_pending: 0,
            erase_issued: false,
            job,
            wear,
        });
        for &(lpa, old) in &buffered {
            self.relocate_page(now, slot, lpa, old);
        }
        for &(lpa, old) in &flash {
            let target = self.ftl.config().array.unpack(old);
            self.spawn_txn(now, read_kind, target, Some(lpa), None, slot);
        }
        buffered.clear();
        flash.clear();
        self.mig_buffered = buffered;
        self.mig_flash = flash;
        self.maybe_issue_erase(now, slot);
    }

    /// Remaps one migrated page and issues its program transaction, if the
    /// mapping is still current.
    fn relocate_page(&mut self, now: SimTime, slot: usize, lpa: u64, old: Gppa) {
        let wear = self.migrations[slot].as_ref().expect("active").wear;
        let dest = self
            .ftl
            .relocate(lpa, old, wear)
            .expect("relocation cannot run out of space");
        if let Some(new_gppa) = dest {
            self.pending_programs.insert(new_gppa.0 as usize);
            let target = self.ftl.config().array.unpack(new_gppa);
            let kind = if wear { TxnKind::WearWrite } else { TxnKind::GcWrite };
            self.spawn_txn(now, kind, target, Some(lpa), None, slot);
            self.migrations[slot].as_mut().expect("active").writes_pending += 1;
        }
    }

    fn on_migration_read_done(&mut self, now: SimTime, txn: Transaction, slot: usize) {
        debug_assert_ne!(slot, NO_MIGRATION, "migration txn");
        let lpa = txn.lpa.expect("migration read has an lpa");
        let old = self.ftl.config().array.pack(txn.target);
        self.migrations[slot].as_mut().expect("active").reads_pending -= 1;
        self.relocate_page(now, slot, lpa, old);
        self.maybe_issue_erase(now, slot);
    }

    fn on_migration_write_done(&mut self, now: SimTime, slot: usize) {
        debug_assert_ne!(slot, NO_MIGRATION, "migration txn");
        self.migrations[slot].as_mut().expect("active").writes_pending -= 1;
        self.maybe_issue_erase(now, slot);
    }

    fn maybe_issue_erase(&mut self, now: SimTime, slot: usize) {
        let ready = {
            let st = self.migrations[slot].as_ref().expect("active");
            st.reads_pending == 0 && st.writes_pending == 0 && !st.erase_issued
        };
        if ready {
            self.issue_migration_erase(now, slot);
        }
    }

    fn issue_migration_erase(&mut self, now: SimTime, slot: usize) {
        let (plane, block) = {
            let st = self.migrations[slot].as_mut().expect("active");
            st.erase_issued = true;
            (st.job.plane, st.job.block)
        };
        let target = self.ftl.config().array.page_at(plane, block, 0);
        let key = self.block_key(target);
        if self.block_users[key] > 0 {
            // Stale in-flight reads still target this block; erase when the
            // last one drains.
            self.blocked_erases.push((key, slot));
            return;
        }
        self.spawn_migration_erase(now, slot);
    }

    fn spawn_migration_erase(&mut self, now: SimTime, slot: usize) {
        let (plane, block, wear) = {
            let st = self.migrations[slot].as_ref().expect("active");
            (st.job.plane, st.job.block, st.wear)
        };
        let target = self.ftl.config().array.page_at(plane, block, 0);
        let kind = if wear { TxnKind::WearErase } else { TxnKind::GcErase };
        self.spawn_txn(now, kind, target, None, None, slot);
    }

    fn on_migration_erase_done(&mut self, now: SimTime, slot: usize) {
        debug_assert_ne!(slot, NO_MIGRATION, "migration txn");
        let st = self.migrations[slot].take().expect("active");
        self.free_migrations.push(slot);
        self.ftl.finish_erase(&st.job, st.wear);
        if st.wear {
            self.wear_job_active = false;
        } else {
            self.active_gc_planes[st.job.plane] = false;
        }
        self.erases_since_wear_check += 1;
        if self.erases_since_wear_check >= 32 {
            self.erases_since_wear_check = 0;
            self.check_wear(now);
        }
        // Freed space: resume throttled host writes in order.
        while let Some(&(req_id, lpa)) = self.throttled_writes.front() {
            if self.spawn_user_write(now, req_id, lpa) {
                self.throttled_writes.pop_front();
            } else {
                break;
            }
        }
        self.check_gc(now);
    }

    // ------------------------------------------------------------------
    // Wrap-up
    // ------------------------------------------------------------------

    fn finish(self, status: RunStatus) -> RunMetrics {
        let exec = self.last_completion.saturating_since(self.first_arrival);
        let exec_s = exec.as_secs_f64().max(1e-12);
        let chips: f64 = self.chips.iter().map(|c| c.stats().energy_nj).sum();
        let fabric_stats = self.fabric.stats();
        let standby_mw = self.config.energy.standby_mw * self.chips.len() as f64;
        let static_mw = self.config.static_power.controller_mw
            + self.config.static_power.dram_mw
            + standby_mw;
        let energy_mj =
            static_mw * exec_s + chips / 1e6 + fabric_stats.transfer_energy_nj / 1e6;
        // The ledger joined with the HIL's per-tenant back-pressure counts;
        // the run totals are its sums.
        let mut tenants = self.tenants;
        let mut latencies = LatencySamples::new();
        for (t, hil) in tenants.iter_mut().zip(self.hil.tenant_stats()) {
            t.backpressured = hil.backpressured;
            latencies.merge(&t.latencies);
        }
        let sum = |f: fn(&TenantMetrics) -> u64| tenants.iter().map(f).sum::<u64>();
        RunMetrics {
            system: self.kind,
            workload: self.trace.name().to_string(),
            config: self.config.name,
            policy: self.policy.kind(),
            scout_cache: self.config.fabric.scout_cache,
            completed_requests: sum(|t| t.completed),
            execution_time: exec,
            latencies,
            conflicted_requests: sum(|t| t.conflicted),
            energy_mj,
            avg_power_mw: energy_mj / exec_s,
            fabric: fabric_stats,
            ftl: self.ftl.stats(),
            hil: self.hil.stats(),
            dispatch: self.policy.stats(),
            transactions: self.spawned_txns,
            events: self.queue.scheduled_total(),
            end_time: self.last_completion,
            status,
            faults_injected: self.faults_injected,
            faults_active: self.faults_active,
            retried_ops: self.retried_ops,
            failed_requests: sum(|t| t.failed),
            resilience: self.config.resilience,
            deadline_misses: sum(|t| t.deadline_misses),
            host_retries: sum(|t| t.host_retries),
            shed_requests: sum(|t| t.shed),
            deadline_met_requests: sum(|t| t.deadline_met),
            redundancy: self.config.redundancy,
            degraded_reads: self.degraded_reads,
            rebuilt_pages: self.rebuilt_pages,
            rebuild_skipped_pages: self.rebuild_skipped_pages,
            rebuild_done_ns: self.rebuild_done.as_nanos(),
            data_loss_requests: sum(|t| t.data_loss),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RedundancyKind, ResiliencePolicy};
    use venice_nand::PageAddr;
    use venice_sim::SimDuration;
    use venice_workloads::WorkloadSpec;

    /// A one-page transaction target on `chip`.
    fn test_target(chip: u16) -> PhysicalPageAddr {
        PhysicalPageAddr { chip: ChipId(chip), addr: PageAddr::default() }
    }

    fn tiny_trace(requests: usize, read_pct: f64, interarrival_us: f64) -> Trace {
        WorkloadSpec::new("unit", read_pct, 8.0, interarrival_us)
            .footprint_mb(32)
            .generate(requests)
    }

    fn run(kind: FabricKind, trace: &Trace) -> RunMetrics {
        let cfg = SsdConfig::performance_optimized().sized_for_footprint(trace.footprint_bytes());
        SsdSim::new(cfg, kind, trace).run()
    }

    #[test]
    fn all_requests_complete_on_every_fabric() {
        let trace = tiny_trace(300, 70.0, 20.0);
        for kind in FabricKind::ALL {
            let m = run(kind, &trace);
            assert_eq!(m.completed_requests, 300, "{kind}");
            assert_eq!(m.latencies.len(), 300, "{kind}");
            assert!(m.execution_time > SimDuration::ZERO, "{kind}");
            assert!(m.events >= m.transactions, "{kind}");
        }
    }

    fn run_with_plan(kind: FabricKind, trace: &Trace, plan: FaultPlan) -> RunMetrics {
        let cfg = SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes())
            .with_fault_plan(plan);
        SsdSim::new(cfg, kind, trace).run()
    }

    #[test]
    fn every_fault_plan_drains_on_every_fabric() {
        // The degraded-mode invariant: no fault scenario hangs or panics,
        // and every request completes (possibly with error status).
        let trace = tiny_trace(200, 70.0, 10.0);
        for plan in FaultPlan::ALL {
            for kind in FabricKind::ALL {
                let m = run_with_plan(kind, &trace, plan);
                assert_eq!(m.status, RunStatus::Complete, "{plan} on {kind}");
                assert_eq!(m.completed_requests, 200, "{plan} on {kind}");
                if plan == FaultPlan::None {
                    assert_eq!(m.faults_injected, 0, "{kind}");
                    assert_eq!(m.failed_requests, 0, "{kind}");
                } else {
                    assert!(m.faults_injected > 0, "{plan} on {kind}");
                }
            }
        }
    }

    #[test]
    fn chip_death_degrades_availability_but_every_request_completes() {
        // Write-heavy so the round-robin allocator is guaranteed to place
        // pages on the chip that dies at t=20µs.
        let trace = tiny_trace(400, 0.0, 5.0);
        for kind in FabricKind::ALL {
            let m = run_with_plan(kind, &trace, FaultPlan::Chip);
            assert_eq!(m.completed_requests, 400, "{kind}");
            assert!(m.failed_requests > 0, "{kind}");
            assert!(m.availability() < 1.0, "{kind}");
            assert!(m.faults_active >= 1, "{kind}");
        }
    }

    #[test]
    fn link_repair_restores_service_that_a_permanent_fault_keeps_degraded() {
        // Baseline loses the whole row bus on a link fault; the repaired
        // variant only fails the requests inside the outage window.
        let trace = tiny_trace(400, 0.0, 5.0);
        let perm = run_with_plan(FabricKind::Baseline, &trace, FaultPlan::Link);
        let rep = run_with_plan(FabricKind::Baseline, &trace, FaultPlan::LinkRepair);
        assert!(perm.failed_requests > 0);
        assert_eq!(perm.faults_active, 1);
        assert_eq!(rep.faults_active, 0, "repair retires the active fault");
        assert!(rep.failed_requests <= perm.failed_requests);
        assert!(rep.availability() >= perm.availability());
    }

    #[test]
    fn transient_nand_errors_retry_and_still_complete() {
        let trace = tiny_trace(300, 0.0, 5.0);
        for kind in [FabricKind::Baseline, FabricKind::Venice] {
            let m = run_with_plan(kind, &trace, FaultPlan::TransientNand);
            assert_eq!(m.completed_requests, 300, "{kind}");
            assert!(m.retried_ops > 0, "{kind}");
            // Transient errors are absorbed by retry: nothing fails.
            assert_eq!(m.failed_requests, 0, "{kind}");
            assert_eq!(m.availability(), 1.0, "{kind}");
        }
    }

    #[test]
    fn watchdog_aborts_instead_of_running_forever() {
        let trace = tiny_trace(300, 70.0, 20.0);
        let cfg = SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes())
            .with_watchdog(Some(500), None);
        let m = SsdSim::new(cfg, FabricKind::Venice, &trace).run();
        assert_eq!(m.status, RunStatus::Aborted);
        assert!(m.completed_requests < 300, "the ceiling cut the run short");

        let cfg = SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes())
            .with_watchdog(None, Some(50_000));
        let m = SsdSim::new(cfg, FabricKind::Baseline, &trace).run();
        assert_eq!(m.status, RunStatus::Aborted);
    }

    #[test]
    fn fault_free_runs_are_bit_identical_with_the_fault_engine_compiled_in() {
        // FaultPlan::None schedules zero events and takes no fault branches:
        // the golden-hash contract depends on this.
        let trace = tiny_trace(300, 70.0, 20.0);
        for kind in FabricKind::ALL {
            let base = run(kind, &trace);
            let none = run_with_plan(kind, &trace, FaultPlan::None);
            assert_eq!(base.events, none.events, "{kind}");
            assert_eq!(base.execution_time, none.execution_time, "{kind}");
            assert_eq!(base.fabric, none.fabric, "{kind}");
        }
    }

    #[test]
    fn redundancy_off_runs_are_bit_identical_with_the_subsystem_compiled_in() {
        // RedundancyKind::None schedules zero rebuild ticks, takes no
        // degraded-read branches, and allocates identically: the
        // golden-hash contract depends on this, exactly like
        // FaultPlan::None and ResiliencePolicy::None.
        let trace = tiny_trace(300, 70.0, 20.0);
        for kind in FabricKind::ALL {
            let base = run(kind, &trace);
            let cfg = SsdConfig::performance_optimized()
                .sized_for_footprint(trace.footprint_bytes())
                .with_redundancy(RedundancyKind::None);
            let none = SsdSim::new(cfg, kind, &trace).run();
            assert_eq!(base.events, none.events, "{kind}");
            assert_eq!(base.execution_time, none.execution_time, "{kind}");
            assert_eq!(base.fabric, none.fabric, "{kind}");
            assert_eq!(none.degraded_reads, 0, "{kind}");
            assert_eq!(none.rebuilt_pages, 0, "{kind}");
            assert_eq!(none.rebuild_done_ns, 0, "{kind}");
            assert_eq!(none.data_loss_requests, 0, "{kind}");
        }
    }

    #[test]
    fn parity_rebuild_recovers_a_dead_chips_pages() {
        // FaultPlan::Chip fail-stops one chip at 20µs. Without redundancy,
        // reads of its pages are terminal data loss; with a parity group
        // armed, foreground reads reconstruct from the survivors and the
        // background rebuild remaps every page off the dead chip — zero
        // data loss and a finite MTTR. A 4×4 grid concentrates 1/16 of the
        // pages on the victim so saturating reads are guaranteed to land
        // in the rebuild window.
        let trace = WorkloadSpec::new("unit", 100.0, 8.0, 1.0)
            .footprint_mb(32)
            .generate(400);
        for kind in [FabricKind::Baseline, FabricKind::Venice] {
            let cfg = SsdConfig::performance_optimized()
                .with_mesh(4, 4)
                .sized_for_footprint(trace.footprint_bytes())
                .with_fault_plan(FaultPlan::Chip);
            let bare = SsdSim::new(cfg.clone(), kind, &trace).run();
            assert!(bare.data_loss_requests > 0, "{kind}: loss must bite bare");
            assert!(
                bare.data_loss_requests <= bare.failed_requests,
                "{kind}: data loss is a subset of failures"
            );
            assert_eq!(bare.rebuilt_pages, 0, "{kind}");

            let parity = SsdSim::new(
                cfg.with_redundancy(RedundancyKind::Parity { group: 4 }),
                kind,
                &trace,
            )
            .run();
            assert_eq!(parity.status, RunStatus::Complete, "{kind}");
            assert_eq!(parity.completed_requests, 400, "{kind}");
            assert_eq!(parity.data_loss_requests, 0, "{kind}: parity must cover");
            assert!(parity.rebuilt_pages > 0, "{kind}: rebuild must remap pages");
            assert!(
                parity.rebuild_done_ns > 20_000,
                "{kind}: MTTR endpoint after the 20µs fault, got {}",
                parity.rebuild_done_ns
            );
            assert!(parity.degraded_reads > 0, "{kind}: window reads reconstruct");
            assert!(
                parity.availability() >= bare.availability(),
                "{kind}: reconstruction cannot hurt availability"
            );
        }
    }

    #[test]
    fn deadline_classes_split_one_policy_deadline() {
        // The deadline-split tenant set gives the victim a tight latency
        // contract and frees the aggressor of any deadline while keeping
        // arbitration identical to pair_fair. Saturating the Baseline
        // fabric must breach the victim's 100µs contract, while the
        // deadline-free aggressor can never miss.
        use venice_hil::TenantSet;
        let trace = venice_workloads::mix::noisy_neighbor(400);
        let cfg = SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes())
            .with_tenants(TenantSet::deadline_split())
            .with_resilience(ResiliencePolicy::Deadline);
        let m = SsdSim::new(cfg, FabricKind::Baseline, &trace).run();
        assert_eq!(m.status, RunStatus::Complete);
        let victim = &m.tenants[0];
        let aggressor = &m.tenants[1];
        assert_eq!(victim.deadline_class, DeadlineClass::Latency);
        assert_eq!(aggressor.deadline_class, DeadlineClass::None);
        assert!(victim.deadline_misses > 0, "tight contract must breach");
        assert_eq!(aggressor.deadline_misses, 0, "deadline-free tenant cannot miss");
        assert_eq!(
            m.deadline_misses, victim.deadline_misses,
            "all misses belong to the victim"
        );
    }

    fn run_resilient(kind: FabricKind, trace: &Trace, policy: ResiliencePolicy) -> RunMetrics {
        let cfg = SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes())
            .with_resilience(policy);
        SsdSim::new(cfg, kind, trace).run()
    }

    #[test]
    fn resilience_off_runs_are_bit_identical_with_the_layer_compiled_in() {
        // ResiliencePolicy::None schedules zero events and takes no
        // admission/timeout/retry branches: the golden-hash contract
        // depends on this, exactly like FaultPlan::None.
        let trace = tiny_trace(300, 70.0, 20.0);
        for kind in FabricKind::ALL {
            let base = run(kind, &trace);
            let none = run_resilient(kind, &trace, ResiliencePolicy::None);
            assert_eq!(base.events, none.events, "{kind}");
            assert_eq!(base.execution_time, none.execution_time, "{kind}");
            assert_eq!(base.fabric, none.fabric, "{kind}");
            assert_eq!(none.deadline_misses, 0, "{kind}");
            assert_eq!(none.host_retries, 0, "{kind}");
            assert_eq!(none.shed_requests, 0, "{kind}");
            // With deadlines unarmed, every successful completion counts as
            // deadline-met, so goodput degenerates to successful IOPS.
            assert_eq!(
                none.deadline_met_requests,
                none.completed_requests - none.failed_requests,
                "{kind}"
            );
        }
    }

    #[test]
    fn deadlines_abort_requests_that_blow_past_them() {
        // Saturating random reads on the Baseline fabric: the p99 tail
        // (~340µs) blows past the 250µs preset deadline, so timeouts must
        // fire, abort at command boundaries, and complete the victims with
        // error status — without stranding anything.
        let trace = WorkloadSpec::new("unit", 100.0, 16.0, 1.0)
            .footprint_mb(32)
            .generate(800);
        let m = run_resilient(FabricKind::Baseline, &trace, ResiliencePolicy::Deadline);
        assert_eq!(m.status, RunStatus::Complete);
        assert_eq!(m.completed_requests, 800, "every request still completes");
        assert!(m.deadline_misses > 0, "saturation must breach the deadline");
        assert_eq!(m.failed_requests, m.deadline_misses, "misses are the only failures");
        assert_eq!(m.shed_requests, 0, "no admission control armed");
        assert_eq!(
            m.deadline_met_requests + m.deadline_misses,
            m.completed_requests,
            "completions partition into met and missed"
        );
        // A deadline-free run of the same trace sees no misses.
        let free = run(FabricKind::Baseline, &trace);
        assert_eq!(free.deadline_misses, 0);
    }

    #[test]
    fn retries_recover_deadline_misses_that_plain_deadlines_cannot() {
        // Saturating reads on the Baseline fabric: tail requests blow the
        // 250µs deadline. Plain deadlines go terminal with a miss; bounded
        // retry resubmits after backoff with a fresh window measured from
        // resubmission, so most second attempts land in time.
        let trace = WorkloadSpec::new("unit", 100.0, 16.0, 1.0)
            .footprint_mb(32)
            .generate(800);
        let dl = run_resilient(FabricKind::Baseline, &trace, ResiliencePolicy::Deadline);
        let dr = run_resilient(FabricKind::Baseline, &trace, ResiliencePolicy::DeadlineRetry);
        assert!(dl.deadline_misses > 0, "saturation must breach the deadline");
        assert!(dr.host_retries > 0, "timeouts must trigger resubmission");
        assert!(
            dr.deadline_misses < dl.deadline_misses,
            "retry must absorb some misses: {} vs {}",
            dr.deadline_misses,
            dl.deadline_misses
        );
        assert_eq!(dr.completed_requests, 800);
        assert!(dr.host_retries <= 3 * 800, "the per-request cap bounds total retries");
    }

    #[test]
    fn retries_remap_writes_off_a_dead_chip() {
        // FaultPlan::Chip fail-stops one chip at 20µs; writes mapped there
        // fail terminally without retry, but a host resubmission allocates
        // a fresh page through the round-robin allocator and usually lands
        // on a live plane — bounded retry recovers most victims.
        let trace = tiny_trace(400, 0.0, 5.0);
        let cfg = SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes())
            .with_fault_plan(FaultPlan::Chip);
        let bare = SsdSim::new(cfg.clone(), FabricKind::Baseline, &trace).run();
        let retry = SsdSim::new(
            cfg.with_resilience(ResiliencePolicy::Retry),
            FabricKind::Baseline,
            &trace,
        )
        .run();
        assert!(bare.failed_requests > 0, "chip death must bite");
        assert!(retry.host_retries > 0, "failures must trigger resubmission");
        assert!(
            retry.failed_requests < bare.failed_requests,
            "retry must recover some victims: {} vs {}",
            retry.failed_requests,
            bare.failed_requests
        );
        assert_eq!(retry.completed_requests, 400);
        assert!(retry.availability() > bare.availability());
    }

    #[test]
    fn overload_admission_sheds_and_preserves_the_partition_invariant() {
        // Saturating arrivals against the full layer: occupancy crosses the
        // high watermark, the decaying-max tail estimate exceeds the
        // deadline, and the admission policy starts shedding. Shed +
        // completed must still partition the trace (the run-end assert
        // enforces the same invariant internally).
        let trace = WorkloadSpec::new("unit", 100.0, 16.0, 0.5)
            .footprint_mb(32)
            .generate(800);
        let m = run_resilient(FabricKind::Baseline, &trace, ResiliencePolicy::Full);
        assert_eq!(m.status, RunStatus::Complete);
        assert!(m.shed_requests > 0, "overload must shed");
        assert_eq!(m.completed_requests + m.shed_requests, 800);
        assert!(m.deadline_met_requests > 0, "some requests still succeed");
        assert!(m.goodput() > 0.0);
        let by_tenant_shed: u64 = m.tenants.iter().map(|t| t.shed).sum();
        assert_eq!(by_tenant_shed, m.shed_requests);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let trace = WorkloadSpec::new("unit", 90.0, 16.0, 1.0)
            .footprint_mb(32)
            .generate(500);
        for policy in [ResiliencePolicy::DeadlineRetry, ResiliencePolicy::Full] {
            let a = run_resilient(FabricKind::Venice, &trace, policy);
            let b = run_resilient(FabricKind::Venice, &trace, policy);
            assert_eq!(a.execution_time, b.execution_time, "{policy}");
            assert_eq!(a.events, b.events, "{policy}");
            assert_eq!(a.deadline_misses, b.deadline_misses, "{policy}");
            assert_eq!(a.host_retries, b.host_retries, "{policy}");
            assert_eq!(a.shed_requests, b.shed_requests, "{policy}");
            assert_eq!(a.latencies, b.latencies, "{policy}");
        }
    }

    #[test]
    fn ideal_is_fastest_baseline_is_slowest_under_load() {
        // Saturating random reads: path conflicts dominate the baseline.
        let trace = WorkloadSpec::new("unit", 100.0, 16.0, 1.0)
            .footprint_mb(32)
            .generate(800);
        let base = run(FabricKind::Baseline, &trace);
        let venice = run(FabricKind::Venice, &trace);
        let ideal = run(FabricKind::Ideal, &trace);
        let v_speedup = venice.speedup_over(&base);
        let i_speedup = ideal.speedup_over(&base);
        assert!(i_speedup >= v_speedup, "ideal {i_speedup} vs venice {v_speedup}");
        assert!(v_speedup > 1.2, "venice speedup {v_speedup}");
    }

    #[test]
    fn ideal_has_zero_conflicts() {
        let trace = tiny_trace(400, 90.0, 5.0);
        let m = run(FabricKind::Ideal, &trace);
        assert_eq!(m.conflicted_requests, 0);
        assert_eq!(m.fabric.conflicts, 0);
    }

    #[test]
    fn venice_conflicts_far_below_baseline() {
        // The paper reports ~0.02% for Venice vs ~24% for Baseline; our
        // dispatcher's pessimistic first-try accounting (every queued
        // transfer is attempted each scheduling round) inflates absolute
        // numbers, but Venice must still resolve conflict-free decisively
        // more often than the Baseline.
        let trace = tiny_trace(600, 80.0, 5.0);
        let base = run(FabricKind::Baseline, &trace);
        let ven = run(FabricKind::Venice, &trace);
        assert!(
            ven.conflict_pct() < base.conflict_pct() * 0.8,
            "venice {} vs baseline {}",
            ven.conflict_pct(),
            base.conflict_pct()
        );
    }

    #[test]
    fn writes_trigger_gc_under_churn() {
        // Write-heavy with a small device: the cumulative writes exceed the
        // over-provisioned headroom, so the device must garbage collect.
        let trace = WorkloadSpec::new("churn", 5.0, 16.0, 8.0)
            .footprint_mb(64)
            .generate(4_000);
        let mut cfg = SsdConfig::performance_optimized();
        cfg.array.chip.blocks_per_plane = 8;
        cfg.array.chip.pages_per_block = 32;
        let m = SsdSim::new(cfg, FabricKind::Venice, &trace).run();
        assert!(m.ftl.gc_erases > 0, "GC never ran");
        assert!(m.ftl.write_amplification() > 1.0);
    }

    #[test]
    fn energy_accounting_is_positive_and_consistent() {
        let trace = tiny_trace(200, 50.0, 50.0);
        let m = run(FabricKind::Venice, &trace);
        assert!(m.energy_mj > 0.0);
        assert!(m.avg_power_mw > 0.0);
        let recomputed = m.energy_mj / m.execution_time.as_secs_f64();
        assert!((recomputed - m.avg_power_mw).abs() / m.avg_power_mw < 1e-6);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = tiny_trace(250, 60.0, 10.0);
        let a = run(FabricKind::Venice, &trace);
        let b = run(FabricKind::Venice, &trace);
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.conflicted_requests, b.conflicted_requests);
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn deep_queue_cannot_starve_row_neighbors_under_retry_all() {
        // Fairness regression for the dispatch_cursor rotation: chips 0..=3
        // share row 0's bus on the Baseline fabric. Chip 0 gets a deep
        // queue, its neighbors one transaction each. If rotation works, the
        // neighbors' singletons drain while chip 0's queue is still mostly
        // full; a dispatcher stuck at chip 0 would drain the hog first.
        let trace = WorkloadSpec::new("empty", 50.0, 8.0, 10.0)
            .footprint_mb(32)
            .generate(0);
        let cfg = SsdConfig::performance_optimized().sized_for_footprint(32 << 20);
        let mut sim = SsdSim::new(cfg, FabricKind::Baseline, &trace);
        let now = SimTime::ZERO;
        const HOG_DEPTH: usize = 40;
        for _ in 0..HOG_DEPTH {
            sim.spawn_txn(now, TxnKind::MapRead, test_target(0), Some(0), None, NO_MIGRATION);
        }
        for chip in 1..=3u16 {
            sim.spawn_txn(
                now,
                TxnKind::MapRead,
                test_target(chip),
                Some(0),
                None,
                NO_MIGRATION,
            );
        }
        let mut batch = Vec::new();
        let mut hog_left_when_neighbors_drained = None;
        while let Some(t) = sim.queue.pop_batch(&mut batch) {
            for ev in batch.drain(..) {
                sim.handle(t, ev);
            }
            if hog_left_when_neighbors_drained.is_none()
                && (1..=3u16).all(|c| sim.tsu.pending_for(c) == 0)
            {
                hog_left_when_neighbors_drained = Some(sim.tsu.pending_for(0));
            }
        }
        assert_eq!(sim.live_txns, 0, "all transactions must complete");
        let left = hog_left_when_neighbors_drained.expect("neighbors drained");
        assert!(
            left >= HOG_DEPTH - 10,
            "rotation must serve the neighbors early: hog still had {left} of \
             {HOG_DEPTH} queued when they drained"
        );
    }

    #[test]
    fn cached_fastfails_do_not_park_chips_under_backoff() {
        // Liveness regression for the scout fast-fail cache (extends the
        // PR 3 liveness-probe contract): under ConflictBackoff a chip
        // whose every walk fast-fails is only *deferred* — the policy's
        // probe rounds re-attempt it after the backoff window, a fast-fail
        // is charged exactly like a live failed walk (so backoff
        // accounting is unchanged), and any release intersecting the
        // cached extent invalidates the entry and re-runs the real walk.
        // Completion of every request under sustained congestion is the
        // no-permanent-suppression proof.
        use crate::DispatchPolicyKind;
        use venice_interconnect::ScoutCacheKind;

        let trace = venice_workloads::WorkloadAxis::congested().trace(150);
        let base = SsdConfig::performance_optimized()
            .with_mesh(16, 16)
            .with_dispatch_policy(DispatchPolicyKind::ConflictBackoff)
            .sized_for_footprint(trace.footprint_bytes());
        let cached = SsdSim::new(
            base.clone().with_scout_cache(ScoutCacheKind::On),
            FabricKind::Venice,
            &trace,
        )
        .run();
        assert_eq!(cached.completed_requests, 150, "no chip may strand");
        assert!(
            cached.dispatch.skipped_backoff > 0,
            "congestion must actually exercise backoff"
        );
        assert!(
            cached.fabric.scout_fastfails > 0,
            "congestion must actually exercise the fast-fail path"
        );
        assert!(
            cached.fabric.scout_cache_invalidations > 0,
            "releases must invalidate intersecting entries"
        );
        // And the cache changes nothing the simulation can observe: the
        // uncached run completes identically.
        let uncached = SsdSim::new(base, FabricKind::Venice, &trace).run();
        assert_eq!(cached.execution_time, uncached.execution_time);
        assert_eq!(cached.latencies, uncached.latencies);
        assert_eq!(cached.dispatch, uncached.dispatch);
        assert_eq!(cached.fabric.conflicts, uncached.fabric.conflicts);
    }

    #[test]
    fn pssd_beats_baseline_on_transfer_bound_reads() {
        let trace = WorkloadSpec::new("bigreads", 100.0, 64.0, 4.0)
            .footprint_mb(64)
            .generate(400);
        let cfg = |_k| SsdConfig::performance_optimized()
            .sized_for_footprint(trace.footprint_bytes());
        let base = SsdSim::new(cfg(()), FabricKind::Baseline, &trace).run();
        let pssd = SsdSim::new(cfg(()), FabricKind::Pssd, &trace).run();
        assert!(pssd.speedup_over(&base) > 1.05);
    }
}
