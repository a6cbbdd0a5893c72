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
//! — the paper's experimental design.
//!
//! This module runs the host side, transactions, GC and wear leveling; the
//! submodules `dispatch`, `faults`, `host` (resilience) and `rain` each own
//! their part's state. Faults, host resilience and RAIN are `Option` fields
//! that are `None` when their preset is off: an unarmed subsystem holds no
//! state, schedules no event and costs one `Option` test where consulted.
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
//! (same-instant event batches, the dispatcher's chip lists) are reused
//! across events.

use std::collections::VecDeque;

use venice_ftl::{
    Ftl, FtlConfig, Gppa, MappingCache, MigrationJob, RequestId, Transaction,
    TransactionScheduler, TxnId, TxnKind,
};
use venice_hil::{HostInterface, HostRequest};
use venice_interconnect::{build_fabric, Fabric, FabricKind, FcId, PathGrant};
use venice_nand::{FlashChip, NandCommandKind, PhysicalPageAddr};
use venice_sim::stats::LatencySamples;
use venice_sim::{DenseBitSet, EventQueue, SimDuration, SimTime};
use venice_workloads::{IoOp, Trace};

use crate::{FaultAction, RunMetrics, RunStatus, SsdConfig, TenantMetrics};

mod dispatch;
mod faults;
mod host;
mod rain;

use dispatch::Dispatcher;
use faults::Faults;
use host::{Admission, Retry, Verdict};
use rain::Rain;

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
    /// A scripted fault-plan action fires (see `crate::FaultPlan`).
    Fault(FaultAction),
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
#[derive(Clone, Copy, Default)]
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
    /// routing casualty (counted in the tenant's `data_loss`).
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
pub struct SsdSim<'a> {
    config: SsdConfig,
    kind: FabricKind,
    /// The trace being replayed, borrowed for the whole run.
    trace: &'a Trace,
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
    /// Scratch for `check_gc`'s snapshot of the planes below threshold.
    gc_planes: Vec<usize>,
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
    last_completion: SimTime,

    dispatch: Dispatcher,
    faults: Option<Faults>,
    /// Per-attempt deadline, measured from each attempt's submission.
    deadline: Option<SimDuration>,
    retry: Option<Retry>,
    admission: Option<Admission>,
    rain: Option<Rain>,
}

impl<'a> SsdSim<'a> {
    /// Builds a simulator for one `(config, fabric, trace)` triple. The SSD
    /// is preconditioned to steady state: every logical page is mapped and
    /// the chips' write pointers mirror the FTL's block fills.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SsdConfig::validate`]) or the trace footprint exceeds the logical
    /// space.
    pub fn new(config: SsdConfig, kind: FabricKind, trace: &'a Trace) -> Self {
        config.validate();
        let logical_pages = config.logical_pages_for(trace.footprint_bytes().max(1));
        let physical = config.array.total_pages();
        assert!(
            logical_pages < physical,
            "trace footprint ({logical_pages} pages) must fit under physical \
             capacity ({physical} pages); call sized_for_footprint first"
        );
        let mut ftl = Ftl::new(FtlConfig::new(config.array, logical_pages));
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
        // Bucket width auto-tuned so tPROG completions stay in the wheel
        // tier (ROADMAP perf follow-up (b)); pop order is width-independent.
        let mut queue = EventQueue::with_bucket_ns(config.wheel_bucket_ns());
        if let Some(first) = trace.events().first() {
            queue.schedule(first.arrival, Event::Arrival(0));
        }
        let (deadline, retry, admission) = host::arm(&config);
        let fabric = build_fabric(kind, config.fabric);
        SsdSim {
            dispatch: Dispatcher::new(&config, kind, fabric.release_scope(FcId(0)).is_some()),
            fabric,
            chips,
            cmt: MappingCache::covering(logical_pages, entries_per_tp),
            tsu: TransactionScheduler::new(chip_count),
            hil: HostInterface::with_tenants(config.hil, config.tenants.clone()),
            requests: vec![ReqState::default(); trace.len()],
            stalled_arrival: None,
            txns: Vec::new(),
            free_txns: Vec::new(),
            spawned_txns: 0,
            data_pending: (0..chip_count).map(|_| VecDeque::new()).collect(),
            die_busy: vec![false; chip_count * dies_per_chip],
            migrations: Vec::new(),
            free_migrations: Vec::new(),
            active_gc_planes: vec![false; total_planes],
            gc_planes: Vec::new(),
            block_users: vec![0; total_blocks],
            blocked_erases: Vec::new(),
            pending_programs: DenseBitSet::with_capacity(physical as usize),
            throttled_writes: VecDeque::new(),
            tenants: config.tenants.specs().iter().map(TenantMetrics::new).collect(),
            deferred_fetches: 0,
            last_completion: SimTime::ZERO,
            faults: Faults::new(&config, &mut queue),
            queue,
            deadline,
            retry,
            admission,
            rain: Rain::new(&config),
            ftl,
            trace,
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
            let rain_idle =
                self.rain.as_ref().is_none_or(|r| r.rebuild.is_none() && r.queued.is_empty());
            assert!(
                self.tsu.is_empty()
                    && self.txns.len() == self.free_txns.len()
                    && self.stalled_arrival.is_none()
                    && self.throttled_writes.is_empty()
                    && rain_idle,
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
            Event::Fault(action) => self.on_fault(now, action),
            Event::HostTimeout(r) => self.on_host_timeout(now, r),
            Event::HostResubmit(r) => self.on_host_resubmit(now, r),
            Event::RebuildTick => self.on_rebuild_tick(now),
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
        (txn, migration)
    }

    // ------------------------------------------------------------------
    // Host side
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, index: usize) {
        // Trace tags beyond the configured tenant count clamp to the last
        // tenant, so a single-tenant config merges any tagged trace back
        // into one stream (the bit-identical default path).
        let tenant = usize::from(self.trace.tenant_of(index)).min(self.config.tenants.len() - 1);
        let req = self.host_request(index, tenant as u8, now);
        self.submit_arrival(now, req, index);
    }

    /// Trace record `index` as an unstamped host request of `tenant`.
    fn host_request(&self, index: usize, tenant: u8, arrival: SimTime) -> HostRequest {
        let e = self.trace.events()[index];
        let (op, offset, bytes) = (e.op, e.offset, e.bytes);
        HostRequest { id: index as u64, tenant, arrival, op, offset, bytes, deadline: None }
    }

    /// Offers trace record `index` to the device at `now`, on arrival or
    /// when a stall resumes: admission, then submission stamped with `now`
    /// and its tenant's deadline. A deferred or rejected submission stalls
    /// the host, so the rest of the trace shifts by however long it waits.
    fn submit_arrival(&mut self, now: SimTime, mut req: HostRequest, index: usize) {
        let tenant = usize::from(req.tenant);
        let verdict = self.admission_verdict(tenant);
        if verdict == Verdict::Shed {
            // Terminal outcome *shed*: the request never enters the device.
            // `completed + shed` partitions the trace.
            let st = &mut self.requests[index];
            debug_assert!(!st.done, "double terminal outcome for request {index}");
            st.done = true;
            self.tenants[tenant].shed += 1;
            self.schedule_next_arrival(now, index);
            return;
        }
        req.arrival = now;
        req.deadline = self.deadline_for(tenant).map(|d| now + d);
        if verdict == Verdict::Accept && self.hil.submit(req) {
            self.after_submit(now, req);
            self.schedule_next_arrival(now, index);
        } else {
            // A full queue stalls the host; overload backpressure (a
            // deferred verdict) behaves exactly like one.
            self.stalled_arrival = Some((req, index));
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
            self.post_completion(now, req.id);
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
                    if self.chip_dead(chip) {
                        let media_dead = self.faults.as_ref().is_some_and(|f| f.media_dead[chip]);
                        // Degraded read: with RAIN armed, fan reconstruction
                        // reads out to the surviving parity-group members
                        // through the normal TSU/fabric path; the controller
                        // XORs them (free in this timing model).
                        if let Some(set) = self.spawn_degraded_read(now, lpa, req.id, target) {
                            if set.lost && media_dead {
                                // Even parity cannot recover the page, and
                                // the primary's own media died: data loss.
                                data_loss = true;
                            } else if set.lost || set.blocked() {
                                // A survivor is transiently unreadable, or
                                // the primary merely sits behind a fabric
                                // fault with its data intact: a routing
                                // casualty a retry may yet reconstruct.
                                transient_loss = true;
                            } else {
                                txns += set.targets.len() as u32;
                            }
                            continue;
                        }
                        // No redundancy: the read rides to dispatch and fails
                        // there, *classified* as data loss when the die itself
                        // is gone. A chip that is merely unreachable (fabric
                        // blast radius) keeps its data — that failure stays a
                        // routing casualty.
                        data_loss |= media_dead;
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
            self.post_completion(now, req.id);
        }
        self.check_gc(now);
        self.schedule_dispatch(now);
    }

    /// Allocates and issues one host-write page; returns false when the FTL
    /// is out of unreserved space and the write must be throttled.
    fn spawn_user_write(&mut self, now: SimTime, req_id: u64, lpa: u64) -> bool {
        match self.ftl.allocate_write(lpa) {
            Ok(gppa) => {
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
        // The cache covers the whole logical space and mapping updates stay
        // in DRAM: nothing is evicted or written back.
        self.cmt.fill(lpa);
    }

    fn on_request_done(&mut self, now: SimTime, req_id: u64) {
        let st = &mut self.requests[req_id as usize];
        debug_assert!(st.live, "request {req_id} not tracked");
        st.live = false;
        let st = *st;
        let tenant = usize::from(st.tenant);
        self.hil.complete(req_id, now);
        // Bounded host retry: a failed or timed-out attempt resubmits after
        // backoff instead of going terminal, while cap and budget allow.
        // The freed queue slot still re-arms deferred fetches and stalled
        // arrivals.
        if (st.failed || st.timed_out) && self.try_schedule_retry(now, req_id, tenant) {
            self.rearm_after_completion(now);
            return;
        }
        // Terminal outcome classification: exactly one per request.
        let latency = now.saturating_since(st.arrival);
        let t = &mut self.tenants[tenant];
        t.latencies.record(latency);
        t.completed += 1;
        t.conflicted += u64::from(st.conflicted);
        if st.timed_out {
            // Deadline miss: an error completion — counted against
            // availability like a device failure.
            t.deadline_misses += 1;
            t.failed += 1;
        } else if st.failed {
            // Failed after retries (with retry off, every device failure
            // is terminal immediately). The request reached the host with
            // error status; it still counts as completed (the calendar
            // drained it) but not as available. With `data_loss` it is
            // data loss: the failure is durability, not routing — the
            // page's only copy sat on a dead chip with nothing to
            // reconstruct it from (a subset of failures).
            t.failed += 1;
            t.data_loss += u64::from(st.data_loss);
        } else if st.deadline_at == SimTime::ZERO || now <= st.deadline_at {
            // Success with the deadline met (or unarmed): the goodput
            // numerator.
            t.deadline_met += 1;
        }
        let done = &mut self.requests[req_id as usize].done;
        debug_assert!(!*done, "double terminal outcome for request {req_id}");
        *done = true;
        if let Some(retry) = &mut self.retry {
            retry.settle(tenant, st.attempts);
        }
        if let Some(admission) = &mut self.admission {
            admission.record_latency(latency.as_nanos());
        }
        self.last_completion = self.last_completion.max(now);
        self.rearm_after_completion(now);
    }

    /// Posts request `id`'s completion after the firmware latency.
    fn post_completion(&mut self, now: SimTime, id: u64) {
        let at = now + self.config.hil.completion_latency;
        self.queue.schedule(at, Event::RequestDone(id));
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
    ) {
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
        self.spawned_txns += 1;
        if kind.is_read() || kind.is_write() {
            let key = self.block_key(target);
            self.block_users[key] += 1;
        }
        self.tsu.enqueue(txn, now);
        self.dispatch
            .sleepers
            .wake_command(usize::from(target.chip.0));
        self.schedule_dispatch(now);
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

    /// Frees the die `p` is on and wakes its chip's die sleeper.
    fn free_die(&mut self, p: PhysicalPageAddr) {
        let die = self.die_key(p);
        self.die_busy[die] = false;
        self.dispatch.sleepers.wake_die(usize::from(p.chip.0));
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

    /// Completes a transaction with error status: the owning request (if
    /// any) is marked failed but still completes, and migration bookkeeping
    /// advances normally — a degraded run must never strand the calendar.
    fn fail_txn(&mut self, now: SimTime, txn_id: TxnId) {
        let slot = self.slot(txn_id);
        if slot.phase == Phase::Queued && slot.txn.kind.is_write() {
            // A program that never reached the array still used up the
            // page its FTL allocated: the programs behind it on the same
            // block must pass it once the chip answers again.
            let target = slot.txn.target;
            self.chips[usize::from(target.chip.0)].abandon_program(target.addr);
        }
        let (txn, migration) = self.free_txn(txn_id);
        if let Some(req) = txn.request {
            let st = &mut self.requests[req.0 as usize];
            st.failed |= st.live;
        }
        self.complete_txn(now, txn, migration);
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
            .start(kind, txn.target.addr, now)
            .unwrap_or_else(|e| panic!("chip rejected {txn:?}: {e}"));
        self.queue.schedule(done, Event::ChipOpDone(txn_id));
        self.schedule_dispatch(now);
    }

    fn on_chip_op_done(&mut self, now: SimTime, txn_id: TxnId) {
        let inf = self.slot(txn_id);
        let txn = inf.txn;
        let chip = usize::from(txn.target.chip.0);
        if self.chip_dead(chip) || self.txn_aborted(txn.request) {
            // The chip died, or the owner's deadline fired, mid-array-op:
            // fail-stop at the command boundary. The op's result is lost and
            // the die frees for the next transaction.
            self.free_die(txn.target);
            self.fail_txn(now, txn_id);
            self.schedule_dispatch(now);
            return;
        }
        if !txn.kind.is_read() && self.faults.as_mut().is_some_and(|f| f.take_transient(chip)) {
            // Transient program/erase failure: retry in place. The die stays
            // claimed and the command is NOT re-issued to the chip model
            // (that would violate program ordering); the bounded retry costs
            // one more array-op time on the calendar.
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
            self.data_pending[chip].push_back(txn_id);
            self.dispatch.data_ready.insert(chip);
        } else {
            self.free_die(txn.target);
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
        self.free_die(txn.target);
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
                    self.post_completion(now, req.0);
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
            TxnKind::MapRead => {}
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection and wear leveling
    // ------------------------------------------------------------------

    /// Starts GC on every plane below threshold without one running, from
    /// a snapshot taken first, in ascending plane order: a plane that a
    /// relocation started here pushes under threshold waits for the next
    /// check.
    fn check_gc(&mut self, now: SimTime) {
        let mut planes = std::mem::take(&mut self.gc_planes);
        self.ftl.planes_needing_gc_into(&mut planes);
        for &plane in &planes {
            if self.active_gc_planes[plane] {
                continue;
            }
            if let Some(job) = self.ftl.start_gc(plane) {
                self.active_gc_planes[plane] = true;
                self.start_migration(now, job, false);
            }
        }
        self.gc_planes = planes;
    }

    fn check_wear(&mut self, now: SimTime) {
        // One wear-leveling migration at a time.
        if self.migrations.iter().flatten().any(|m| m.wear) {
            return;
        }
        if let Some(job) = self.ftl.check_wear_leveling() {
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
        // the write buffer first; the rest need a flash read. Relocation
        // programs only pages outside the victim block, so a page's side
        // of the split holds across both passes (no clone of `job.pages`).
        let buffered = |s: &Self, old: Gppa| s.pending_programs.contains(old.0 as usize);
        let reads = job.pages.iter().filter(|&&(_, old)| !buffered(self, old)).count();
        let pages = job.pages.len();
        let slot = self.alloc_migration(MigrationState {
            reads_pending: reads as u32,
            writes_pending: 0,
            erase_issued: false,
            job,
            wear,
        });
        for from_flash in [false, true] {
            for i in 0..pages {
                let (lpa, old) = self.migrations[slot].as_ref().expect("active").job.pages[i];
                if buffered(self, old) == from_flash {
                    continue;
                }
                if from_flash {
                    let target = self.ftl.config().array.unpack(old);
                    self.spawn_txn(now, read_kind, target, Some(lpa), None, slot);
                } else {
                    self.relocate_page(now, slot, lpa, old);
                }
            }
        }
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
        let st = self.migrations[slot].as_mut().expect("active");
        if st.reads_pending > 0 || st.writes_pending > 0 || st.erase_issued {
            return;
        }
        st.erase_issued = true;
        let target = self.ftl.config().array.page_at(st.job.plane, st.job.block, 0);
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
        let st = self.migrations[slot].as_ref().expect("active");
        let target = self.ftl.config().array.page_at(st.job.plane, st.job.block, 0);
        let kind = if st.wear { TxnKind::WearErase } else { TxnKind::GcErase };
        self.spawn_txn(now, kind, target, None, None, slot);
    }

    fn on_migration_erase_done(&mut self, now: SimTime, slot: usize) {
        debug_assert_ne!(slot, NO_MIGRATION, "migration txn");
        let st = self.migrations[slot].take().expect("active");
        self.free_migrations.push(slot);
        self.ftl.finish_erase(&st.job, st.wear);
        if !st.wear {
            self.active_gc_planes[st.job.plane] = false;
        }
        // Wear leveling is checked every 32 migration erases.
        let ftl = self.ftl.stats();
        if (ftl.gc_erases + ftl.wear_erases).is_multiple_of(32) {
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
        let first_arrival = self.trace.events().first().map_or(SimTime::ZERO, |e| e.arrival);
        let exec = self.last_completion.saturating_since(first_arrival);
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
        let (faults, rain) = (self.faults.as_ref(), self.rain.as_ref());
        RunMetrics {
            system: self.kind,
            workload: self.trace.name().to_string(),
            config: self.config.name,
            policy: self.dispatch.policy.kind(),
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
            dispatch: self.dispatch.policy.stats(),
            transactions: self.spawned_txns,
            events: self.queue.scheduled_total(),
            end_time: self.last_completion,
            status,
            faults_injected: faults.map_or(0, |f| f.injected),
            faults_active: faults.map_or(0, |f| f.active),
            retried_ops: faults.map_or(0, |f| f.retried_ops),
            failed_requests: sum(|t| t.failed),
            resilience: self.config.resilience,
            deadline_misses: sum(|t| t.deadline_misses),
            host_retries: sum(|t| t.host_retries),
            shed_requests: sum(|t| t.shed),
            deadline_met_requests: sum(|t| t.deadline_met),
            redundancy: self.config.redundancy,
            degraded_reads: rain.map_or(0, |r| r.degraded_reads),
            rebuilt_pages: rain.map_or(0, |r| r.rebuilt_pages),
            rebuild_skipped_pages: rain.map_or(0, |r| r.skipped_pages),
            rebuild_done_ns: rain.map_or(0, |r| r.done_at.as_nanos()),
            data_loss_requests: sum(|t| t.data_loss),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, RedundancyKind, ResiliencePolicy};
    use venice_hil::DeadlineClass;
    use venice_nand::{ChipId, PageAddr};
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
    fn the_default_preset_arms_no_optional_subsystem() {
        // Off is a type: the paper's preset leaves every optional subsystem
        // `None`, so none of them holds state or schedules an event.
        let trace = tiny_trace(300, 70.0, 20.0);
        let cfg = SsdConfig::performance_optimized().sized_for_footprint(trace.footprint_bytes());
        let sim = SsdSim::new(cfg, FabricKind::Venice, &trace);
        assert!(sim.faults.is_none());
        assert!(sim.deadline.is_none());
        assert!(sim.retry.is_none());
        assert!(sim.admission.is_none());
        assert!(sim.rain.is_none());
        for kind in FabricKind::ALL {
            let m = run(kind, &trace);
            assert_eq!(m.faults_injected, 0, "{kind}");
            assert_eq!(m.degraded_reads, 0, "{kind}");
            assert_eq!(m.rebuilt_pages, 0, "{kind}");
            assert_eq!(m.rebuild_done_ns, 0, "{kind}");
            assert_eq!(m.data_loss_requests, 0, "{kind}");
            assert_eq!(m.deadline_misses, 0, "{kind}");
            assert_eq!(m.host_retries, 0, "{kind}");
            assert_eq!(m.shed_requests, 0, "{kind}");
            // With deadlines unarmed, every successful completion counts as
            // deadline-met, so goodput degenerates to successful IOPS.
            assert_eq!(
                m.deadline_met_requests,
                m.completed_requests - m.failed_requests,
                "{kind}"
            );
        }
    }

    #[test]
    fn armed_but_idle_subsystems_change_nothing_but_their_label() {
        // With no fault plan, parity never reconstructs and retry never
        // resubmits: each armed run must equal the default run in every
        // `RunMetrics` field except the subsystem's own label.
        let trace = tiny_trace(300, 70.0, 20.0);
        for kind in FabricKind::ALL {
            let base = run(kind, &trace);
            let cfg =
                SsdConfig::performance_optimized().sized_for_footprint(trace.footprint_bytes());
            let mut parity = SsdSim::new(
                cfg.clone().with_redundancy(RedundancyKind::Parity { group: 4 }),
                kind,
                &trace,
            )
            .run();
            assert_eq!(parity.redundancy, RedundancyKind::Parity { group: 4 }, "{kind}");
            parity.redundancy = base.redundancy;
            assert_eq!(parity, base, "{kind}: idle parity");
            let mut retry =
                SsdSim::new(cfg.with_resilience(ResiliencePolicy::Retry), kind, &trace).run();
            assert_eq!(retry.resilience, ResiliencePolicy::Retry, "{kind}");
            retry.resilience = base.resilience;
            assert_eq!(retry, base, "{kind}: idle retry");
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
        // Fairness regression for the dispatch cursor rotation: chips 0..=3
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
        assert_eq!(sim.txns.len(), sim.free_txns.len(), "all transactions must complete");
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
