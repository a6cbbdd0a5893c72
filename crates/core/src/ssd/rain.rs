//! RAIN in the engine: degraded reads of dead chips' pages and the
//! background rebuild (the parity model is in `crate::redundancy`).

use venice_nand::ChipId;

use super::*;
use crate::redundancy::{
    REBUILD_BURST, REBUILD_MAX_JOBS, REBUILD_RATE, REBUILD_RETRY_LIMIT, REBUILD_SCAN_BATCH,
    REBUILD_TICK,
};
use crate::RedundancyKind;

/// The state of armed redundancy: the rebuilds and the RAIN counters.
#[derive(Default)]
pub(super) struct Rain {
    /// The parity-group layout.
    scheme: RedundancyKind,
    /// The active rebuild, if a permanent chip death armed one.
    pub(super) rebuild: Option<Rebuild>,
    /// Permanently dead chips waiting behind the running rebuild.
    pub(super) queued: VecDeque<usize>,
    /// A [`Event::RebuildTick`] is on the calendar (at most one at a
    /// time).
    tick_armed: bool,
    /// Foreground reads served by parity reconstruction instead of the
    /// dead chip (one per reconstructed page read).
    pub(super) degraded_reads: u64,
    /// Dead-chip pages reconstructed and remapped by the rebuild engine.
    pub(super) rebuilt_pages: u64,
    /// Dead-chip pages the rebuild engine had to give up on: no
    /// parity-group survivor was spawnable when the job launched (peers
    /// media-dead, unreachable behind a fabric fault, or migration-busy).
    /// Non-zero means the recovery is incomplete — the pages stay mapped
    /// to the dead chip and a later foreground read still classifies them.
    pub(super) skipped_pages: u64,
    /// Instant the last rebuild drained (ZERO = none ran); MTTR is this
    /// minus the fault-injection time.
    pub(super) done_at: SimTime,
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

/// The background rebuild engine for one dead chip. One chip rebuilds at
/// a time — later permanent deaths queue behind it in [`Rain`] — mirroring
/// a real RAID controller's serialized rebuild.
#[derive(Default)]
pub(super) struct Rebuild {
    /// The dead chip being rebuilt.
    chip: usize,
    /// Scan cursor over the logical address space: pages mapped to the
    /// dead chip are pushed onto [`Rebuild::staged`] as they are found.
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
pub(super) struct SurvivorSet {
    /// Spawnable reconstruction-read targets (peers that never wrote the
    /// mirrored block are absent — XOR with an erased page is free).
    pub(super) targets: Vec<PhysicalPageAddr>,
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
    pub(super) lost: bool,
}

impl SurvivorSet {
    /// True when a media-alive survivor is unreadable right now: XOR
    /// reconstruction needs the complete set, so one blocked peer blocks
    /// the whole page.
    pub(super) fn blocked(&self) -> bool {
        self.severed > 0 || self.migrating > 0
    }
}

/// `lpa`'s physical page while its mapping still points at `chip`.
fn copy_on(ftl: &Ftl, lpa: u64, chip: usize) -> Option<Gppa> {
    ftl.translate(lpa)
        .filter(|g| usize::from(ftl.config().array.unpack(*g).chip.0) == chip)
}

impl Rain {
    /// The redundancy `config` arms, if any.
    pub(super) fn new(config: &SsdConfig) -> Option<Rain> {
        let scheme = config.redundancy;
        scheme.is_armed().then(|| Rain { scheme, ..Rain::default() })
    }

    /// The rebuild a tick serves; the tick stays armed while one runs.
    fn tick_target(&mut self) -> Option<&mut Rebuild> {
        self.tick_armed = self.rebuild.is_some();
        self.rebuild.as_mut()
    }
}

impl Rebuild {
    /// Before a tick's launches: refill the token bucket, re-stage parked
    /// pages, and scan the next batch of pages still on the dead chip.
    fn tick(&mut self, ftl: &Ftl) {
        self.tokens = (self.tokens + REBUILD_RATE).min(REBUILD_BURST);
        // Re-stage last tick's blocked pages first: their blockers have
        // had a tick to clear, and queue order retries them before fresh
        // scan output claims the tokens.
        self.staged.extend(self.deferred.drain(..));
        let logical = ftl.logical_pages();
        for _ in 0..REBUILD_SCAN_BATCH {
            if self.scan_done || self.next_lpa >= logical {
                self.scan_done = true;
                break;
            }
            let lpa = self.next_lpa;
            self.next_lpa += 1;
            if copy_on(ftl, lpa, self.chip).is_some() {
                // Deferred (never dropped) while the job cap or the token
                // bucket is exhausted.
                self.staged.push_back(lpa);
            }
        }
    }

    /// The next staged page, paying a token, while tokens and slots last.
    fn next_launch(&mut self) -> Option<u64> {
        if self.tokens == 0 || self.jobs.len() >= REBUILD_MAX_JOBS {
            return None;
        }
        let lpa = self.staged.pop_front()?;
        self.tokens -= 1;
        Some(lpa)
    }
}

impl SsdSim<'_> {
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
    /// `lost` — XOR cannot reconstruct around a missing member. `None`
    /// without RAIN.
    fn survivor_targets(&self, dead: PhysicalPageAddr) -> Option<SurvivorSet> {
        let rain = self.rain.as_ref()?;
        let mut set =
            SurvivorSet { targets: Vec::new(), severed: 0, migrating: 0, lost: false };
        for peer in rain.scheme.survivors(dead.chip.0, self.config.fabric.cols) {
            let c = usize::from(peer);
            let wp = self.chips[c].write_pointer(dead.addr);
            if wp == 0 {
                continue; // never wrote the block: no contribution needed
            }
            if self.faults.as_ref().is_some_and(|f| f.media_dead[c]) {
                set.lost = true;
                continue;
            }
            if self.chip_dead(c) {
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
        Some(set)
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
    /// the whole attempt — partial fan-outs would decode garbage. Returns
    /// the survivor set, or `None` without RAIN.
    pub(super) fn spawn_degraded_read(
        &mut self,
        now: SimTime,
        lpa: u64,
        req_id: u64,
        dead: PhysicalPageAddr,
    ) -> Option<SurvivorSet> {
        let set = self.survivor_targets(dead)?;
        if set.lost || set.blocked() {
            return Some(set);
        }
        self.rain_mut().degraded_reads += 1;
        for &target in &set.targets {
            self.spawn_txn(now, TxnKind::UserRead, target, Some(lpa), Some(req_id), NO_MIGRATION);
        }
        Some(set)
    }

    /// Arms the background rebuild of a permanently dead `chip` (a no-op
    /// without RAIN), queueing behind an active rebuild: one chip rebuilds
    /// at a time, like a real RAID controller's serialized rebuild.
    pub(super) fn start_rebuild(&mut self, now: SimTime, chip: usize) {
        let Some(rain) = &mut self.rain else {
            return;
        };
        if rain.rebuild.as_ref().is_some_and(|r| r.chip == chip) || rain.queued.contains(&chip) {
            return; // already rebuilding / queued (overlapping scripts)
        }
        if rain.rebuild.is_some() {
            rain.queued.push_back(chip);
            return;
        }
        rain.rebuild = Some(Rebuild { chip, tokens: REBUILD_BURST, ..Rebuild::default() });
        if !std::mem::replace(&mut rain.tick_armed, true) {
            self.queue.schedule(now + REBUILD_TICK, Event::RebuildTick);
        }
    }

    /// One pacing quantum of the rebuild engine: refill the token bucket,
    /// advance the scan of the logical space (staging dead-chip pages),
    /// and launch reconstruction jobs while tokens and job slots last. The
    /// tick re-arms itself only while a rebuild is active, so a finished
    /// rebuild stops touching the calendar.
    pub(super) fn on_rebuild_tick(&mut self, now: SimTime) {
        let Some(rebuild) = self.rain.as_mut().and_then(Rain::tick_target) else {
            return;
        };
        rebuild.tick(&self.ftl);
        let chip = rebuild.chip;
        while let Some(lpa) = self.rain.as_mut().and_then(|r| r.rebuild.as_mut()?.next_launch()) {
            self.launch_rebuild_job(now, chip, lpa);
        }
        self.maybe_finish_rebuild(now);
        if self.rain.as_mut().and_then(Rain::tick_target).is_some() {
            self.queue.schedule(now + REBUILD_TICK, Event::RebuildTick);
        }
        self.schedule_dispatch(now);
    }

    /// Launches one reconstruction job for a staged logical page of the
    /// dead `chip`. Pages remapped since the scan staged them (host
    /// overwrite, GC) need nothing; buffer-resident pages skip straight to
    /// the remapped write; the rest spawn one low-priority
    /// [`TxnKind::RebuildRead`] per contributing group member. Strict
    /// parity: a page whose survivor set is short a *transiently*
    /// unreadable member re-stages with bounded attempts
    /// ([`REBUILD_RETRY_LIMIT`]) — each retry costs a token, so the pacing
    /// bucket bounds the churn — and a page short a *destroyed* member (or
    /// out of attempts) is skipped and counted in `skipped_pages`. The
    /// rebuild always drains, and a foreground read classifies any true
    /// loss.
    fn launch_rebuild_job(&mut self, now: SimTime, chip: usize, lpa: u64) {
        let Some(gppa) = copy_on(&self.ftl, lpa, chip) else {
            return;
        };
        if self.pending_programs.contains(gppa.0 as usize) {
            // The lost copy's program never landed but its data is still in
            // the controller's write buffer: rebuild without touching the
            // survivors.
            let jobs = &mut self.rebuild().jobs;
            jobs.push(RebuildJob { lpa, reads_pending: 0 });
            let job = jobs.len() - 1;
            self.launch_rebuild_write(now, job);
            return;
        }
        let dead = self.ftl.config().array.unpack(gppa);
        let set = self.survivor_targets(dead).expect("rebuilds imply RAIN");
        let rain = self.rain_mut();
        if set.lost {
            // Overlapping deaths destroyed a group member: the page stays
            // mapped to the dead chip and the recovery is incomplete.
            rain.skipped_pages += 1;
            return;
        }
        let r = rain.rebuild.as_mut().expect("rebuild active");
        if set.severed > 0 {
            // A media-alive survivor sits behind a fabric fault that may
            // never heal: defer rather than reconstruct from a partial
            // set, up to REBUILD_RETRY_LIMIT tick-spaced attempts so a
            // permanent severance cannot stall the drain.
            let i = r.retries.iter().position(|(l, _)| *l == lpa).unwrap_or_else(|| {
                r.retries.push((lpa, 0));
                r.retries.len() - 1
            });
            if r.retries[i].1 >= REBUILD_RETRY_LIMIT {
                r.retries.swap_remove(i);
                rain.skipped_pages += 1;
            } else {
                r.retries[i].1 += 1;
                r.deferred.push(lpa);
            }
            return;
        }
        if set.migrating > 0 {
            // A survivor's plane hosts an active migration. Migrations are
            // finite and GC quiesces once writes drain, so parking the
            // page until the next tick always terminates — no bounded
            // attempt is burned on a blocker that is guaranteed to clear.
            r.deferred.push(lpa);
            return;
        }
        r.retries.retain(|(l, _)| *l != lpa);
        r.jobs.push(RebuildJob { lpa, reads_pending: set.targets.len() as u32 });
        if set.targets.is_empty() {
            // Every contribution was an erased page: the content
            // reconstructs without touching flash — write it straight out.
            let job = r.jobs.len() - 1;
            self.launch_rebuild_write(now, job);
            return;
        }
        for target in set.targets {
            self.spawn_txn(now, TxnKind::RebuildRead, target, Some(lpa), None, NO_MIGRATION);
        }
    }

    /// A reconstruction read arrived (or fail-drained — the bookkeeping
    /// must advance either way so `kill_chip` drains never strand a job):
    /// when the last one lands, the reconstructed page is written back out.
    pub(super) fn on_rebuild_read_done(&mut self, now: SimTime, txn: Transaction) {
        let lpa = txn.lpa.expect("rebuild read has an lpa");
        let rebuild = self.rebuild();
        let idx = rebuild
            .jobs
            .iter()
            .position(|j| j.lpa == lpa)
            .expect("rebuild read has a job");
        rebuild.jobs[idx].reads_pending -= 1;
        if rebuild.jobs[idx].reads_pending == 0 {
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
        let rebuild = self.rebuild();
        let (lpa, chip) = (rebuild.jobs[job_idx].lpa, rebuild.chip);
        if copy_on(&self.ftl, lpa, chip).is_none() {
            // Remapped while its reconstruction reads were in flight
            // (host overwrite): nothing left to rebuild.
            self.rebuild().jobs.swap_remove(job_idx);
            self.maybe_finish_rebuild(now);
            return;
        }
        let attempts = self.config.array.total_planes().max(1);
        let mut dest = None;
        for _ in 0..attempts {
            match self.ftl.allocate_write(lpa) {
                Ok(gppa) => {
                    let target = self.ftl.config().array.unpack(gppa);
                    if !self.chip_dead(usize::from(target.chip.0)) {
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
                let rebuild = self.rebuild();
                rebuild.jobs.swap_remove(job_idx);
                rebuild.staged.push_back(lpa);
                self.check_gc(now);
            }
        }
    }

    /// A remapped rebuild write landed (or fail-drained): the page is
    /// rebuilt and its job retires.
    pub(super) fn on_rebuild_write_done(&mut self, now: SimTime, txn: Transaction) {
        let lpa = txn.lpa.expect("rebuild write has an lpa");
        let rebuild = self.rebuild();
        let idx = rebuild
            .jobs
            .iter()
            .position(|j| j.lpa == lpa && j.reads_pending == 0)
            .expect("rebuild write has a job");
        rebuild.jobs.swap_remove(idx);
        self.rain_mut().rebuilt_pages += 1;
        self.maybe_finish_rebuild(now);
        self.check_gc(now);
    }

    /// Retires a drained rebuild (recording the MTTR endpoint) and starts
    /// the next queued chip, if any.
    fn maybe_finish_rebuild(&mut self, now: SimTime) {
        let rain = self.rain_mut();
        let drained = rain.rebuild.as_ref().is_some_and(|r| {
            r.scan_done && r.jobs.is_empty() && r.deferred.is_empty() && r.staged.is_empty()
        });
        if !drained {
            return;
        }
        rain.rebuild = None;
        rain.done_at = now;
        if let Some(chip) = rain.queued.pop_front() {
            self.start_rebuild(now, chip);
        }
    }

    fn rain_mut(&mut self) -> &mut Rain {
        self.rain.as_mut().expect("RAIN work implies armed redundancy")
    }

    fn rebuild(&mut self) -> &mut Rebuild {
        self.rain_mut().rebuild.as_mut().expect("rebuild work implies an active rebuild")
    }
}
