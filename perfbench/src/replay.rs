//! Layer replays: each layer's public functions called directly, with
//! inputs derived from the workload's trace, timed from outside.
//!
//! The engine's own call counts (from `RunMetrics`) times a replay's cost
//! per call estimates the layer's share of `SsdSim::run`. The replays are
//! not the engine's call sequence, so `main` prints their call counts next
//! to the engine's to show how far each estimate can be trusted.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use venice_ftl::{Ftl, FtlConfig, MappingCache, Transaction, TransactionScheduler, TxnId, TxnKind};
use venice_hil::{HostInterface, HostRequest};
use venice_interconnect::{build_fabric, NodeId};
use venice_nand::PhysicalPageAddr;
use venice_sim::rng::Xorshift64Star;
use venice_sim::{EventQueue, SimDuration, SimTime};
use venice_ssd::SsdConfig;
use venice_workloads::{IoOp, Trace};

use crate::spans::Recorder;

/// Transactions the TSU replay keeps queued before draining a round.
const TSU_WINDOW: usize = 64;
/// Events the calendar replay keeps pending.
const CALENDAR_PENDING: u64 = 64;

/// Fabric-independent replays of one trace: FTL, CMT, TSU and HIL.
#[derive(Clone, Debug, Default)]
pub struct TraceReplay {
    /// `Ftl::new` + `precondition`, seconds.
    pub precondition_s: f64,
    /// `translate_read` calls and their seconds.
    pub reads: u64,
    pub read_s: f64,
    /// `allocate_write` calls and their seconds, GC included.
    pub writes: u64,
    pub write_s: f64,
    /// CMT lookups, hits, and the seconds of lookup plus fill.
    pub cmt_lookups: u64,
    pub cmt_hits: u64,
    pub cmt_s: f64,
    /// TSU enqueues plus pops, and their seconds.
    pub tsu_ops: u64,
    pub tsu_s: f64,
    /// Requests driven through the HIL and their seconds.
    pub hil_requests: u64,
    pub hil_s: f64,
    /// Target chip of each page, in trace order (the fabric replay's input).
    pub chips: Vec<u16>,
}

/// Replays one point's calendar and fabric.
#[derive(Clone, Debug, Default)]
pub struct PointReplay {
    /// Events scheduled (and popped) by the calendar replay, and seconds.
    pub calendar_events: u64,
    pub calendar_s: f64,
    /// `try_acquire` calls that succeeded / failed, and their seconds.
    pub acquire_ok: u64,
    pub acquire_ok_s: f64,
    pub acquire_fail: u64,
    pub acquire_fail_s: f64,
    /// `transfer` + `release` pairs and their seconds.
    pub releases: u64,
    pub release_s: f64,
    /// Scout steps the replay's own fabric walked.
    pub scout_steps: u64,
}

/// The FTL configuration `SsdSim::new` derives for this config and trace.
fn ftl_config(cfg: &SsdConfig, trace: &Trace) -> FtlConfig {
    let logical_pages = cfg.logical_pages_for(trace.footprint_bytes().max(1));
    let spare_blocks_per_plane = (cfg.array.total_pages() - logical_pages)
        / u64::from(cfg.array.chip.pages_per_block)
        / u64::from(cfg.array.total_planes());
    FtlConfig {
        array: cfg.array,
        logical_pages,
        gc_threshold_blocks: (spare_blocks_per_plane / 2).clamp(1, 4) as u32,
        wear_delta_threshold: 64,
    }
}

/// Runs the fabric-independent replays for `trace` under `cfg` (sized for
/// the trace), recording one span per layer call sequence.
pub fn replay_trace(rec: &mut Recorder, cfg: &SsdConfig, trace: &Trace) -> TraceReplay {
    let mut out = TraceReplay::default();
    let page = cfg.page_bytes();
    let fc = ftl_config(cfg, trace);
    // (lpa, is_write) per page, split the way the engine splits requests.
    let pages: Vec<(u64, bool)> = trace
        .events()
        .iter()
        .flat_map(|e| {
            let first = e.offset / page;
            let last = (e.offset + u64::from(e.bytes).max(1) - 1) / page;
            (first..=last.min(fc.logical_pages - 1)).map(move |lpa| (lpa, e.op == IoOp::Write))
        })
        .collect();

    let span = rec.enter("ftl.precondition", None);
    let mut ftl = Ftl::new(fc);
    black_box(ftl.precondition());
    out.precondition_s = rec.exit(span);

    let targets: Vec<PhysicalPageAddr> = pages
        .iter()
        .map(|&(lpa, _)| fc.array.unpack(ftl.translate(lpa).expect("preconditioned")))
        .collect();
    out.chips = targets.iter().map(|t| t.chip.0).collect();

    let span = rec.enter("ftl.translate_read", None);
    for &(lpa, _) in pages.iter().filter(|p| !p.1) {
        black_box(ftl.translate_read(lpa).expect("lpa in range"));
    }
    out.read_s = rec.exit(span);
    out.reads = pages.iter().filter(|p| !p.1).count() as u64;

    let span = rec.enter("ftl.cmt_lookup", None);
    let mut cmt = MappingCache::covering(fc.logical_pages, page / 8);
    for &(lpa, _) in &pages {
        if !cmt.lookup(lpa) {
            black_box(cmt.fill(lpa));
        }
    }
    out.cmt_s = rec.exit(span);
    let stats = cmt.stats();
    (out.cmt_lookups, out.cmt_hits) = (stats.hits + stats.misses, stats.hits);

    let txns: Vec<Transaction> = pages
        .iter()
        .zip(&targets)
        .enumerate()
        .map(|(i, (&(lpa, write), &target))| Transaction {
            id: TxnId(i as u64),
            kind: if write {
                TxnKind::UserWrite
            } else {
                TxnKind::UserRead
            },
            target,
            lpa: Some(lpa),
            request: None,
        })
        .collect();
    let span = rec.enter("ftl.tsu", None);
    let mut tsu = TransactionScheduler::new(usize::from(cfg.array.chips));
    let mut busy = Vec::new();
    let mut pops = 0u64;
    for (i, &txn) in txns.iter().enumerate() {
        tsu.enqueue(txn, SimTime::from_nanos(i as u64));
        while tsu.pending() >= TSU_WINDOW || (i + 1 == txns.len() && !tsu.is_empty()) {
            tsu.busy_chips_into(&mut busy);
            for &chip in &busy {
                black_box(tsu.pop(chip));
                pops += 1;
            }
        }
    }
    out.tsu_s = rec.exit(span);
    out.tsu_ops = txns.len() as u64 + pops;

    let span = rec.enter("ftl.allocate_write", None);
    for &(lpa, _) in pages.iter().filter(|p| p.1) {
        let gppa = loop {
            match ftl.allocate_write(lpa) {
                Ok(g) => break Some(g),
                Err(_) if collect_garbage(&mut ftl, None) => {}
                Err(_) => break None,
            }
        };
        if let Some(g) = gppa {
            let plane = fc.array.plane_index(fc.array.unpack(g));
            if ftl.needs_gc(plane) {
                collect_garbage(&mut ftl, Some(plane));
            }
        }
    }
    out.write_s = rec.exit(span);
    out.writes = pages.iter().filter(|p| p.1).count() as u64;

    let span = rec.enter("hil.submit_fetch_complete", None);
    out.hil_requests = replay_hil(cfg, trace);
    out.hil_s = rec.exit(span);
    out
}

/// Erases one victim block per plane that needs GC (only `plane`, when
/// given), relocating its valid pages first. Returns whether any block was
/// erased.
fn collect_garbage(ftl: &mut Ftl, plane: Option<usize>) -> bool {
    let planes = match plane {
        Some(p) => vec![p],
        None => ftl.planes_needing_gc(),
    };
    let mut erased = false;
    for p in planes {
        if let Some(job) = ftl.start_gc(p) {
            for &(lpa, old) in &job.pages {
                black_box(ftl.relocate(lpa, old, false).expect("GC reserve block"));
            }
            ftl.finish_erase(&job, false);
            erased = true;
        }
    }
    erased
}

/// Submits every trace request, fetching and completing to make room, with
/// up to one queue depth of fetched requests outstanding. Returns the
/// number of requests driven through.
fn replay_hil(cfg: &SsdConfig, trace: &Trace) -> u64 {
    let mut hil = HostInterface::with_tenants(cfg.hil, cfg.tenants.clone());
    let last_tenant = (cfg.tenants.len() - 1) as u8;
    let mut inflight = VecDeque::new();
    // Fetch one entry; complete the oldest once more than a queue depth is
    // outstanding, or when nothing was fetchable (empty queues, or every
    // queued tenant at its cap).
    let retire = |hil: &mut HostInterface, inflight: &mut VecDeque<u64>, now| {
        let fetched = hil.fetch();
        if let Some(r) = fetched {
            inflight.push_back(r.id);
        }
        if fetched.is_none() || inflight.len() > cfg.hil.queue_depth {
            if let Some(id) = inflight.pop_front() {
                hil.complete(id, now);
            }
        }
    };
    for (i, e) in trace.events().iter().enumerate() {
        let req = HostRequest {
            id: i as u64,
            tenant: trace.tenant_of(i).min(last_tenant),
            arrival: e.arrival,
            op: e.op,
            offset: e.offset,
            bytes: e.bytes,
            deadline: None,
        };
        while !hil.submit(req) {
            retire(&mut hil, &mut inflight, e.arrival);
        }
        retire(&mut hil, &mut inflight, e.arrival);
    }
    while hil.queued() > 0 || !inflight.is_empty() {
        retire(&mut hil, &mut inflight, SimTime::ZERO);
    }
    black_box(hil.stats());
    trace.len() as u64
}

/// Cost of one `Instant::now()` + `elapsed()` pair, subtracted from each
/// per-call fabric sample.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..N {
        black_box(Instant::now().elapsed());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Replays `events` calendar operations at the point's bucket width (see
/// [`replay_calendar`]) into `out`.
pub fn replay_point_calendar(
    rec: &mut Recorder,
    point: usize,
    cfg: &SsdConfig,
    events: u64,
    seed: u64,
    out: &mut PointReplay,
) {
    let span = rec.enter("sim.calendar", Some(point));
    out.calendar_events = replay_calendar(cfg, events, seed);
    out.calendar_s = rec.exit(span);
}

/// Replays the point's fabric over the trace's target chips, one acquire
/// attempt per page, with half its controllers' worth of grants
/// outstanding, into `out`.
pub fn replay_point_fabric(
    rec: &mut Recorder,
    point: usize,
    cfg: &SsdConfig,
    kind: venice_interconnect::FabricKind,
    chips: &[u16],
    timer_ns: f64,
    out: &mut PointReplay,
) {
    let span = rec.enter("interconnect.acquire_release", Some(point));
    let mut fabric = build_fabric(kind, cfg.fabric);
    // Half the controllers busy: loaded enough for conflicts, without
    // pinning every walk against a saturated mesh.
    let outstanding = (fabric.controller_count() / 2).max(1);
    let mut grants = VecDeque::new();
    let page = cfg.page_bytes();
    let sample = |t: Instant| (t.elapsed().as_nanos() as f64 - timer_ns).max(0.0) * 1e-9;
    for &chip in chips {
        let t = Instant::now();
        let result = fabric.try_acquire(NodeId(chip));
        let dt = sample(t);
        let failed = result.is_err();
        match result {
            Ok(grant) => {
                out.acquire_ok += 1;
                out.acquire_ok_s += dt;
                let t = Instant::now();
                black_box(fabric.transfer(&grant, page));
                out.release_s += sample(t);
                grants.push_back(grant);
            }
            Err(_) => {
                out.acquire_fail += 1;
                out.acquire_fail_s += dt;
            }
        }
        // A failure frees the oldest grant so the replay keeps moving.
        if grants.len() > outstanding || (failed && !grants.is_empty()) {
            let grant = grants.pop_front().expect("non-empty");
            let t = Instant::now();
            black_box(fabric.release(grant));
            out.release_s += sample(t);
            out.releases += 1;
        }
    }
    while let Some(grant) = grants.pop_front() {
        fabric.release(grant);
    }
    out.scout_steps = fabric.stats().scout_steps;
    rec.exit(span);
}

/// Schedules and pops `events` events, keeping [`CALENDAR_PENDING`]
/// pending; each pop schedules its successor at a same-instant, bus-scale,
/// read-scale or program-scale delay. Returns the events scheduled.
fn replay_calendar(cfg: &SsdConfig, events: u64, seed: u64) -> u64 {
    let mut rng = Xorshift64Star::new(seed ^ 0xca1e_dada);
    let (t_r, t_prog) = (cfg.timing.t_r.as_nanos(), cfg.timing.t_prog.as_nanos());
    let mut delay = move || match rng.next_u64() % 8 {
        0 | 1 => 0,
        2..=4 => 50 + rng.next_u64() % 500,
        5 | 6 => t_r,
        _ => t_prog,
    };
    let mut q = EventQueue::<u64>::with_bucket_ns(cfg.wheel_bucket_ns());
    let mut scheduled = 0;
    while scheduled < events.min(CALENDAR_PENDING) {
        q.schedule(SimTime::ZERO + SimDuration::from_nanos(delay()), scheduled);
        scheduled += 1;
    }
    let mut batch = Vec::new();
    while let Some(now) = q.pop_batch(&mut batch) {
        for ev in batch.drain(..) {
            black_box(ev);
            if scheduled < events {
                q.schedule(now + SimDuration::from_nanos(delay()), scheduled);
                scheduled += 1;
            }
        }
    }
    scheduled
}
