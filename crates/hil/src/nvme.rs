//! NVMe-style multi-queue submission/completion model with tenant-aware
//! weighted-round-robin arbitration.

use std::collections::VecDeque;

use venice_sim::{SimDuration, SimTime};
use venice_workloads::IoOp;

use crate::tenant::TenantSet;

/// One host I/O request as seen at the device boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostRequest {
    /// Host-assigned request id, unique per run. Ids index a dense
    /// per-request slot inside [`HostInterface`], so number requests from
    /// zero without gaps (trace indices do).
    pub id: u64,
    /// Tenant (namespace) the request belongs to; index into the host
    /// interface's [`TenantSet`]. `0` on the single-tenant default path.
    pub tenant: u8,
    /// Arrival time at the submission queue doorbell.
    pub arrival: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset into the logical space.
    pub offset: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Optional completion deadline (absolute simulation time), stamped at
    /// admission by the host resilience policy: past it, the device aborts
    /// the command at the next command boundary. `None` — the default-path
    /// value — means the request never times out.
    pub deadline: Option<SimTime>,
}

/// HIL configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HilConfig {
    /// Number of submission queues exposed to the host (NVMe exposes many;
    /// 8 matches the multi-queue setups MQSim models).
    pub queues: usize,
    /// Per-queue depth; a full queue back-pressures the submitter.
    pub queue_depth: usize,
    /// Firmware latency to fetch and decode one submission entry.
    pub submission_latency: SimDuration,
    /// Firmware latency to post one completion entry.
    pub completion_latency: SimDuration,
}

impl Default for HilConfig {
    fn default() -> Self {
        HilConfig {
            queues: 8,
            queue_depth: 8,
            submission_latency: SimDuration::from_nanos(500),
            completion_latency: SimDuration::from_nanos(300),
        }
    }
}

/// Cumulative HIL statistics (global, and one per tenant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HilStats {
    /// Requests accepted into a submission queue.
    pub submitted: u64,
    /// Requests rejected because their queue was full (host back-pressure).
    pub backpressured: u64,
    /// Requests fetched by the FTL.
    pub fetched: u64,
    /// Completions posted.
    pub completed: u64,
}

/// The host interface: multiple submission queues partitioned across
/// tenants (namespaces), arbitrated by weighted round-robin with
/// per-tenant in-flight caps.
///
/// Tenant `t` of `T` owns the contiguous queue range `[t·Q/T, (t+1)·Q/T)`;
/// within a range, fetches rotate round-robin exactly like the pre-tenancy
/// arbiter. Across ranges, the arbiter grants each tenant `weight` fetch
/// credits per cycle and skips tenants at their queue-depth cap. With one
/// tenant (the default) every step degenerates to the original global
/// round-robin — the golden-hash tests pin this bit-for-bit.
///
/// The HIL is a passive data structure — the SSD core decides *when* to
/// fetch (charging [`HilConfig::submission_latency`]) and when to complete.
#[derive(Clone, Debug)]
pub struct HostInterface {
    config: HilConfig,
    tenants: TenantSet,
    queues: Vec<VecDeque<HostRequest>>,
    /// Slots held per queue: a slot is occupied from submission until the
    /// matching completion is posted (the host sees queue_depth outstanding
    /// commands at most — how trace replay against a real device behaves).
    occupied: Vec<usize>,
    /// The queue each in-flight request was fetched from, plus one (zero
    /// when not in flight), indexed by request id and grown on demand.
    inflight_queue: Vec<u32>,
    /// Queue-range starts: tenant `t` owns `[range_start[t], range_start[t+1])`.
    range_start: Vec<usize>,
    /// Per-tenant round-robin cursor (absolute queue index in the tenant's
    /// range).
    cursor: Vec<usize>,
    /// WRR arbitration: the tenant currently holding credits.
    active: usize,
    /// Fetch credits the active tenant has left this cycle.
    credits: u32,
    stats: HilStats,
    tenant_stats: Vec<HilStats>,
    last_completion: SimTime,
}

impl HostInterface {
    /// Creates an idle host interface with the given tenant set. Queues are
    /// partitioned into contiguous per-tenant ranges.
    ///
    /// # Panics
    ///
    /// Panics if `queues` or `queue_depth` is zero, or if there are more
    /// tenants than queues (every tenant needs at least one queue).
    pub fn with_tenants(config: HilConfig, tenants: TenantSet) -> Self {
        assert!(config.queues > 0, "need at least one submission queue");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let t = tenants.len();
        assert!(
            t <= config.queues,
            "{t} tenants need {t} queues but only {} are configured",
            config.queues
        );
        let range_start: Vec<usize> = (0..=t).map(|i| i * config.queues / t).collect();
        let cursor = range_start[..t].to_vec();
        let credits = tenants.specs()[0].weight;
        HostInterface {
            queues: (0..config.queues).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; config.queues],
            inflight_queue: Vec::new(),
            range_start,
            cursor,
            active: 0,
            credits,
            tenant_stats: vec![HilStats::default(); t],
            tenants,
            config,
            stats: HilStats::default(),
            last_completion: SimTime::ZERO,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> HilStats {
        self.stats
    }

    /// Per-tenant statistics so far, indexed by tenant id.
    pub fn tenant_stats(&self) -> &[HilStats] {
        &self.tenant_stats
    }

    /// Requests fetched but not yet completed.
    pub fn inflight(&self) -> u64 {
        self.stats.fetched - self.stats.completed
    }

    /// In-flight requests of one tenant (what the queue-depth cap bounds).
    pub fn tenant_inflight(&self, tenant: usize) -> u64 {
        self.tenant_stats[tenant].fetched - self.tenant_stats[tenant].completed
    }

    /// Total entries currently queued (not yet fetched).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Time of the most recent completion (simulation end marker).
    pub fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// The contiguous queue range `[start, end)` owned by a tenant.
    pub fn queue_range(&self, tenant: usize) -> (usize, usize) {
        (self.range_start[tenant], self.range_start[tenant + 1])
    }

    /// Submission-side occupancy of a tenant's namespace: slots held across
    /// its queue range, from submission until the matching completion posts
    /// (queued *and* in-flight requests). This is what the overload
    /// admission policy's watermarks are measured against.
    pub fn tenant_outstanding(&self, tenant: usize) -> usize {
        let (start, end) = self.queue_range(tenant);
        self.occupied[start..end].iter().sum()
    }

    /// Total submission capacity of a tenant's namespace: its queue range
    /// length × the per-queue depth (the denominator of the admission
    /// watermark percentages).
    pub fn namespace_capacity(&self, tenant: usize) -> usize {
        let (start, end) = self.queue_range(tenant);
        (end - start) * self.config.queue_depth
    }

    /// Which submission queue a request lands in: its tenant picks the
    /// namespace's queue range; hashing the offset picks the queue within
    /// the range (NVMe hosts typically bind queues to submitting cores —
    /// this models multiple submitters over partitioned data). With one
    /// tenant the range is every queue and the mapping is the pre-tenancy
    /// global hash.
    pub fn queue_of(&self, req: &HostRequest) -> usize {
        let (start, end) = self.queue_range(usize::from(req.tenant));
        start + (req.offset / (1 << 21)) as usize % (end - start)
    }

    /// Places a request into its submission queue. Returns `false` (and
    /// counts back-pressure against the request's tenant) when the queue
    /// has no free slot — slots stay occupied until the matching completion
    /// posts.
    pub fn submit(&mut self, req: HostRequest) -> bool {
        let t = usize::from(req.tenant);
        let q = self.queue_of(&req);
        if self.occupied[q] >= self.config.queue_depth {
            self.stats.backpressured += 1;
            self.tenant_stats[t].backpressured += 1;
            return false;
        }
        self.occupied[q] += 1;
        self.queues[q].push_back(req);
        self.stats.submitted += 1;
        self.tenant_stats[t].submitted += 1;
        true
    }

    /// Round-robin fetch within one tenant's queue range; respects the
    /// tenant's queue-depth cap.
    fn fetch_from(&mut self, tenant: usize) -> Option<HostRequest> {
        let cap = self.tenants.specs()[tenant].qd_cap;
        if cap != 0 && self.tenant_inflight(tenant) >= u64::from(cap) {
            return None;
        }
        let (start, end) = self.queue_range(tenant);
        let len = end - start;
        for probe in 0..len {
            let q = start + (self.cursor[tenant] - start + probe) % len;
            if let Some(req) = self.queues[q].pop_front() {
                self.cursor[tenant] = start + (q - start + 1) % len;
                self.stats.fetched += 1;
                self.tenant_stats[tenant].fetched += 1;
                let id = req.id as usize;
                if id >= self.inflight_queue.len() {
                    self.inflight_queue.resize(id + 1, 0);
                }
                debug_assert_eq!(self.inflight_queue[id], 0, "request {id} fetched twice");
                self.inflight_queue[id] = q as u32 + 1;
                return Some(req);
            }
        }
        None
    }

    /// Weighted-round-robin fetch of the next submission entry, if any.
    ///
    /// The active tenant spends one credit per fetch; when its credits run
    /// out — or it has nothing fetchable (empty range or at its cap) — the
    /// arbiter moves to the next tenant with a fresh `weight` grant. Every
    /// tenant is offered at most once per call, so `None` means no tenant
    /// has a fetchable entry (all queues empty, or every queued tenant is
    /// at its cap).
    pub fn fetch(&mut self) -> Option<HostRequest> {
        let t = self.tenants.len();
        for _ in 0..t {
            if self.credits == 0 {
                self.active = (self.active + 1) % t;
                self.credits = self.tenants.specs()[self.active].weight;
            }
            if let Some(req) = self.fetch_from(self.active) {
                self.credits -= 1;
                return Some(req);
            }
            // Nothing fetchable: forfeit the rest of this tenant's cycle.
            self.credits = 0;
        }
        None
    }

    /// Posts a completion for a fetched request, releasing its queue slot
    /// and its tenant's in-flight slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight (never fetched, or completed
    /// already).
    pub fn complete(&mut self, id: u64, now: SimTime) {
        assert!(self.inflight() > 0, "completion without in-flight request");
        let slot = self.inflight_queue.get_mut(id as usize).filter(|q| **q > 0);
        let q = std::mem::take(slot.unwrap_or_else(|| panic!("request {id} is not in flight")));
        let q = q as usize - 1;
        // The owner is the last tenant whose queue range starts at or below q.
        let t = self.range_start.partition_point(|&start| start <= q) - 1;
        debug_assert!(self.occupied[q] > 0);
        self.occupied[q] -= 1;
        self.tenant_stats[t].completed += 1;
        self.stats.completed += 1;
        self.last_completion = self.last_completion.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantSpec;

    /// An idle single-tenant host interface.
    fn single(config: HilConfig) -> HostInterface {
        HostInterface::with_tenants(config, TenantSet::single())
    }

    fn req(id: u64, offset: u64) -> HostRequest {
        treq(id, 0, offset)
    }

    fn treq(id: u64, tenant: u8, offset: u64) -> HostRequest {
        HostRequest {
            id,
            tenant,
            arrival: SimTime::ZERO,
            op: IoOp::Read,
            offset,
            bytes: 4096,
            deadline: None,
        }
    }

    #[test]
    fn submit_fetch_complete_roundtrip() {
        let mut hil = single(HilConfig::default());
        assert!(hil.submit(req(1, 0)));
        assert_eq!(hil.queued(), 1);
        let r = hil.fetch().unwrap();
        assert_eq!(r.id, 1);
        assert_eq!(hil.inflight(), 1);
        hil.complete(1, SimTime::from_micros(5));
        assert_eq!(hil.inflight(), 0);
        assert_eq!(hil.last_completion(), SimTime::from_micros(5));
    }

    #[test]
    fn full_queue_backpressures() {
        let mut hil = single(HilConfig {
            queues: 1,
            queue_depth: 2,
            ..HilConfig::default()
        });
        assert!(hil.submit(req(1, 0)));
        assert!(hil.submit(req(2, 0)));
        assert!(!hil.submit(req(3, 0)));
        assert_eq!(hil.stats().backpressured, 1);
    }

    #[test]
    fn round_robin_across_queues() {
        let mut hil = single(HilConfig {
            queues: 4,
            ..HilConfig::default()
        });
        // Spread over 4 different 2 MiB regions → 4 different queues.
        for i in 0..4u64 {
            assert!(hil.submit(req(i, i * (1 << 21))));
        }
        let mut queues_seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let r = hil.fetch().unwrap();
            queues_seen.insert(hil.queue_of(&r));
        }
        assert_eq!(queues_seen.len(), 4, "arbiter must visit all queues");
    }

    #[test]
    fn fetch_from_empty_is_none() {
        let mut hil = single(HilConfig::default());
        assert!(hil.fetch().is_none());
    }

    #[test]
    #[should_panic(expected = "without in-flight")]
    fn double_completion_panics() {
        let mut hil = single(HilConfig::default());
        hil.complete(1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn double_completion_panics_while_other_requests_are_in_flight() {
        let mut hil = single(HilConfig::default());
        assert!(hil.submit(req(1, 0)));
        assert!(hil.submit(req(2, 0)));
        assert_eq!(hil.fetch().map(|r| r.id), Some(1));
        assert_eq!(hil.fetch().map(|r| r.id), Some(2));
        hil.complete(1, SimTime::ZERO);
        hil.complete(1, SimTime::ZERO);
    }

    // ------------------------------------------------------------------
    // Tenancy
    // ------------------------------------------------------------------

    fn pair(w_victim: u32, w_aggr: u32, cap_aggr: u32) -> TenantSet {
        TenantSet::custom(
            "test-pair",
            vec![
                TenantSpec {
                    name: "victim",
                    weight: w_victim,
                    qd_cap: 0,
                    deadline: crate::DeadlineClass::Default,
                },
                TenantSpec {
                    name: "aggressor",
                    weight: w_aggr,
                    qd_cap: cap_aggr,
                    deadline: crate::DeadlineClass::Default,
                },
            ],
        )
    }

    #[test]
    fn tenants_partition_queues_contiguously() {
        let hil = HostInterface::with_tenants(HilConfig::default(), pair(1, 1, 0));
        assert_eq!(hil.queue_range(0), (0, 4));
        assert_eq!(hil.queue_range(1), (4, 8));
        // Requests of different tenants at the same offset land in their
        // own namespace's queue range.
        assert_eq!(hil.queue_of(&treq(1, 0, 0)), 0);
        assert_eq!(hil.queue_of(&treq(2, 1, 0)), 4);
        // An uneven split still gives every tenant at least one queue.
        let three = HostInterface::with_tenants(
            HilConfig::default(),
            TenantSet::custom(
                "three",
                (0..3)
                    .map(|_| TenantSpec {
                        name: "t",
                        weight: 1,
                        qd_cap: 0,
                        deadline: crate::DeadlineClass::Default,
                    })
                    .collect(),
            ),
        );
        assert_eq!(three.queue_range(0), (0, 2));
        assert_eq!(three.queue_range(1), (2, 5));
        assert_eq!(three.queue_range(2), (5, 8));
    }

    #[test]
    #[should_panic(expected = "tenants need")]
    fn more_tenants_than_queues_rejected() {
        HostInterface::with_tenants(
            HilConfig {
                queues: 1,
                ..HilConfig::default()
            },
            pair(1, 1, 0),
        );
    }

    /// The single-tenant arbiter must replay the pre-tenancy global
    /// round-robin exactly: same fetch order over an adversarial
    /// multi-queue fill pattern (WRR degenerates to FIFO-per-queue with a
    /// rotating cursor).
    #[test]
    fn single_tenant_degenerates_to_pre_tenancy_round_robin() {
        let cfg = HilConfig::default();
        let mut hil = HostInterface::with_tenants(cfg, TenantSet::single());
        // Interleave submissions across queues 0,2,5 with repeats.
        let offsets: Vec<u64> = [0u64, 2, 5, 0, 2, 0, 7, 5]
            .iter()
            .map(|q| q * (1 << 21))
            .collect();
        for (i, &off) in offsets.iter().enumerate() {
            assert!(hil.submit(req(i as u64, off)));
        }
        // Pre-tenancy reference: cursor walk over all 8 queues.
        let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); 8];
        for (i, &off) in offsets.iter().enumerate() {
            queues[(off >> 21) as usize % 8].push_back(i as u64);
        }
        let mut next_queue = 0usize;
        let mut expected = Vec::new();
        loop {
            let mut got = None;
            for probe in 0..8 {
                let q = (next_queue + probe) % 8;
                if let Some(id) = queues[q].pop_front() {
                    next_queue = (q + 1) % 8;
                    got = Some(id);
                    break;
                }
            }
            match got {
                Some(id) => expected.push(id),
                None => break,
            }
        }
        let mut actual = Vec::new();
        while let Some(r) = hil.fetch() {
            actual.push(r.id);
        }
        assert_eq!(actual, expected, "single-tenant WRR must be the old FIFO order");
    }

    /// Queue-full back-pressure is a retry, not a drop: the same request
    /// submits successfully once a completion frees its queue slot, and
    /// both the global and the tenant's `backpressured` counters record
    /// the rejection.
    #[test]
    fn backpressured_request_is_retried_not_dropped() {
        let mut hil = HostInterface::with_tenants(
            HilConfig {
                queues: 2,
                queue_depth: 1,
                ..HilConfig::default()
            },
            pair(1, 1, 0),
        );
        assert!(hil.submit(treq(1, 0, 0)));
        // Tenant 0's only queue slot is occupied → back-pressure.
        assert!(!hil.submit(treq(2, 0, 0)));
        assert_eq!(hil.stats().backpressured, 1);
        assert_eq!(hil.tenant_stats()[0].backpressured, 1);
        assert_eq!(hil.tenant_stats()[1].backpressured, 0);
        // The other tenant's namespace is unaffected.
        assert!(hil.submit(treq(3, 1, 0)));
        // Complete tenant 0's request; the rejected request now fits.
        let r = hil.fetch().unwrap();
        assert_eq!(r.id, 1);
        hil.complete(1, SimTime::from_micros(1));
        assert!(hil.submit(treq(2, 0, 0)), "slot freed: retry must succeed");
        assert_eq!(hil.stats().submitted, 3);
        assert_eq!(hil.stats().backpressured, 1, "no new back-pressure");
    }

    /// WRR grants fetches proportional to weight over a full cycle when
    /// both tenants have plenty queued.
    #[test]
    fn wrr_visits_tenants_proportional_to_weight() {
        let mut hil = HostInterface::with_tenants(
            HilConfig {
                queues: 2,
                queue_depth: 64,
                ..HilConfig::default()
            },
            pair(3, 1, 0),
        );
        for i in 0..16u64 {
            assert!(hil.submit(treq(i, 0, 0)));
            assert!(hil.submit(treq(100 + i, 1, 0)));
        }
        // Two full WRR cycles = 2 × (3 + 1) fetches.
        let order: Vec<u8> = (0..8).map(|_| hil.fetch().unwrap().tenant).collect();
        assert_eq!(
            order,
            vec![0, 0, 0, 1, 0, 0, 0, 1],
            "weight-3 tenant gets 3 fetches per cycle, weight-1 gets 1"
        );
        let v = hil.tenant_stats()[0].fetched;
        let a = hil.tenant_stats()[1].fetched;
        assert_eq!((v, a), (6, 2));
    }

    /// A tenant at its queue-depth cap is skipped at fetch time — its
    /// requests stay queued (not dropped) — and becomes fetchable again
    /// once a completion frees an in-flight slot.
    #[test]
    fn qd_cap_blocks_fetch_until_a_completion() {
        let mut hil = HostInterface::with_tenants(
            HilConfig {
                queues: 2,
                queue_depth: 8,
                ..HilConfig::default()
            },
            pair(1, 1, 2),
        );
        for i in 0..4u64 {
            assert!(hil.submit(treq(i, 1, 0)));
        }
        // Only the aggressor has work; its cap is 2.
        assert_eq!(hil.fetch().unwrap().id, 0);
        assert_eq!(hil.fetch().unwrap().id, 1);
        assert_eq!(hil.tenant_inflight(1), 2);
        assert!(hil.fetch().is_none(), "at cap: nothing fetchable");
        assert_eq!(hil.queued(), 2, "capped requests stay queued");
        // The victim is unaffected by the aggressor's cap.
        assert!(hil.submit(treq(100, 0, 0)));
        assert_eq!(hil.fetch().unwrap().id, 100);
        // A completion frees one aggressor slot.
        hil.complete(0, SimTime::from_micros(1));
        assert_eq!(hil.tenant_inflight(1), 1);
        assert_eq!(hil.fetch().unwrap().id, 2);
        assert!(hil.fetch().is_none(), "back at cap");
    }

    /// The engine's deferred-fetch re-arm is tenant-agnostic: *any*
    /// completion triggers a fetch retry. This pins the HIL side of that
    /// contract — a completion belonging to a different tenant leaves a
    /// still-capped tenant's work queued (fetch stays `None`, nothing is
    /// dropped), and only a completion of the capped tenant itself re-arms
    /// its fetch.
    #[test]
    fn cross_tenant_completion_rearms_fetch_without_breaking_caps() {
        let mut hil = HostInterface::with_tenants(
            HilConfig {
                queues: 2,
                queue_depth: 8,
                ..HilConfig::default()
            },
            pair(1, 1, 2),
        );
        // Aggressor fills to its cap with two more queued behind.
        for i in 0..4u64 {
            assert!(hil.submit(treq(i, 1, 0)));
        }
        assert_eq!(hil.fetch().unwrap().id, 0);
        assert_eq!(hil.fetch().unwrap().id, 1);
        assert!(hil.fetch().is_none(), "aggressor at cap");
        // One victim request goes in-flight alongside.
        assert!(hil.submit(treq(100, 0, 0)));
        assert_eq!(hil.fetch().unwrap().id, 100);
        assert_eq!(hil.tenant_outstanding(1), 4, "2 in-flight + 2 queued");
        // The *victim's* completion fires the re-armed fetch attempt — it
        // must come back empty (the aggressor is still at its cap) and must
        // not disturb the aggressor's queued entries.
        hil.complete(100, SimTime::from_micros(1));
        assert!(
            hil.fetch().is_none(),
            "a cross-tenant completion must not bypass the cap"
        );
        assert_eq!(hil.queued(), 2, "capped work stays queued");
        assert_eq!(hil.tenant_inflight(1), 2);
        // The aggressor's own completion is what actually frees a slot.
        hil.complete(0, SimTime::from_micros(2));
        assert_eq!(hil.fetch().unwrap().id, 2);
        assert_eq!(hil.tenant_outstanding(1), 3, "2 in-flight + 1 queued");
    }

    /// `tenant_outstanding` counts slots from submission to completion and
    /// `namespace_capacity` is the admission watermark denominator.
    #[test]
    fn outstanding_tracks_submission_to_completion() {
        let mut hil = HostInterface::with_tenants(HilConfig::default(), pair(1, 1, 0));
        assert_eq!(hil.namespace_capacity(0), 4 * 8);
        assert_eq!(hil.namespace_capacity(1), 4 * 8);
        assert_eq!(hil.tenant_outstanding(0), 0);
        for i in 0..3u64 {
            assert!(hil.submit(treq(i, 0, i << 21)));
        }
        assert_eq!(hil.tenant_outstanding(0), 3, "queued counts");
        assert_eq!(hil.tenant_outstanding(1), 0, "neighbor unaffected");
        let fetched = hil.fetch().unwrap();
        assert_eq!(
            hil.tenant_outstanding(0),
            3,
            "fetching does not release the slot"
        );
        hil.complete(fetched.id, SimTime::from_micros(1));
        assert_eq!(hil.tenant_outstanding(0), 2, "completion releases it");
    }

    /// Per-tenant counters sum to the global ones across a mixed run.
    #[test]
    fn tenant_stats_sum_to_global() {
        let mut hil = HostInterface::with_tenants(HilConfig::default(), pair(2, 1, 3));
        for i in 0..20u64 {
            let t = (i % 2) as u8;
            hil.submit(treq(i, t, (i / 2) << 21));
        }
        let mut fetched = Vec::new();
        while let Some(r) = hil.fetch() {
            fetched.push(r.id);
        }
        for &id in &fetched {
            hil.complete(id, SimTime::from_micros(id));
        }
        let g = hil.stats();
        let per: Vec<HilStats> = hil.tenant_stats().to_vec();
        assert_eq!(per.iter().map(|s| s.submitted).sum::<u64>(), g.submitted);
        assert_eq!(
            per.iter().map(|s| s.backpressured).sum::<u64>(),
            g.backpressured
        );
        assert_eq!(per.iter().map(|s| s.fetched).sum::<u64>(), g.fetched);
        assert_eq!(per.iter().map(|s| s.completed).sum::<u64>(), g.completed);
    }
}
