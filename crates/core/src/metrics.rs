//! Run metrics: everything the paper's figures report.

use venice_ftl::FtlStats;
use venice_hil::HilStats;
use venice_interconnect::FabricStats;
use venice_sim::stats::LatencySamples;
use venice_sim::{SimDuration, SimTime};

use venice_hil::{DeadlineClass, TenantSpec};

use crate::dispatch::DispatchStats;
use crate::report::Json;
use crate::{DispatchPolicyKind, RedundancyKind, ResiliencePolicy};

/// How a run ended (part of [`RunMetrics`] and the sweep manifest's
/// per-point `status` field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RunStatus {
    /// The trace ran to completion (failed-with-error requests included:
    /// they *complete*, with error status — see `failed_requests`).
    #[default]
    Complete,
    /// The watchdog ended the run early (`SsdConfig::max_events` /
    /// `max_sim_ns`): partial metrics, queue not drained.
    Aborted,
    /// The run panicked; a sweep worker caught it and recorded this
    /// placeholder instead of a result (see `RunMetrics::failed`).
    Failed,
}

impl RunStatus {
    /// Stable label used in manifests and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Complete => "complete",
            RunStatus::Aborted => "aborted",
            RunStatus::Failed => "failed",
        }
    }
}

/// Per-tenant metrics of one run: the QoS view of [`RunMetrics`].
///
/// One entry per tenant in the run's [`crate::TenantSet`] (a single
/// `all` entry on the default single-tenant path). Latencies, completions,
/// conflicts, back-pressure, and failures are accounted to the tenant that
/// issued the request. The engine keeps one record per tenant as its only
/// outcome ledger; the run totals in [`RunMetrics`] are their sums.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantMetrics {
    /// Tenant (namespace) name from the [`crate::TenantSpec`].
    pub name: &'static str,
    /// The tenant's WRR arbitration weight.
    pub weight: u32,
    /// The tenant's queue-depth cap (0 = unlimited).
    pub qd_cap: u32,
    /// The tenant's deadline contract class (inert unless the resilience
    /// policy arms deadlines).
    pub deadline_class: DeadlineClass,
    /// End-to-end latencies of this tenant's requests.
    pub latencies: LatencySamples,
    /// Requests of this tenant that completed.
    pub completed: u64,
    /// This tenant's requests that experienced at least one path conflict.
    pub conflicted: u64,
    /// Submissions of this tenant rejected on a full queue.
    pub backpressured: u64,
    /// This tenant's requests that completed with error status.
    pub failed: u64,
    /// This tenant's requests that hit unreconstructable data loss: the
    /// page's only copy sat on a dead chip (a subset of `failed`).
    pub data_loss: u64,
    /// This tenant's requests whose final attempt was aborted by its
    /// deadline (a subset of `failed`).
    pub deadline_misses: u64,
    /// Host resubmissions charged to this tenant by the retry policy.
    pub host_retries: u64,
    /// This tenant's requests shed by the overload admission policy.
    pub shed: u64,
    /// This tenant's requests that completed successfully within their
    /// deadline (all successful completions when deadlines are unarmed).
    pub deadline_met: u64,
}

impl TenantMetrics {
    /// An empty record for the tenant `spec` describes.
    pub fn new(spec: &TenantSpec) -> Self {
        TenantMetrics {
            name: spec.name,
            weight: spec.weight,
            qd_cap: spec.qd_cap,
            deadline_class: spec.deadline,
            ..TenantMetrics::default()
        }
    }

    /// Median end-to-end latency of this tenant's requests (zero when the
    /// tenant completed nothing).
    pub fn p50(&self) -> SimDuration {
        quantile(&self.latencies, 0.50)
    }

    /// 99th-percentile end-to-end latency of this tenant's requests (zero
    /// when the tenant completed nothing).
    pub fn p99(&self) -> SimDuration {
        quantile(&self.latencies, 0.99)
    }
}

/// The `q`-quantile of `samples`, zero when there are none: a run or a
/// tenant that completed nothing is a valid record everywhere, but
/// `percentile` panics on an empty sample set.
fn quantile(samples: &LatencySamples, q: f64) -> SimDuration {
    if samples.is_empty() {
        SimDuration::ZERO
    } else {
        samples.clone().percentile(q)
    }
}

/// Metrics of one simulated run (one workload × one system × one config).
///
/// Derives `PartialEq` so determinism tests can compare whole runs (the
/// engine is bit-for-bit reproducible for a `(config, system, trace)`
/// triple, regardless of sweep parallelism).
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// The fabric under test.
    pub system: venice_interconnect::FabricKind,
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: &'static str,
    /// Dispatch policy the run used.
    pub policy: DispatchPolicyKind,
    /// Scout fast-fail cache mode the run used (Venice-only knob; other
    /// fabrics carry it as configured but never consult it).
    pub scout_cache: venice_interconnect::ScoutCacheKind,
    /// Requests completed.
    pub completed_requests: u64,
    /// Overall execution time: first arrival to last completion (the paper's
    /// speedup metric is the ratio of these).
    pub execution_time: SimDuration,
    /// End-to-end request latencies.
    pub latencies: LatencySamples,
    /// Requests that experienced at least one path conflict (Figure 13).
    pub conflicted_requests: u64,
    /// Total SSD energy, millijoules.
    pub energy_mj: f64,
    /// Average SSD power, milliwatts.
    pub avg_power_mw: f64,
    /// Fabric-level statistics.
    pub fabric: FabricStats,
    /// FTL statistics (GC, wear leveling, write amplification).
    pub ftl: FtlStats,
    /// Host-interface statistics.
    pub hil: HilStats,
    /// Per-tenant QoS metrics, indexed by tenant id (one `all` entry on
    /// the single-tenant default; empty only in failed placeholders).
    pub tenants: Vec<TenantMetrics>,
    /// Dispatcher statistics (rounds, attempts, policy skips, failed walks).
    pub dispatch: DispatchStats,
    /// Total flash transactions executed.
    pub transactions: u64,
    /// Total simulator events scheduled on the calendar. A finished run
    /// drains its queue, so this also equals the events processed — the
    /// numerator of the harness's events/sec throughput summary.
    pub events: u64,
    /// Simulation end time.
    pub end_time: SimTime,
    /// How the run ended (complete / watchdog-aborted / worker-failed).
    pub status: RunStatus,
    /// Fault-plan actions delivered (faults *and* repairs); zero under
    /// [`crate::FaultPlan::None`].
    pub faults_injected: u64,
    /// Fabric faults still outstanding (unrepaired) at run end.
    pub faults_active: u64,
    /// NAND program/erase operations retried after a transient failure.
    pub retried_ops: u64,
    /// Requests that completed *with error status* because a chip or its
    /// only path died. They count in `completed_requests` (the calendar
    /// never stalls on them) but not toward availability.
    pub failed_requests: u64,
    /// Host-resilience preset the run used (`None` on the default path).
    pub resilience: ResiliencePolicy,
    /// Requests whose final attempt was aborted by its deadline
    /// (the tenants' `deadline_misses`; a subset of `failed_requests`).
    pub deadline_misses: u64,
    /// Host resubmissions performed by the bounded retry policy.
    pub host_retries: u64,
    /// Requests shed at submission by the overload admission policy. Shed
    /// requests never enter the device: `completed_requests +
    /// shed_requests` partitions the trace.
    pub shed_requests: u64,
    /// Requests that completed successfully within their deadline — the
    /// goodput numerator. With deadlines unarmed this equals the
    /// successful completions (`completed_requests - failed_requests`).
    pub deadline_met_requests: u64,
    /// Die-level redundancy scheme the run used (`None` on the default
    /// path).
    pub redundancy: RedundancyKind,
    /// Foreground reads served by parity reconstruction (the read landed
    /// on a dead chip and fanned out to the surviving group members
    /// instead of failing).
    pub degraded_reads: u64,
    /// Pages the background rebuild engine reconstructed and remapped off
    /// the dead chip.
    pub rebuilt_pages: u64,
    /// Dead-chip pages the rebuild engine gave up on (no parity-group
    /// survivor was spawnable — peers media-dead, unreachable behind a
    /// fabric fault, or migration-busy). Non-zero means the recovery is
    /// incomplete even if `rebuild_done_ns` is set.
    pub rebuild_skipped_pages: u64,
    /// Absolute simulation time (ns) at which the background rebuild
    /// finished draining — the MTTR endpoint (`rebuild_done_ns` minus the
    /// fault-plan injection time is the rebuild makespan). Zero when no
    /// rebuild ran or it did not finish.
    pub rebuild_done_ns: u64,
    /// Requests that hit unreconstructable data loss (the tenants'
    /// `data_loss`; a subset of `failed_requests`).
    pub data_loss_requests: u64,
}

impl RunMetrics {
    /// I/O operations per second.
    pub fn iops(&self) -> f64 {
        let secs = self.execution_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed_requests as f64 / secs
        }
    }

    /// Speedup of this run over a baseline run of the same workload:
    /// the ratio of overall execution times.
    pub fn speedup_over(&self, baseline: &RunMetrics) -> f64 {
        assert_eq!(self.workload, baseline.workload, "speedup across workloads");
        baseline.execution_time.as_secs_f64() / self.execution_time.as_secs_f64().max(1e-12)
    }

    /// Fraction of requests that experienced path conflicts, in percent.
    pub fn conflict_pct(&self) -> f64 {
        if self.completed_requests == 0 {
            0.0
        } else {
            self.conflicted_requests as f64 / self.completed_requests as f64 * 100.0
        }
    }

    /// 99th-percentile end-to-end latency (zero when nothing completed,
    /// like [`TenantMetrics::p99`]). Sorts the samples in place.
    pub fn p99(&mut self) -> SimDuration {
        if self.latencies.is_empty() {
            SimDuration::ZERO
        } else {
            self.latencies.percentile(0.99)
        }
    }

    /// Mean end-to-end latency.
    pub fn mean_latency(&self) -> SimDuration {
        self.latencies.mean()
    }

    /// Fraction of completed requests that completed *successfully* (no
    /// dead-chip / dead-path error): the fault ablation's availability
    /// metric. 1.0 for a clean run; 0.0 when nothing completed.
    ///
    /// What it covers: the engine's ability to keep *completing* requests
    /// around faults — dead paths routed around, dead chips fail-stopped,
    /// degraded reads reconstructed (a reconstructed read counts as a
    /// success). What it does **not** cover: durability. Without
    /// redundancy a dead chip's data is gone; those requests complete with
    /// error status and are counted here merely as failures — see
    /// `data_loss_requests` for the durability story.
    pub fn availability(&self) -> f64 {
        if self.completed_requests == 0 {
            0.0
        } else {
            (self.completed_requests - self.failed_requests) as f64
                / self.completed_requests as f64
        }
    }

    /// Goodput: deadline-met successful completions per second (the
    /// resilience ablation's headline metric). With every resilience knob
    /// off this is the successful-completion IOPS.
    pub fn goodput(&self) -> f64 {
        let secs = self.execution_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.deadline_met_requests as f64 / secs
        }
    }

    /// Jain's fairness index over weight-normalized per-tenant throughput:
    /// `J = (Σxᵢ)² / (n·Σxᵢ²)` with `xᵢ = completedᵢ / weightᵢ`.
    ///
    /// 1.0 means every tenant got throughput exactly proportional to its
    /// WRR weight; `1/n` means one tenant monopolized the device. Trivially
    /// 1.0 for single-tenant runs and for runs where no tenant completed
    /// anything.
    pub fn fairness_index(&self) -> f64 {
        let n = self.tenants.len();
        if n <= 1 {
            return 1.0;
        }
        let shares: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.completed as f64 / f64::from(t.weight.max(1)))
            .collect();
        let sum: f64 = shares.iter().sum();
        let sq_sum: f64 = shares.iter().map(|x| x * x).sum();
        if sq_sum <= 0.0 {
            return 1.0;
        }
        sum * sum / (n as f64 * sq_sum)
    }

    /// A placeholder record for a sweep point whose run panicked: zero
    /// metrics, [`RunStatus::Failed`], carrying just enough identity
    /// (system / workload / config) for the manifest to report the failure
    /// instead of erroring the whole sweep.
    pub fn failed(
        system: venice_interconnect::FabricKind,
        workload: &str,
        config: &'static str,
    ) -> RunMetrics {
        RunMetrics {
            system,
            workload: workload.to_string(),
            config,
            policy: DispatchPolicyKind::RetryAll,
            scout_cache: venice_interconnect::ScoutCacheKind::Off,
            completed_requests: 0,
            execution_time: SimDuration::ZERO,
            latencies: LatencySamples::new(),
            conflicted_requests: 0,
            energy_mj: 0.0,
            avg_power_mw: 0.0,
            fabric: FabricStats::default(),
            ftl: FtlStats::default(),
            hil: HilStats::default(),
            tenants: Vec::new(),
            dispatch: DispatchStats::default(),
            transactions: 0,
            events: 0,
            end_time: SimTime::ZERO,
            status: RunStatus::Failed,
            faults_injected: 0,
            faults_active: 0,
            retried_ops: 0,
            failed_requests: 0,
            resilience: ResiliencePolicy::None,
            deadline_misses: 0,
            host_retries: 0,
            shed_requests: 0,
            deadline_met_requests: 0,
            redundancy: RedundancyKind::None,
            degraded_reads: 0,
            rebuilt_pages: 0,
            rebuild_skipped_pages: 0,
            rebuild_done_ns: 0,
            data_loss_requests: 0,
        }
    }

    /// Serializes the run as one stable JSON object (the sweep engine's
    /// per-point record format), built as a [`Json`] value and laid out by
    /// [`Json::document`], the workspace's one JSON writer.
    ///
    /// Field order is fixed, integers print exactly, and floats use Rust's
    /// shortest round-trip `Display`: the same metrics always produce the
    /// same bytes, which is what lets sweep manifests carry a content
    /// fingerprint. Raw latency samples are summarized (count, mean,
    /// p50/p95/p99, max) rather than dumped.
    pub fn to_json(&self) -> String {
        let q = |q| quantile(&self.latencies, q).as_nanos();
        let (fb, ftl, hil, dsp) = (&self.fabric, &self.ftl, &self.hil, &self.dispatch);
        let tenant = |t: &TenantMetrics| {
            Json::object()
                .with("name", t.name)
                .with("weight", u64::from(t.weight))
                .with("qd_cap", u64::from(t.qd_cap))
                .with("deadline_class", t.deadline_class.label())
                .with("completed", t.completed)
                .with("conflicted", t.conflicted)
                .with("backpressured", t.backpressured)
                .with("failed", t.failed)
                .with("data_loss", t.data_loss)
                .with("deadline_misses", t.deadline_misses)
                .with("host_retries", t.host_retries)
                .with("shed", t.shed)
                .with("deadline_met", t.deadline_met)
                .with("mean_ns", t.latencies.mean().as_nanos())
                .with("p50_ns", t.p50().as_nanos())
                .with("p99_ns", t.p99().as_nanos())
        };
        Json::object()
            .with("system", self.system.label())
            .with("workload", self.workload.as_str())
            .with("config", self.config)
            .with("policy", self.policy.label())
            .with("scout_cache", self.scout_cache.label())
            .with("completed_requests", self.completed_requests)
            .with("execution_time_ns", self.execution_time.as_nanos())
            .with("iops", self.iops())
            .with(
                "latency",
                Json::object()
                    .with("samples", self.latencies.len() as u64)
                    .with("mean_ns", self.mean_latency().as_nanos())
                    .with("p50_ns", q(0.50))
                    .with("p95_ns", q(0.95))
                    .with("p99_ns", q(0.99))
                    .with("max_ns", q(1.0)),
            )
            .with("conflicted_requests", self.conflicted_requests)
            .with("conflict_pct", self.conflict_pct())
            .with("energy_mj", self.energy_mj)
            .with("avg_power_mw", self.avg_power_mw)
            .with(
                "fabric",
                Json::object()
                    .with("acquisitions", fb.acquisitions)
                    .with("conflicts", fb.conflicts)
                    .with("controller_unavailable", fb.controller_unavailable)
                    .with("channel_busy", fb.channel_busy)
                    .with("transfers", fb.transfers)
                    .with("bytes", fb.bytes)
                    .with("transfer_energy_nj", fb.transfer_energy_nj)
                    .with("scout_steps", fb.scout_steps)
                    .with("scout_detours", fb.scout_detours)
                    .with("scout_misroutes", fb.scout_misroutes)
                    .with("scout_failed_steps", fb.scout_failed_steps)
                    .with("scout_fastfails", fb.scout_fastfails)
                    .with("scout_cache_invalidations", fb.scout_cache_invalidations)
                    .with("hops_total", fb.hops_total),
            )
            .with(
                "ftl",
                Json::object()
                    .with("user_writes", ftl.user_writes)
                    .with("user_reads", ftl.user_reads)
                    .with("gc_relocations", ftl.gc_relocations)
                    .with("gc_erases", ftl.gc_erases)
                    .with("wear_relocations", ftl.wear_relocations)
                    .with("wear_erases", ftl.wear_erases)
                    .with("stale_relocations", ftl.stale_relocations)
                    .with("write_amplification", ftl.write_amplification()),
            )
            .with(
                "hil",
                Json::object()
                    .with("submitted", hil.submitted)
                    .with("backpressured", hil.backpressured)
                    .with("fetched", hil.fetched)
                    .with("completed", hil.completed),
            )
            .with(
                "tenants",
                Json::Array(self.tenants.iter().map(tenant).collect()),
            )
            .with("fairness_index", self.fairness_index())
            .with(
                "dispatch",
                Json::object()
                    .with("rounds", dsp.rounds)
                    .with("attempts", dsp.attempts)
                    .with("skipped_backoff", dsp.skipped_backoff)
                    .with("failed_walks", dsp.failed_walks),
            )
            .with("status", self.status.label())
            .with(
                "faults",
                Json::object()
                    .with("injected", self.faults_injected)
                    .with("active", self.faults_active)
                    .with("retried_ops", self.retried_ops)
                    .with("failed_requests", self.failed_requests)
                    .with("availability", self.availability()),
            )
            .with(
                "resilience",
                Json::object()
                    .with("policy", self.resilience.label())
                    .with("deadline_met", self.deadline_met_requests)
                    .with("deadline_misses", self.deadline_misses)
                    .with("host_retries", self.host_retries)
                    .with("shed_requests", self.shed_requests)
                    .with("goodput", self.goodput()),
            )
            .with(
                "redundancy",
                Json::object()
                    .with("kind", self.redundancy.label())
                    .with("degraded_reads", self.degraded_reads)
                    .with("rebuilt_pages", self.rebuilt_pages)
                    .with("rebuild_skipped_pages", self.rebuild_skipped_pages)
                    .with("rebuild_done_ns", self.rebuild_done_ns)
                    .with("data_loss_requests", self.data_loss_requests),
            )
            .with("transactions", self.transactions)
            .with("events", self.events)
            .with("end_time_ns", self.end_time.as_nanos())
            .document(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_interconnect::FabricKind;

    fn metrics(exec_us: u64, requests: u64) -> RunMetrics {
        let mut latencies = LatencySamples::new();
        for i in 0..requests {
            latencies.record(SimDuration::from_micros(i + 1));
        }
        RunMetrics {
            system: FabricKind::Baseline,
            workload: "t".into(),
            config: "test",
            policy: DispatchPolicyKind::RetryAll,
            scout_cache: venice_interconnect::ScoutCacheKind::Off,
            completed_requests: requests,
            execution_time: SimDuration::from_micros(exec_us),
            latencies,
            conflicted_requests: requests / 4,
            energy_mj: 10.0,
            avg_power_mw: 100.0,
            fabric: FabricStats::default(),
            ftl: FtlStats::default(),
            hil: HilStats::default(),
            tenants: vec![TenantMetrics {
                name: "all",
                weight: 1,
                completed: requests,
                deadline_met: requests,
                ..TenantMetrics::default()
            }],
            dispatch: DispatchStats::default(),
            transactions: requests,
            events: requests * 4,
            end_time: SimTime::from_micros(exec_us),
            status: RunStatus::Complete,
            faults_injected: 0,
            faults_active: 0,
            retried_ops: 0,
            failed_requests: 0,
            resilience: ResiliencePolicy::None,
            deadline_misses: 0,
            host_retries: 0,
            shed_requests: 0,
            deadline_met_requests: requests,
            redundancy: RedundancyKind::None,
            degraded_reads: 0,
            rebuilt_pages: 0,
            rebuild_skipped_pages: 0,
            rebuild_done_ns: 0,
            data_loss_requests: 0,
        }
    }

    #[test]
    fn iops_and_speedup() {
        let base = metrics(1_000, 100);
        let fast = metrics(250, 100);
        assert!((fast.speedup_over(&base) - 4.0).abs() < 1e-9);
        // 100 requests in 1 ms = 100k IOPS.
        assert!((base.iops() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn conflict_percentage() {
        let m = metrics(1_000, 100);
        assert!((m.conflict_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn p99_from_samples() {
        let mut m = metrics(1_000, 100);
        assert_eq!(m.p99(), SimDuration::from_micros(99));
    }

    #[test]
    fn zero_division_guards() {
        let m = metrics(0, 0);
        assert_eq!(m.iops(), 0.0);
        assert_eq!(m.conflict_pct(), 0.0);
        assert_eq!(m.availability(), 0.0);
    }

    #[test]
    fn availability_excludes_failed_completions() {
        let mut m = metrics(1_000, 100);
        assert_eq!(m.availability(), 1.0);
        m.failed_requests = 25;
        assert!((m.availability() - 0.75).abs() < 1e-12);
        let json = m.to_json();
        assert!(json.contains("\"failed_requests\": 25"));
        assert!(json.contains("\"availability\": 0.75"));
    }

    #[test]
    fn failed_placeholder_serializes_with_failed_status() {
        let m = RunMetrics::failed(FabricKind::Venice, "wl", "test");
        assert_eq!(m.status, RunStatus::Failed);
        assert_eq!(m.status.label(), "failed");
        let json = m.to_json();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"system\": \"Venice\""));
        assert_eq!(RunStatus::Aborted.label(), "aborted");
        assert_eq!(RunStatus::default(), RunStatus::Complete);
    }

    fn tenant(name: &'static str, weight: u32, completed: u64) -> TenantMetrics {
        let mut latencies = LatencySamples::new();
        for i in 0..completed {
            latencies.record(SimDuration::from_micros(i + 1));
        }
        TenantMetrics {
            name,
            weight,
            latencies,
            completed,
            conflicted: completed / 10,
            deadline_met: completed,
            ..TenantMetrics::default()
        }
    }

    #[test]
    fn goodput_counts_deadline_met_completions_per_second() {
        // 100 requests in 1 ms, all deadline-met: goodput = IOPS = 100k.
        let mut m = metrics(1_000, 100);
        assert!((m.goodput() - m.iops()).abs() < 1e-9);
        // Misses and sheds drop out of the numerator.
        m.deadline_met_requests = 40;
        m.deadline_misses = 50;
        m.shed_requests = 10;
        assert!((m.goodput() - 40_000.0).abs() < 1.0);
        let json = m.to_json();
        assert!(json.contains("\"deadline_misses\": 50"));
        assert!(json.contains("\"shed_requests\": 10"));
        assert!(json.contains("\"goodput\": 40000"));
        // Zero execution time guards the division.
        assert_eq!(metrics(0, 0).goodput(), 0.0);
    }

    #[test]
    fn fairness_index_matches_jain() {
        let mut m = metrics(1_000, 100);
        // Single tenant: trivially fair.
        assert_eq!(m.fairness_index(), 1.0);
        // Two equal-weight tenants with equal throughput: J = 1.
        m.tenants = vec![tenant("a", 1, 50), tenant("b", 1, 50)];
        assert!((m.fairness_index() - 1.0).abs() < 1e-12);
        // One tenant monopolizes: J = 1/2.
        m.tenants = vec![tenant("a", 1, 100), tenant("b", 1, 0)];
        assert!((m.fairness_index() - 0.5).abs() < 1e-12);
        // Weight-normalized: 3:1 throughput under 3:1 weights is fair.
        m.tenants = vec![tenant("a", 3, 75), tenant("b", 1, 25)];
        assert!((m.fairness_index() - 1.0).abs() < 1e-12);
        // Nothing completed: defined as fair, not NaN.
        m.tenants = vec![tenant("a", 1, 0), tenant("b", 1, 0)];
        assert_eq!(m.fairness_index(), 1.0);
    }

    #[test]
    fn tenant_percentiles_and_json_section() {
        let mut m = metrics(1_000, 100);
        m.tenants = vec![tenant("victim", 4, 60), tenant("aggressor", 1, 40)];
        let v = &m.tenants[0];
        assert_eq!(v.p50(), SimDuration::from_micros(30));
        assert_eq!(v.p99(), SimDuration::from_micros(60));
        // Empty tenants serialize zero percentiles instead of panicking,
        // and so does a run that completed nothing.
        assert_eq!(tenant("idle", 1, 0).p99(), SimDuration::ZERO);
        let mut idle = RunMetrics::failed(FabricKind::Venice, "wl", "test");
        assert_eq!(idle.p99(), SimDuration::ZERO);
        let json = m.to_json();
        assert!(json.contains("\"tenants\": [{\"name\": \"victim\", \"weight\": 4,"));
        assert!(json.contains("{\"name\": \"aggressor\", \"weight\": 1,"));
        assert!(json.contains("\"fairness_index\": "));
        assert!(json.contains("\"p99_ns\": 60000"));
        // The failed placeholder carries no tenants but still serializes.
        let failed = RunMetrics::failed(FabricKind::Venice, "wl", "test");
        assert_eq!(failed.fairness_index(), 1.0);
        assert!(failed.to_json().contains("\"tenants\": []"));
    }

    #[test]
    fn redundancy_counters_serialize_in_their_own_section() {
        let mut m = metrics(1_000, 100);
        let json = m.to_json();
        assert!(json.contains(
            "\"redundancy\": {\"kind\": \"none\", \"degraded_reads\": 0, \
             \"rebuilt_pages\": 0, \"rebuild_skipped_pages\": 0, \
             \"rebuild_done_ns\": 0, \"data_loss_requests\": 0}"
        ));
        m.redundancy = RedundancyKind::Parity { group: 4 };
        m.degraded_reads = 7;
        m.rebuilt_pages = 123;
        m.rebuild_done_ns = 456_000;
        m.data_loss_requests = 0;
        m.tenants[0].data_loss = 0;
        m.tenants[0].deadline_class = DeadlineClass::Latency;
        let armed = m.to_json();
        assert!(armed.contains("\"kind\": \"parity4\""));
        assert!(armed.contains("\"degraded_reads\": 7"));
        assert!(armed.contains("\"rebuilt_pages\": 123"));
        assert!(armed.contains("\"rebuild_done_ns\": 456000"));
        assert!(armed.contains("\"deadline_class\": \"latency\""));
        assert!(armed.contains("\"data_loss\": 0"));
    }

    #[test]
    fn json_is_stable_and_carries_key_fields() {
        let m = metrics(1_000, 100);
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(a, b, "serialization must be byte-stable");
        for needle in [
            "\"system\": \"Baseline\"",
            "\"workload\": \"t\"",
            "\"policy\": \"retry-all\"",
            "\"completed_requests\": 100",
            "\"execution_time_ns\": 1000000",
            "\"p99_ns\": 99000",
            "\"dispatch\": {\"rounds\": 0",
            "\"status\": \"complete\"",
            "\"faults\": {\"injected\": 0",
            "\"availability\": 1",
            "\"resilience\": {\"policy\": \"none\"",
            "\"deadline_met\": 100",
            "\"events\": 400",
        ] {
            assert!(a.contains(needle), "missing {needle} in {a}");
        }
        // Quotes in names must not break the JSON framing.
        let mut odd = metrics(10, 5);
        odd.workload = "we\"ird".into();
        assert!(odd.to_json().contains("\"we\\\"ird\""));
        // A zero-completion run (valid everywhere else) must serialize,
        // not panic on its empty latency sample set.
        let empty = metrics(0, 0).to_json();
        assert!(empty.contains("\"p99_ns\": 0"));
        assert!(empty.contains("\"samples\": 0"));
    }
}
