//! Host-side resilience policies: request deadlines with timeout-driven
//! aborts, bounded host retry with exponential backoff, and submission-side
//! admission control with load shedding.
//!
//! A [`ResiliencePolicy`] is a *named preset* (the sweep engine's
//! `resilience` axis) that expands ([`ResiliencePolicy::params`]) into the
//! three independent knob groups a production NVMe front-end pairs with
//! device-side parallelism:
//!
//! * **deadlines** — every admitted request is stamped with
//!   `submit time + deadline`; a calendar-delivered timeout aborts the
//!   attempt at the next command boundary (reusing the fail-stop machinery
//!   from `crate::fault`) and releases its fabric/TSU resources,
//! * **bounded retry** — a failed or timed-out attempt resubmits through
//!   the host interface after an exponential backoff with deterministic
//!   jitter ([`RETRY_JITTER_SEED`]), capped at
//!   [`RetryParams::max_retries`] attempts and accounted against a
//!   per-tenant retry budget so an aggressor's retries cannot starve a
//!   victim,
//! * **admission control** — per-tenant submission-side occupancy
//!   watermarks with hysteresis: over the high watermark the tenant is
//!   *overloaded* and new submissions are deferred (backpressure) or — when
//!   the running tail-latency estimate says the deadline cannot be met —
//!   shed outright with a structured [`RequestOutcome::Shed`].
//!
//! Every request reaches exactly one terminal [`RequestOutcome`];
//! `shed + completed` partitions the trace, and `Ok + DeadlineMiss +
//! FailedAfterRetries + DataLoss` partitions the completions
//! ([`RequestOutcome::DataLoss`] — unreconstructable data on a dead chip —
//! is carved out of the generic failure class by the redundancy layer).
//!
//! [`ResiliencePolicy::None`] expands to all-off parameters and therefore
//! schedules zero calendar events and takes no admission branches — the
//! golden-hash contract (`events` feeds the fingerprint) is untouched by
//! construction, exactly like [`crate::FaultPlan::None`].

use venice_sim::SimDuration;

/// Seed of the deterministic retry-jitter stream
/// (`venice_sim::rng::Xorshift64Star`): one stream per run, consumed only
/// when a retry is actually scheduled, so runs with no retries never touch
/// it and identical runs replay identical jitter.
pub const RETRY_JITTER_SEED: u64 = 0x5EED_4E57_0000_0001;

/// Terminal outcome of one host request under the resilience layer.
///
/// The engine classifies every request exactly once, at its terminal
/// completion (or at the shedding decision); [`crate::RunMetrics`] carries
/// the aggregate counts (`deadline_misses`, `shed_requests`,
/// `failed_requests`, and `deadline_met_requests` — the goodput numerator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// Completed successfully (no error status, deadline met or unarmed).
    #[default]
    Ok,
    /// The final attempt was aborted by its deadline.
    DeadlineMiss,
    /// The final attempt completed with error status (dead chip or dead
    /// path) and the retry policy had no attempt left (a cap of zero
    /// retries makes every device failure terminal immediately).
    FailedAfterRetries,
    /// Rejected at submission by the overload admission policy; the request
    /// never entered the device.
    Shed,
    /// The request addressed data on a permanently dead chip that no
    /// redundancy scheme can reconstruct ([`crate::RedundancyKind::None`],
    /// or a parity group with no survivors): the data is *gone*, not
    /// merely unreachable. Distinct from fabric-level failure — retrying
    /// cannot help — and a subset of the failed completions.
    DataLoss,
}

impl RequestOutcome {
    /// Stable label used in JSON and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::DeadlineMiss => "deadline-miss",
            RequestOutcome::FailedAfterRetries => "failed-after-retries",
            RequestOutcome::Shed => "shed",
            RequestOutcome::DataLoss => "data-loss",
        }
    }
}

/// Bounded host-retry parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryParams {
    /// Maximum resubmissions per request (on top of the first attempt).
    pub max_retries: u32,
    /// Base backoff before the first resubmission; doubles per attempt.
    pub backoff: SimDuration,
    /// Ceiling of the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Maximum *outstanding* retried requests per tenant: a request whose
    /// first retry would push its tenant over this budget goes terminal
    /// instead, so one tenant's retry storm cannot monopolize submission
    /// capacity that its neighbors' first attempts need.
    pub tenant_budget: u32,
}

/// Submission-side admission watermarks, in percent of a tenant's
/// namespace capacity (its queue range length × queue depth), so the same
/// policy scales from the single-tenant default to narrow per-tenant
/// ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionParams {
    /// Occupancy percentage at or above which the tenant enters overload.
    pub high_pct: u32,
    /// Occupancy percentage at or below which the tenant exits overload
    /// (hysteresis: strictly below `high_pct` so the system degrades and
    /// recovers smoothly instead of flapping).
    pub low_pct: u32,
}

/// The expanded knob groups of one [`ResiliencePolicy`] preset. `None` in
/// a group means that mechanism is disarmed (no events, no branches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceParams {
    /// Per-request deadline measured from each attempt's submission.
    pub deadline: Option<SimDuration>,
    /// Bounded host retry of failed / timed-out attempts.
    pub retry: Option<RetryParams>,
    /// Submission-side admission control with load shedding.
    pub admission: Option<AdmissionParams>,
}

/// The preset deadline: well above a healthy run's mean service time
/// (~70µs saturated on the performance-optimized preset) but inside the
/// saturated tail (p99 ≈ 340–400µs on the Baseline fabric), so overload
/// and fault windows produce misses while nominal service does not.
const DEADLINE: SimDuration = SimDuration::from_micros(250);

/// Deadline of a [`venice_hil::DeadlineClass::Latency`] tenant when the
/// policy arms deadlines: well under the preset 250 µs contract, so a
/// latency-sensitive victim's misses surface while its neighbors' don't.
pub const LATENCY_DEADLINE: SimDuration = SimDuration::from_micros(100);

/// Deadline of a [`venice_hil::DeadlineClass::Batch`] tenant when the
/// policy arms deadlines: far looser than the preset contract — batch work
/// cares about completion, not tail latency.
pub const BATCH_DEADLINE: SimDuration = SimDuration::from_micros(1_000);

const RETRY: RetryParams = RetryParams {
    max_retries: 3,
    backoff: SimDuration::from_micros(10),
    backoff_cap: SimDuration::from_micros(80),
    tenant_budget: 8,
};

const ADMISSION: AdmissionParams = AdmissionParams {
    high_pct: 75,
    low_pct: 25,
};

/// Named host-resilience presets (the sweep engine's `resilience` axis):
/// the deadline × retry cross, plus the admission-control variants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResiliencePolicy {
    /// Everything off: bit-identical to the pre-resilience engine.
    #[default]
    None,
    /// Deadlines and timeout-driven aborts only.
    Deadline,
    /// Bounded retry of failed attempts only (no deadline).
    Retry,
    /// Deadlines plus bounded retry of failed / timed-out attempts.
    DeadlineRetry,
    /// Deadlines plus deadline-aware load shedding (no retry).
    Shed,
    /// The whole layer: deadlines, bounded retry, and admission control.
    Full,
}

impl ResiliencePolicy {
    /// All presets, in presentation order.
    pub const ALL: [ResiliencePolicy; 6] = [
        ResiliencePolicy::None,
        ResiliencePolicy::Deadline,
        ResiliencePolicy::Retry,
        ResiliencePolicy::DeadlineRetry,
        ResiliencePolicy::Shed,
        ResiliencePolicy::Full,
    ];

    /// Stable label used in sweep-point labels, manifests, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ResiliencePolicy::None => "none",
            ResiliencePolicy::Deadline => "deadline",
            ResiliencePolicy::Retry => "retry",
            ResiliencePolicy::DeadlineRetry => "deadline-retry",
            ResiliencePolicy::Shed => "shed",
            ResiliencePolicy::Full => "full",
        }
    }

    /// Expands the preset into its knob groups. Pure and deterministic;
    /// [`ResiliencePolicy::None`] expands to all-`None`.
    pub fn params(&self) -> ResilienceParams {
        let (deadline, retry, admission) = match self {
            ResiliencePolicy::None => (None, None, None),
            ResiliencePolicy::Deadline => (Some(DEADLINE), None, None),
            ResiliencePolicy::Retry => (None, Some(RETRY), None),
            ResiliencePolicy::DeadlineRetry => (Some(DEADLINE), Some(RETRY), None),
            ResiliencePolicy::Shed => (Some(DEADLINE), None, Some(ADMISSION)),
            ResiliencePolicy::Full => (Some(DEADLINE), Some(RETRY), Some(ADMISSION)),
        };
        ResilienceParams {
            deadline,
            retry,
            admission,
        }
    }
}

impl std::fmt::Display for ResiliencePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Point labels and file names carry these labels, so no two presets
    /// may share one.
    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            ResiliencePolicy::ALL.iter().map(ResiliencePolicy::label).collect();
        assert_eq!(labels.len(), ResiliencePolicy::ALL.len());
        assert_eq!(ResiliencePolicy::default(), ResiliencePolicy::None);
    }

    #[test]
    fn none_expands_to_all_off() {
        let p = ResiliencePolicy::None.params();
        assert_eq!(p.deadline, None);
        assert_eq!(p.retry, None);
        assert_eq!(p.admission, None);
    }

    #[test]
    fn presets_arm_their_mechanisms() {
        let full = ResiliencePolicy::Full.params();
        assert!(full.deadline.is_some() && full.retry.is_some() && full.admission.is_some());
        let dr = ResiliencePolicy::DeadlineRetry.params();
        assert!(dr.deadline.is_some() && dr.retry.is_some() && dr.admission.is_none());
        let shed = ResiliencePolicy::Shed.params();
        assert!(shed.deadline.is_some() && shed.retry.is_none() && shed.admission.is_some());
        assert!(ResiliencePolicy::Retry.params().deadline.is_none());
        // Hysteresis must be a real gap, and the backoff must be bounded.
        let adm = full.admission.unwrap();
        assert!(adm.low_pct < adm.high_pct);
        let retry = full.retry.unwrap();
        assert!(retry.backoff_cap >= retry.backoff);
        assert!(retry.max_retries > 0 && retry.tenant_budget > 0);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(RequestOutcome::Ok.label(), "ok");
        assert_eq!(RequestOutcome::DeadlineMiss.label(), "deadline-miss");
        assert_eq!(
            RequestOutcome::FailedAfterRetries.label(),
            "failed-after-retries"
        );
        assert_eq!(RequestOutcome::Shed.label(), "shed");
        assert_eq!(RequestOutcome::DataLoss.label(), "data-loss");
        assert_eq!(RequestOutcome::default(), RequestOutcome::Ok);
        // Per-class deadlines straddle the policy's own 250 µs contract.
        assert!(LATENCY_DEADLINE < SimDuration::from_micros(250));
        assert!(BATCH_DEADLINE > SimDuration::from_micros(250));
    }
}
