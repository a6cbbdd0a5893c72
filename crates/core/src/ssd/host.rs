//! Host resilience in the engine: per-attempt deadlines, bounded retry and
//! admission control (the presets are in `crate::resilience`).

use venice_hil::DeadlineClass;
use venice_sim::rng::Xorshift64Star;

use super::*;
use crate::resilience::{
    AdmissionParams, RetryParams, BATCH_DEADLINE, LATENCY_DEADLINE, RETRY_JITTER_SEED,
};

/// Bounded host retry: backoff parameters, jitter and per-tenant budgets.
pub(super) struct Retry {
    params: RetryParams,
    /// Deterministic retry-jitter stream; consumed only when a retry is
    /// actually scheduled, so retry-free runs never advance it.
    rng: Xorshift64Star,
    /// Outstanding retried requests per tenant (the retry-budget meter):
    /// incremented when a request's *first* retry is granted, decremented
    /// at its terminal completion.
    outstanding: Vec<u32>,
}

impl Retry {
    /// The backoff of a `tenant` request's resubmission after `attempts`
    /// earlier ones, or `None` when the cap or the tenant's budget refuses.
    fn grant(&mut self, attempts: u32, tenant: usize) -> Option<SimDuration> {
        if attempts >= self.params.max_retries {
            return None;
        }
        if attempts == 0 {
            if self.outstanding[tenant] >= self.params.tenant_budget {
                return None;
            }
            self.outstanding[tenant] += 1;
        }
        Some(self.backoff(attempts + 1))
    }

    /// Exponential backoff with deterministic jitter: `backoff × 2^(n-1)`
    /// clamped to the cap, plus up to half that step of seeded jitter (the
    /// jitter decorrelates retry storms without hurting replayability).
    fn backoff(&mut self, attempt: u32) -> SimDuration {
        let base = self.params.backoff.as_nanos() << (attempt.saturating_sub(1)).min(16);
        let capped = base.min(self.params.backoff_cap.as_nanos());
        let jitter = self.rng.next_bounded(capped / 2 + 1);
        SimDuration::from_nanos(capped + jitter)
    }

    /// A retried request of `tenant` went terminal: its budget slot frees.
    pub(super) fn settle(&mut self, tenant: usize, attempts: u32) {
        if attempts > 0 {
            debug_assert!(self.outstanding[tenant] > 0);
            self.outstanding[tenant] -= 1;
        }
    }
}

/// Admission control: occupancy watermarks with hysteresis, and the tail
/// estimate that decides between deferring and shedding.
pub(super) struct Admission {
    params: AdmissionParams,
    /// Sticky per-tenant overload flags (admission hysteresis): set at the
    /// high watermark, cleared at the low one.
    overloaded: Vec<bool>,
    /// Decaying max of completion latencies (ns): rises instantly to the
    /// worst recent completion and decays by 1/8 per completion — the cheap
    /// deterministic tail proxy the shedding decision consults.
    tail_estimate_ns: u64,
}

/// Verdict of the submission-side admission policy for one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Verdict {
    /// Under the watermarks (or admission control off): submit normally.
    Accept,
    /// Tenant overloaded but the deadline still looks meetable: defer the
    /// arrival (backpressure — the host stalls, like a full queue).
    Defer,
    /// Tenant overloaded and the tail estimate says the deadline cannot be
    /// met: shed terminally; the request never enters the device.
    Shed,
}

impl Admission {
    /// Evaluates (and updates — the flag is sticky) one attempt of `tenant`
    /// with `outstanding` of `capacity` slots held and this `deadline`.
    fn verdict(
        &mut self,
        tenant: usize,
        outstanding: usize,
        capacity: usize,
        deadline: Option<SimDuration>,
    ) -> Verdict {
        let overloaded = &mut self.overloaded[tenant];
        if *overloaded {
            if outstanding <= capacity * self.params.low_pct as usize / 100 {
                *overloaded = false;
            }
        } else if outstanding >= capacity * self.params.high_pct as usize / 100 {
            *overloaded = true;
        }
        if !*overloaded {
            return Verdict::Accept;
        }
        // Overloaded: shed when the tail estimate says the deadline cannot
        // be met anyway, otherwise defer (plain backpressure).
        match deadline {
            Some(d) if self.tail_estimate_ns > d.as_nanos() => Verdict::Shed,
            _ => Verdict::Defer,
        }
    }

    /// Folds one terminal completion latency into the tail estimate.
    pub(super) fn record_latency(&mut self, latency_ns: u64) {
        self.tail_estimate_ns =
            latency_ns.max(self.tail_estimate_ns - self.tail_estimate_ns / 8);
    }
}

/// The mechanisms `config` arms, as `(deadline, retry, admission)`.
pub(super) fn arm(config: &SsdConfig) -> (Option<SimDuration>, Option<Retry>, Option<Admission>) {
    let preset = config.resilience.params();
    let tenants = config.tenants.len();
    let retry = preset.retry.map(|params| Retry {
        params,
        rng: Xorshift64Star::new(RETRY_JITTER_SEED),
        outstanding: vec![0; tenants],
    });
    let admission = preset.admission.map(|params| Admission {
        params,
        overloaded: vec![false; tenants],
        tail_estimate_ns: 0,
    });
    (preset.deadline, retry, admission)
}

impl SsdSim<'_> {
    /// Per-attempt deadline for `tenant`: the policy deadline modulated by
    /// the tenant's [`DeadlineClass`]. `None` when the policy arms no
    /// deadline (classes are inert then) or the class opts the tenant out;
    /// with every class at the default the result is exactly the policy
    /// deadline, so existing runs are bit-identical.
    pub(super) fn deadline_for(&self, tenant: usize) -> Option<SimDuration> {
        let base = self.deadline?;
        match self.config.tenants.specs()[tenant].deadline {
            DeadlineClass::Default => Some(base),
            DeadlineClass::Latency => Some(LATENCY_DEADLINE),
            DeadlineClass::Batch => Some(BATCH_DEADLINE),
            DeadlineClass::None => None,
        }
    }

    /// Admission control's verdict on one submission attempt of `tenant`.
    pub(super) fn admission_verdict(&mut self, tenant: usize) -> Verdict {
        if self.admission.is_none() {
            return Verdict::Accept;
        }
        let deadline = self.deadline_for(tenant);
        let (out, cap) = (self.hil.tenant_outstanding(tenant), self.hil.namespace_capacity(tenant));
        self.admission.as_mut().map_or(Verdict::Accept, |a| a.verdict(tenant, out, cap, deadline))
    }

    /// A request's per-attempt deadline fired. Stale timers (the attempt
    /// already completed, or a resubmission armed a strictly later
    /// deadline) are ignored; live ones mark the request timed out so its
    /// outstanding transactions abort at the next command boundary — queued
    /// TSU work and ready data bursts at dispatch-visit time, in-flight
    /// array operations at op-done time — reusing the fail-stop machinery
    /// from the fault layer.
    pub(super) fn on_host_timeout(&mut self, now: SimTime, req_id: u64) {
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
    pub(super) fn txn_aborted(&self, req: Option<RequestId>) -> bool {
        self.deadline.is_some() && req.is_some_and(|r| self.requests[r.0 as usize].timed_out)
    }

    /// Attempts to schedule a host resubmission of a failed / timed-out
    /// attempt. Returns false — the caller classifies the request
    /// terminally — when retry is off, the attempt cap is reached, or the
    /// tenant's retry budget is exhausted.
    pub(super) fn try_schedule_retry(&mut self, now: SimTime, req_id: u64, tenant: usize) -> bool {
        let Some(retry) = &mut self.retry else {
            return false;
        };
        let st = &mut self.requests[req_id as usize];
        let Some(delay) = retry.grant(st.attempts, tenant) else {
            return false;
        };
        st.attempts += 1;
        st.timed_out = false;
        st.failed = false;
        st.data_loss = false;
        // Disarm the old deadline so its still-scheduled timer reads as
        // stale even if it fires during the backoff window; the
        // resubmission arms a fresh one.
        st.deadline_at = SimTime::ZERO;
        self.tenants[tenant].host_retries += 1;
        self.queue.schedule(now + delay, Event::HostResubmit(req_id));
        true
    }

    /// A retry backoff elapsed: resubmit the request through the host
    /// interface. The original arrival is kept so the recorded latency
    /// spans every attempt; the deadline (if armed) restarts per attempt.
    pub(super) fn on_host_resubmit(&mut self, now: SimTime, req_id: u64) {
        let index = req_id as usize;
        let st = self.requests[index];
        let mut req = self.host_request(index, st.tenant, st.arrival);
        req.deadline = self.deadline_for(usize::from(st.tenant)).map(|d| now + d);
        if self.hil.submit(req) {
            self.after_submit(now, req);
        } else {
            // Queue full: try again after the same backoff step without
            // charging an attempt (the device never saw this resubmission).
            // Completions drain the queue, so this terminates.
            let retry = self.retry.as_mut().expect("resubmissions imply retry");
            let delay = retry.backoff(st.attempts);
            self.queue.schedule(now + delay, Event::HostResubmit(req_id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry(tenants: usize) -> Retry {
        let params = RetryParams {
            max_retries: 3,
            backoff: SimDuration::from_micros(10),
            backoff_cap: SimDuration::from_micros(80),
            tenant_budget: 2,
        };
        let rng = Xorshift64Star::new(RETRY_JITTER_SEED);
        Retry { params, rng, outstanding: vec![0; tenants] }
    }

    #[test]
    fn admission_hysteresis_spans_the_watermarks_and_sheds_only_past_the_deadline() {
        // 75% / 25% of 64 slots: overload starts at 48 outstanding and
        // ends at 16.
        let params = AdmissionParams { high_pct: 75, low_pct: 25 };
        let mut adm = Admission { params, overloaded: vec![false; 2], tail_estimate_ns: 0 };
        assert_eq!(adm.verdict(0, 47, 64, None), Verdict::Accept, "below the high mark");
        assert_eq!(adm.verdict(0, 48, 64, None), Verdict::Defer, "overload starts at it");
        assert_eq!(adm.verdict(0, 30, 64, None), Verdict::Defer, "holds between the marks");
        assert_eq!(adm.verdict(0, 17, 64, None), Verdict::Defer, "holds above the low mark");
        assert_eq!(adm.verdict(1, 30, 64, None), Verdict::Accept, "flags are per tenant");
        assert_eq!(adm.verdict(0, 16, 64, None), Verdict::Accept, "overload ends at the low mark");
        assert_eq!(adm.verdict(0, 30, 64, None), Verdict::Accept, "and stays off below the high");

        // Overloaded, a request is shed only when the tail estimate
        // exceeds its deadline; otherwise, or without one, it defers.
        let deadline = Some(SimDuration::from_micros(250));
        adm.record_latency(250_000);
        assert_eq!(adm.verdict(0, 64, 64, deadline), Verdict::Defer, "tail equal to it");
        assert_eq!(adm.verdict(0, 64, 64, None), Verdict::Defer, "no deadline");
        adm.record_latency(250_001);
        assert_eq!(adm.verdict(0, 64, 64, deadline), Verdict::Shed, "tail past it");
        assert_eq!(adm.verdict(0, 64, 64, None), Verdict::Defer, "no deadline");
        // The estimate decays by 1/8 per completion: fast ones bring the
        // overloaded tenant back to deferring.
        for _ in 0..4 {
            adm.record_latency(1_000);
        }
        assert_eq!(adm.verdict(0, 64, 64, deadline), Verdict::Defer, "decayed tail");
    }

    #[test]
    fn retry_cap_and_tenant_budget_refuse_further_resubmissions() {
        let mut retry = retry(2);
        // Each request's first retry takes one of its tenant's two budget
        // slots; a third retried request of that tenant goes terminal.
        assert!(retry.grant(0, 0).is_some());
        assert!(retry.grant(0, 0).is_some());
        assert_eq!(retry.grant(0, 0), None, "tenant 0 out of budget");
        assert!(retry.grant(0, 1).is_some(), "budgets are per tenant");
        // Later attempts of an already retried request hold their slot:
        // only the cap bounds them.
        assert!(retry.grant(1, 0).is_some());
        assert!(retry.grant(2, 0).is_some());
        assert_eq!(retry.grant(3, 0), None, "cap of three resubmissions");
        // A terminal outcome frees the slot; a first attempt holds none.
        retry.settle(0, 0);
        assert_eq!(retry.grant(0, 0), None, "settling a never-retried request frees nothing");
        retry.settle(0, 3);
        assert!(retry.grant(0, 0).is_some(), "a settled retried request frees its slot");
    }

    #[test]
    fn retry_backoff_doubles_to_its_cap_with_bounded_jitter() {
        let mut retry = retry(1);
        for (attempt, step_us) in [(1, 10), (2, 20), (3, 40), (4, 80), (9, 80)] {
            let step = SimDuration::from_micros(step_us).as_nanos();
            let d = retry.backoff(attempt).as_nanos();
            assert!((step..=step + step / 2).contains(&d), "attempt {attempt}: {d} ns");
        }
    }
}
