//! Statistics collection: latency distributions and the summary helpers the
//! figure harnesses use (percentiles, CDFs, geometric means).

use crate::SimDuration;

/// A latency sample set with exact percentile and CDF extraction.
///
/// Stores every observation (as nanoseconds); the simulator produces at most
/// a few hundred thousand request latencies per run, so exact storage is
/// cheaper and more faithful than a sketch. Sorting is deferred and cached.
///
/// # Example
///
/// ```
/// use venice_sim::stats::LatencySamples;
/// use venice_sim::SimDuration;
/// let mut l = LatencySamples::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     l.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(l.percentile(0.5), SimDuration::from_micros(3));
/// assert_eq!(l.percentile(0.99), SimDuration::from_micros(100));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencySamples {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencySamples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        LatencySamples {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&x| u128::from(x)).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Exact percentile (nearest-rank), `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the sample set is empty or `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> SimDuration {
        assert!(!self.samples.is_empty(), "percentile of empty sample set");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        SimDuration::from_nanos(self.samples[rank - 1])
    }

    /// The tail of the distribution as a CDF over the slowest `1 - from_q`
    /// fraction of requests: returns `(latency, cumulative_fraction)` pairs
    /// at `points` evenly spaced quantiles in `[from_q, 1]`.
    ///
    /// This is exactly the presentation of the paper's Figure 11 (a CDF
    /// zoomed into the 99th percentile).
    pub fn tail_cdf(&mut self, from_q: f64, points: usize) -> Vec<(SimDuration, f64)> {
        assert!(points >= 2, "need at least two CDF points");
        if self.samples.is_empty() {
            return Vec::new();
        }
        (0..points)
            .map(|i| {
                let q = from_q + (1.0 - from_q) * i as f64 / (points - 1) as f64;
                (self.percentile(q.min(1.0)), q)
            })
            .collect()
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &LatencySamples) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Geometric mean of a sequence of positive values; the paper reports GMEAN
/// speedups across workloads.
///
/// Returns zero for an empty iterator.
///
/// # Example
///
/// ```
/// let g = venice_sim::stats::geometric_mean([1.0, 4.0].into_iter());
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for v in values {
        assert!(v > 0.0, "geometric mean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean of a sequence (zero for an empty iterator).
pub fn arithmetic_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let l = LatencySamples::new();
        assert!(l.is_empty());
        assert_eq!(l.mean(), SimDuration::ZERO);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut l = LatencySamples::new();
        for ns in 1..=100u64 {
            l.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(l.percentile(0.01), SimDuration::from_nanos(1));
        assert_eq!(l.percentile(0.5), SimDuration::from_nanos(50));
        assert_eq!(l.percentile(0.99), SimDuration::from_nanos(99));
        assert_eq!(l.percentile(1.0), SimDuration::from_nanos(100));
    }

    #[test]
    fn tail_cdf_is_monotone() {
        let mut l = LatencySamples::new();
        let mut rng = crate::rng::Xorshift64Star::new(31);
        for _ in 0..10_000 {
            l.record(SimDuration::from_nanos(rng.next_bounded(1_000_000)));
        }
        let cdf = l.tail_cdf(0.95, 21);
        assert_eq!(cdf.len(), 21);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "latencies must be non-decreasing");
            assert!(w[0].1 <= w[1].1, "quantiles must be non-decreasing");
        }
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
        let g = geometric_mean([2.0, 8.0].into_iter());
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean([1.0, 0.0].into_iter());
    }

    #[test]
    fn arithmetic_mean_basics() {
        assert_eq!(arithmetic_mean(std::iter::empty()), 0.0);
        assert_eq!(arithmetic_mean([1.0, 2.0, 3.0].into_iter()), 2.0);
    }

    #[test]
    fn latency_merge_combines() {
        let mut a = LatencySamples::new();
        let mut b = LatencySamples::new();
        a.record(SimDuration::from_nanos(10));
        b.record(SimDuration::from_nanos(30));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), SimDuration::from_nanos(20));
    }
}
