//! Synthetic trace generation calibrated to first-order trace statistics.
//!
//! The paper evaluates on nineteen real enterprise/datacenter traces; those
//! files are external artifacts, so this module generates synthetic traces
//! whose Table 2 statistics (read ratio, mean request size, mean
//! inter-arrival time) match the published numbers, with address-pattern
//! knobs (footprint, Zipfian skew, sequential fraction) chosen per workload
//! class. Path conflicts are driven by arrival intensity versus service rate
//! and by which chips requests touch, both of which these statistics govern,
//! so the substitution preserves what the paper measures.

use venice_sim::rng::{Xorshift64Star, ZipfSampler};
use venice_sim::{SimDuration, SimTime};

use crate::{IoOp, Trace, TraceEvent};

/// Logical sector granularity requests are aligned to (4 KiB, the unit real
/// traces use for SSD studies).
pub const SECTOR_BYTES: u64 = 4096;

/// A synthetic workload specification.
///
/// # Example
///
/// ```
/// use venice_workloads::WorkloadSpec;
/// let spec = WorkloadSpec::new("demo", 70.0, 16.0, 50.0);
/// let trace = spec.generate(1_000);
/// let stats = trace.stats();
/// assert!((stats.read_pct - 70.0).abs() < 5.0);
/// assert!((stats.avg_interarrival_us - 50.0) / 50.0 < 0.15);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Percentage of reads (Table 2 column 2).
    pub read_pct: f64,
    /// Mean request size in KiB (Table 2 column 3).
    pub avg_request_kb: f64,
    /// Mean inter-arrival time in µs (Table 2 column 4).
    pub avg_interarrival_us: f64,
    /// Logical footprint in MiB.
    pub footprint_mb: u64,
    /// Zipfian skew of random accesses (0 = uniform).
    pub zipf_theta: f64,
    /// Fraction of requests that continue a sequential stream.
    pub seq_fraction: f64,
    /// Log-normal shape for request sizes (0 = constant size).
    pub size_sigma: f64,
    /// Mean burst length: requests arrive in geometric bursts of this mean
    /// size separated by long gaps, keeping the overall mean inter-arrival
    /// at `avg_interarrival_us`. `1.0` degenerates to a Poisson stream.
    /// Real enterprise traces are strongly bursty, and burstiness is what
    /// exposes path conflicts (transient per-channel backlogs).
    pub burst_mean: f64,
    /// Gap between requests inside a burst, µs.
    pub intra_burst_gap_us: f64,
    /// RNG seed (same seed ⇒ identical trace).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Creates a spec with the three Table 2 statistics and default pattern
    /// knobs (4 GiB footprint, mild skew, mixed random/sequential).
    pub fn new(
        name: impl Into<String>,
        read_pct: f64,
        avg_request_kb: f64,
        avg_interarrival_us: f64,
    ) -> Self {
        let name = name.into();
        // Stable per-name seed so every run of a named workload is identical.
        let seed = name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
            });
        WorkloadSpec {
            name,
            read_pct,
            avg_request_kb,
            avg_interarrival_us,
            footprint_mb: 4096,
            zipf_theta: 0.9,
            seq_fraction: 0.2,
            size_sigma: 0.6,
            burst_mean: 12.0,
            intra_burst_gap_us: 0.3,
            seed,
        }
    }

    /// Sets the logical footprint in MiB.
    pub fn footprint_mb(mut self, mb: u64) -> Self {
        self.footprint_mb = mb;
        self
    }

    /// Sets the Zipfian skew of random accesses.
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.zipf_theta = theta;
        self
    }

    /// Sets the sequential-stream fraction.
    pub fn seq_fraction(mut self, f: f64) -> Self {
        self.seq_fraction = f;
        self
    }

    /// Sets the request-size shape parameter.
    pub fn size_sigma(mut self, sigma: f64) -> Self {
        self.size_sigma = sigma;
        self
    }

    /// Sets the mean burst length (1 = pure Poisson arrivals).
    pub fn burst_mean(mut self, mean: f64) -> Self {
        self.burst_mean = mean.max(1.0);
        self
    }

    /// Sets the intra-burst request gap, in µs.
    pub fn intra_burst_gap_us(mut self, gap: f64) -> Self {
        self.intra_burst_gap_us = gap.max(0.0);
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates a trace of `requests` requests.
    ///
    /// Inter-arrivals are exponential (an open-loop Poisson host), request
    /// sizes log-normal around the target mean (aligned to 4 KiB sectors),
    /// and addresses mix a sequential stream with scrambled-Zipfian random
    /// accesses, YCSB style.
    pub fn generate(&self, requests: usize) -> Trace {
        let mut rng = Xorshift64Star::new(self.seed);
        let footprint = self.footprint_mb * 1024 * 1024;
        let sectors = (footprint / SECTOR_BYTES).max(1);
        let zipf = ZipfSampler::new(sectors, self.zipf_theta);
        let mut events = Vec::with_capacity(requests);
        let mut clock = SimTime::ZERO;
        let mut seq_ptr: u64 = rng.next_bounded(sectors);
        // Burst state: how many requests remain in the current burst.
        let mut burst_left: u64 = 0;
        // Intra-burst gaps "spend" part of the time budget; the inter-burst
        // gap carries the rest so the overall mean stays on target.
        let intra_ns = (self.intra_burst_gap_us * 1_000.0).min(self.avg_interarrival_us * 500.0);
        for _ in 0..requests {
            if burst_left > 0 {
                burst_left -= 1;
                clock += SimDuration::from_nanos_f64(intra_ns);
            } else {
                // Geometric burst length with the configured mean.
                let p = 1.0 / self.burst_mean.max(1.0);
                let mut len = 1u64;
                while !rng.next_bool(p) && len < 10_000 {
                    len += 1;
                }
                burst_left = len - 1;
                // Inter-burst gap: the burst's whole time budget minus what
                // its intra-burst gaps will consume.
                let budget = self.avg_interarrival_us * 1_000.0 * len as f64;
                let gap = (budget - intra_ns * (len - 1) as f64).max(intra_ns);
                clock += SimDuration::from_nanos_f64(rng.next_exp(gap));
            }
            let op = if rng.next_bool(self.read_pct / 100.0) {
                IoOp::Read
            } else {
                IoOp::Write
            };
            // Size: log-normal mean-matched, ≥ 1 sector, aligned to sectors.
            let raw_kb = if self.size_sigma <= f64::EPSILON {
                self.avg_request_kb
            } else {
                rng.next_lognormal(self.avg_request_kb, self.size_sigma)
            };
            let sectors_len = ((raw_kb * 1024.0 / SECTOR_BYTES as f64).round() as u64)
                .clamp(1, sectors);
            // Address: continue the sequential stream or jump Zipf-random.
            let start_sector = if rng.next_bool(self.seq_fraction) {
                seq_ptr
            } else {
                // Scramble the Zipf rank so hot pages spread over the space.
                let rank = zipf.sample(&mut rng);
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % sectors
            };
            let start_sector = start_sector.min(sectors - sectors_len.min(sectors));
            seq_ptr = (start_sector + sectors_len) % sectors;
            events.push(TraceEvent {
                arrival: clock,
                op,
                offset: start_sector * SECTOR_BYTES,
                bytes: (sectors_len * SECTOR_BYTES) as u32,
            });
        }
        Trace::new(self.name.clone(), footprint, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_stats_match_spec() {
        let spec = WorkloadSpec::new("cal", 80.0, 32.0, 25.0).footprint_mb(1024);
        let t = spec.generate(20_000);
        let s = t.stats();
        assert!((s.read_pct - 80.0).abs() < 1.5, "read% {}", s.read_pct);
        assert!(
            (s.avg_interarrival_us - 25.0).abs() / 25.0 < 0.05,
            "interarrival {}",
            s.avg_interarrival_us
        );
        // Log-normal quantization inflates small means slightly; stay loose.
        assert!(
            (s.avg_request_kb - 32.0).abs() / 32.0 < 0.15,
            "size {}",
            s.avg_request_kb
        );
        assert!(s.max_offset <= t.footprint_bytes());
    }

    #[test]
    fn same_seed_same_trace() {
        let a = WorkloadSpec::new("x", 50.0, 8.0, 100.0).generate(100);
        let b = WorkloadSpec::new("x", 50.0, 8.0, 100.0).generate(100);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_names_differ() {
        let a = WorkloadSpec::new("x", 50.0, 8.0, 100.0).generate(50);
        let b = WorkloadSpec::new("y", 50.0, 8.0, 100.0).generate(50);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn sequential_fraction_produces_runs() {
        let seq = WorkloadSpec::new("s", 100.0, 4.0, 10.0)
            .seq_fraction(1.0)
            .size_sigma(0.0)
            .generate(100);
        // With 100% sequentiality each request begins where the last ended
        // (modulo footprint clamping).
        let mut runs = 0;
        for w in seq.events().windows(2) {
            if w[1].offset == w[0].offset + u64::from(w[0].bytes) {
                runs += 1;
            }
        }
        assert!(runs > 90, "sequential runs {runs}");
    }

    #[test]
    fn zero_sigma_gives_constant_sizes() {
        let t = WorkloadSpec::new("c", 50.0, 16.0, 10.0)
            .size_sigma(0.0)
            .generate(50);
        assert!(t.events().iter().all(|e| e.bytes == 16 * 1024));
    }

    #[test]
    fn events_are_time_sorted_and_in_footprint() {
        let t = WorkloadSpec::new("chk", 30.0, 64.0, 5.0)
            .footprint_mb(256)
            .generate(5_000);
        for w in t.events().windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for e in t.events() {
            assert!(e.offset % SECTOR_BYTES == 0);
            assert!(e.offset + u64::from(e.bytes) <= t.footprint_bytes());
        }
    }
}
