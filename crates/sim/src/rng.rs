//! Deterministic random number generation.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms,
//! so it carries its own small generators instead of depending on an external
//! RNG crate:
//!
//! * [`Xorshift64Star`] — the workhorse PRNG used by workload generators and
//!   tie-breaking policies,
//! * [`Lfsr2`] — the 2-bit linear-feedback shift register the Venice paper
//!   places in each router chip for pseudo-random output-port selection
//!   (§4.3, referencing Wang & McCluskey).
//!
//! Distributions (exponential, log-normal, bounded uniform) are methods on
//! [`Xorshift64Star`] because every caller in this workspace uses exactly
//! that generator; Zipf ranks come from [`ZipfSampler`], which precomputes
//! its normalization.

/// An `xorshift64*` pseudo-random generator.
///
/// Small, fast, and deterministic: the same seed always produces the same
/// stream on every platform. Quality is far beyond what a workload generator
/// needs (it passes BigCrush except for the lowest bits, which we never use
/// in isolation).
///
/// # Example
///
/// ```
/// use venice_sim::rng::Xorshift64Star;
/// let mut a = Xorshift64Star::new(42);
/// let mut b = Xorshift64Star::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from `seed`. A zero seed is remapped to a fixed
    /// non-zero constant (the xorshift state must never be zero).
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        Xorshift64Star { state }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // simulation purposes and the result stays deterministic.
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for inter-arrival times (an open-loop Poisson host).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // Inverse-CDF; guard the log argument away from zero.
        let u = self.next_f64().max(1e-12);
        -mean * u.ln()
    }

    /// Log-normally distributed sample parameterized by its *mean* and the
    /// shape `sigma` (the standard deviation of the underlying normal).
    ///
    /// Used for request sizes, which are right-skewed in real traces.
    pub fn next_lognormal(&mut self, mean: f64, sigma: f64) -> f64 {
        // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        let mu = mean.ln() - sigma * sigma / 2.0;
        let n = self.next_standard_normal();
        (mu + sigma * n).exp()
    }

    /// Standard normal sample via Box–Muller.
    pub fn next_standard_normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A Zipf(θ) rank sampler: the approximate inverse transform of YCSB's
/// scrambled-Zipfian generator, with the harmonic normalization computed
/// once at construction, since a workload generator draws hundreds of
/// thousands of ranks from one distribution.
///
/// `theta = 0` degenerates to uniform; larger values concentrate
/// probability on low ranks.
///
/// # Example
///
/// ```
/// use venice_sim::rng::{Xorshift64Star, ZipfSampler};
/// let mut rng = Xorshift64Star::new(1);
/// let zipf = ZipfSampler::new(1_000_000, 0.9);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Creates a sampler over ranks `[0, n)` with exponent `theta ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf population must be positive");
        let nf = n as f64;
        let zetan = zeta_approx(nf, theta);
        let eta = if theta <= f64::EPSILON {
            0.0
        } else {
            (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta_approx(2.0, theta) / zetan)
        };
        ZipfSampler {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Xorshift64Star) -> u64 {
        if self.theta <= f64::EPSILON {
            return rng.next_bounded(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Approximation of the generalized harmonic number `H_{n,theta}` used by the
/// Zipf sampler; exact summation for small `n`, Euler–Maclaurin style
/// approximation for large `n`.
fn zeta_approx(n: f64, theta: f64) -> f64 {
    let n_int = n as u64;
    if n_int <= 10_000 {
        (1..=n_int).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        // Integral tail approximation.
        head + ((n.powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta))
    }
}

/// The 2-bit maximal-length LFSR the Venice router uses to choose between two
/// candidate output ports (§4.3 of the paper).
///
/// A 2-bit Fibonacci LFSR with taps on both bits cycles through the three
/// non-zero states `01 → 10 → 11 → 01 …`; [`Lfsr2::next_bit`] extracts the
/// low bit, producing a cheap pseudo-random bit stream implementable in a few
/// gates — exactly what a router chip can afford.
///
/// # Example
///
/// ```
/// use venice_sim::rng::Lfsr2;
/// let mut lfsr = Lfsr2::new();
/// // Period of the state sequence is 3.
/// let s0 = lfsr.state();
/// lfsr.next_bit();
/// lfsr.next_bit();
/// lfsr.next_bit();
/// assert_eq!(lfsr.state(), s0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lfsr2 {
    state: u8, // 2 bits, never zero
}

impl Default for Lfsr2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Lfsr2 {
    /// Creates an LFSR in state `01`.
    pub fn new() -> Self {
        Lfsr2 { state: 0b01 }
    }

    /// Creates an LFSR with a chosen non-zero 2-bit state (the low two bits
    /// of `seed`; zero is remapped to `01`).
    pub fn with_seed(seed: u8) -> Self {
        let s = seed & 0b11;
        Lfsr2 {
            state: if s == 0 { 0b01 } else { s },
        }
    }

    /// Current 2-bit state (never zero).
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Advances the register by `draws` output bits, discarding them — the
    /// replay helper for paths that skip a deterministic computation whose
    /// draw count is known (the scout fast-fail cache): the register ends in
    /// exactly the state the skipped computation would have left it in.
    ///
    /// The 2-bit LFSR's state sequence has period 3, so only `draws % 3`
    /// steps are taken; replay cost is O(1) regardless of the recorded count.
    pub fn advance(&mut self, draws: u32) {
        for _ in 0..(draws % 3) {
            self.next_bit();
        }
    }

    /// Advances the register and returns the output bit.
    pub fn next_bit(&mut self) -> bool {
        let b1 = (self.state >> 1) & 1;
        let b0 = self.state & 1;
        let feedback = b1 ^ b0;
        self.state = ((self.state << 1) | feedback) & 0b11;
        debug_assert_ne!(self.state, 0, "2-bit LFSR must never reach zero");
        self.state & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = Xorshift64Star::new(7);
        let mut b = Xorshift64Star::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Xorshift64Star::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xorshift64Star::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = Xorshift64Star::new(11);
        for _ in 0..10_000 {
            assert!(r.next_bounded(13) < 13);
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Xorshift64Star::new(5);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(42.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 42.0).abs() / 42.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_mean_is_close() {
        let mut r = Xorshift64Star::new(9);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.next_lognormal(16.0, 0.8)).sum();
        let mean = sum / n as f64;
        assert!((mean - 16.0).abs() / 16.0 < 0.05, "mean {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = Xorshift64Star::new(13);
        let n = 1000;
        let mut counts = vec![0u32; n as usize];
        let zipf = ZipfSampler::new(n, 0.9);
        for _ in 0..100_000 {
            let k = zipf.sample(&mut r);
            assert!(k < n);
            counts[k as usize] += 1;
        }
        // Rank 0 must be far more popular than a mid-pack rank.
        assert!(counts[0] > 10 * counts[500].max(1));
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut r = Xorshift64Star::new(17);
        let n = 10;
        let mut counts = vec![0u32; n as usize];
        let zipf = ZipfSampler::new(n, 0.0);
        for _ in 0..100_000 {
            counts[zipf.sample(&mut r) as usize] += 1;
        }
        for &c in &counts {
            assert!((7_000..13_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn lfsr_cycles_through_three_states() {
        let mut l = Lfsr2::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            seen.insert(l.state());
            l.next_bit();
        }
        assert_eq!(seen.len(), 3);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn lfsr_seed_zero_remaps() {
        assert_ne!(Lfsr2::with_seed(0).state(), 0);
        assert_eq!(Lfsr2::with_seed(0b10).state(), 0b10);
    }

    #[test]
    fn bernoulli_probability_is_close() {
        let mut r = Xorshift64Star::new(23);
        let hits = (0..100_000).filter(|_| r.next_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }
}
