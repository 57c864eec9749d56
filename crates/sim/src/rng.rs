//! Deterministic random-number streams.
//!
//! Every stochastic component in the reproduction (channel loss, workload
//! jitter, synthetic telemetry, ...) draws from a [`RngStream`] derived
//! from a single scenario seed plus a component label. Streams derived
//! from the same `(seed, label)` pair always produce the same sequence, so
//! entire experiments are reproducible bit-for-bit while remaining
//! statistically independent across components.

// The generator is a self-contained xoshiro256++ (public-domain
// algorithm by Blackman & Vigna) seeded through SplitMix64, so the
// kernel has no external RNG dependency and sequences are stable across
// toolchains.

use crate::hash::{fnv1a64, splitmix64};

/// A factory that derives independent, reproducible RNG streams from one
/// master seed.
///
/// # Examples
///
/// ```
/// use vdap_sim::SeedFactory;
///
/// let factory = SeedFactory::new(42);
/// let mut a1 = factory.stream("channel");
/// let mut a2 = factory.stream("channel");
/// let mut b = factory.stream("telemetry");
///
/// // Same label => identical stream; different label => different stream.
/// assert_eq!(a1.next_u64(), a2.next_u64());
/// assert_ne!(factory.stream("channel").next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedFactory {
    master: u64,
}

impl SeedFactory {
    /// Creates a factory from a master scenario seed.
    #[must_use]
    pub fn new(master: u64) -> Self {
        SeedFactory { master }
    }

    /// Derives a stream for a named component.
    #[must_use]
    pub fn stream(&self, label: &str) -> RngStream {
        RngStream::from_seed_label(self.master, label)
    }

    /// Derives a stream for a named component plus an index, for per-entity
    /// streams such as one per vehicle.
    #[must_use]
    pub fn indexed_stream(&self, label: &str, index: u64) -> RngStream {
        let mixed = splitmix64(self.master ^ fnv1a64(label.as_bytes()) ^ splitmix64(index));
        RngStream::from_raw_seed(mixed)
    }
}

/// A deterministic random stream (xoshiro256++ seeded via SplitMix64).
#[derive(Debug, Clone)]
pub struct RngStream {
    state: [u64; 4],
}

impl RngStream {
    /// Creates a stream directly from a raw 64-bit seed.
    #[must_use]
    pub fn from_raw_seed(seed: u64) -> Self {
        // Expand the seed through SplitMix64 as the xoshiro authors
        // recommend; a zero state is impossible this way.
        let mut x = splitmix64(seed);
        let mut state = [0u64; 4];
        for s in &mut state {
            x = splitmix64(x);
            *s = x;
        }
        RngStream { state }
    }

    /// Creates a stream from a master seed and component label.
    #[must_use]
    pub fn from_seed_label(master: u64, label: &str) -> Self {
        Self::from_raw_seed(master ^ fnv1a64(label.as_bytes()))
    }

    /// The raw xoshiro256++ state words, for checkpointing a stream
    /// mid-sequence.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Rebuilds a stream from previously captured state words.
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state, which xoshiro cannot leave.
    #[must_use]
    pub fn from_state(state: [u64; 4]) -> Self {
        assert!(state != [0; 4], "xoshiro state cannot be all-zero");
        RngStream { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform value in `[0, 1)` (53-bit resolution).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi` or either bound is non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method: unbiased and fast.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard-normal sample via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        // Box–Muller needs u1 in (0, 1]; guard against a zero draw.
        let mut u1 = self.uniform();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Exponentially distributed sample with the given mean (`1/λ`).
    ///
    /// # Panics
    ///
    /// Panics when `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let mut u = self.uniform();
        if u <= f64::MIN_POSITIVE {
            u = f64::MIN_POSITIVE;
        }
        -mean * u.ln()
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.below(items.len() as u64) as usize;
            Some(&items[idx])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let f = SeedFactory::new(7);
        let xs: Vec<u64> = {
            let mut s = f.stream("x");
            (0..32).map(|_| s.next_u64()).collect()
        };
        let ys: Vec<u64> = {
            let mut s = f.stream("x");
            (0..32).map(|_| s.next_u64()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_diverge() {
        let f = SeedFactory::new(7);
        assert_ne!(f.stream("a").next_u64(), f.stream("b").next_u64());
    }

    #[test]
    fn indexed_streams_diverge() {
        let f = SeedFactory::new(7);
        let mut a = f.indexed_stream("vehicle", 0);
        let mut b = f.indexed_stream("vehicle", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut s = RngStream::from_raw_seed(3);
        for _ in 0..10_000 {
            let u = s.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes_are_deterministic() {
        let mut s = RngStream::from_raw_seed(3);
        assert!(!s.chance(0.0));
        assert!(s.chance(1.0));
        assert!(!s.chance(-0.5));
        assert!(s.chance(1.5));
    }

    #[test]
    fn normal_sample_statistics() {
        let mut s = RngStream::from_raw_seed(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.25, "variance was {var}");
    }

    #[test]
    fn exponential_sample_statistics() {
        let mut s = RngStream::from_raw_seed(13);
        let n = 20_000;
        let mean = (0..n).map(|_| s.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut s = RngStream::from_raw_seed(17);
        for _ in 0..1_000 {
            assert!(s.below(5) < 5);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut s = RngStream::from_raw_seed(19);
        let mut v: Vec<u32> = (0..64).collect();
        s.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn state_round_trip_resumes_mid_sequence() {
        let mut s = RngStream::from_raw_seed(29);
        for _ in 0..100 {
            s.next_u64();
        }
        let mut resumed = RngStream::from_state(s.state());
        for _ in 0..100 {
            assert_eq!(resumed.next_u64(), s.next_u64());
        }
    }

    #[test]
    fn pick_handles_empty() {
        let mut s = RngStream::from_raw_seed(23);
        let empty: [u8; 0] = [];
        assert!(s.pick(&empty).is_none());
        assert!(s.pick(&[1, 2, 3]).is_some());
    }
}
