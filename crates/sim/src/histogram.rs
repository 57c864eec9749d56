//! The workspace's one streaming histogram: log2 buckets over integer
//! ticks, with an exact merge.
//!
//! Every latency, energy, utilization and handoff distribution of the
//! fleet engine, and every rolled-up registry series, is one of these.
//! Every count and sum is an integer, so merging is exact: associative
//! and commutative bit-for-bit. That is what lets the engine fold
//! per-batch metrics in any grouping and still report byte-identical
//! results.
//!
//! ## Storage
//!
//! Bucket counts live in a dense vector indexed by bucket, so a record
//! is one index and one add, O(1) whatever the sample volume. The
//! vector reaches only up to the highest occupied bucket: at most 1,920
//! counts (15 KiB) for a histogram holding `u64::MAX` ticks, about
//! 1,100 for millisecond latencies up to a few minutes. Its length is a
//! function of its content, so equal histograms compare equal.
//! [`StreamingHistogram::resident_bytes`] still counts 16 B per
//! *occupied* bucket plus a header, the sparse figure: the telemetry
//! budget decides from that estimate, which must not depend on how the
//! buckets are stored, and a snapshot stores only the occupied buckets.
//!
//! ## Bucket scheme and error bound
//!
//! A sample is first quantized to integer **ticks** of 1e-6 value units
//! (`round(value * 1e6)`). In a millisecond histogram one tick is one
//! nanosecond, so [`StreamingHistogram::record_duration`] is exact. Ticks
//! below `SUBS` (32) each get their own exact bucket; above that, every
//! power-of-two octave is split into `SUBS` linear sub-buckets of width
//! `2^shift`. A bucket covering `[lo, lo + 2^shift)` has
//! `lo >= SUBS << shift`, so its midpoint is within `2^shift / 2` of
//! every tick in it: a quantile is within a **relative error of
//! `1/(2·SUBS) = 1/64`** of the exact nearest-rank sample, plus the
//! half-tick (5e-7 units) quantization floor. Estimates are also clamped
//! to the exact observed `[min, max]`.
//!
//! Non-finite samples are ignored (a NaN is not a 0 ms request).
//! Negative samples clamp to 0 ticks, and samples past `u64::MAX` ticks
//! saturate.

use std::fmt;

use crate::time::SimDuration;

/// Sub-buckets per octave; also the size of the exact low range.
const SUBS: u64 = 32;
/// `log2(SUBS)`.
const SUB_BITS: u32 = 5;
/// Ticks per value unit (fixed-point quantum).
const TICKS_PER_UNIT: f64 = 1e6;
/// The largest bucket index: the one `u64::MAX` ticks land in (1919).
const MAX_INDEX: u32 = bucket_index(u64::MAX);

/// Quantizes a finite sample to integer ticks: negatives clamp to zero,
/// values beyond `u64::MAX` ticks saturate.
fn to_ticks(value: f64) -> u64 {
    let scaled = (value * TICKS_PER_UNIT).round();
    if scaled <= 0.0 {
        0
    } else if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

fn from_ticks(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_UNIT
}

/// The bucket index holding `ticks`.
const fn bucket_index(ticks: u64) -> u32 {
    if ticks < SUBS {
        ticks as u32
    } else {
        let exp = 63 - ticks.leading_zeros(); // floor(log2 ticks) >= SUB_BITS
        let shift = exp - SUB_BITS;
        shift * SUBS as u32 + (ticks >> shift) as u32
    }
}

/// The inclusive lower edge and width (both in ticks) of a bucket.
/// `index` must not exceed [`MAX_INDEX`].
fn bucket_range(index: u32) -> (u64, u64) {
    let index = u64::from(index);
    if index < SUBS {
        (index, 1)
    } else {
        let shift = index / SUBS - 1;
        let sub = index - shift * SUBS; // in [SUBS, 2*SUBS)
        (sub << shift, 1 << shift)
    }
}

/// A histogram's complete state: its occupied buckets plus exact integer
/// aggregates, for checkpoint codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    /// `(bucket index, count)` pairs, strictly ascending by index, with
    /// non-zero counts.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples, in ticks.
    pub sum_ticks: u128,
    /// Smallest recorded sample, in ticks (`u64::MAX` when empty).
    pub min_ticks: u64,
    /// Largest recorded sample, in ticks (0 when empty).
    pub max_ticks: u64,
}

/// Why a [`HistogramState`] is not the state of any histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramStateError(&'static str);

impl fmt::Display for HistogramStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "impossible histogram state: {}", self.0)
    }
}

impl std::error::Error for HistogramStateError {}

/// A log2-bucketed histogram with exact integer merge.
///
/// # Examples
///
/// ```
/// use vdap_sim::{SimDuration, StreamingHistogram};
///
/// let mut a = StreamingHistogram::new("latency_ms");
/// let mut b = StreamingHistogram::new("latency_ms");
/// a.record(2.0);
/// b.record_duration(SimDuration::from_millis(4));
/// b.record(f64::NAN); // ignored
/// let mut ab = a.clone();
/// ab.merge(&b);
/// let mut ba = b.clone();
/// ba.merge(&a);
/// assert_eq!(ab, ba); // merge is commutative, bit-for-bit
/// assert_eq!(ab.count(), 2);
/// assert_eq!(ab.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingHistogram {
    name: &'static str,
    /// Samples per bucket, indexed by bucket, up to the highest occupied
    /// one (empty when no sample was recorded).
    buckets: Vec<u64>,
    /// Non-zero entries of `buckets`.
    occupied: u32,
    count: u64,
    sum_ticks: u128,
    min_ticks: u64,
    max_ticks: u64,
}

impl StreamingHistogram {
    /// An empty histogram tracking the metric `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        StreamingHistogram {
            name,
            buckets: Vec::new(),
            occupied: 0,
            count: 0,
            sum_ticks: 0,
            min_ticks: u64::MAX,
            max_ticks: 0,
        }
    }

    /// The metric name this histogram tracks.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample; non-finite samples are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.record_ticks(to_ticks(value));
        }
    }

    /// Records `n` copies of one sample in one step, leaving the same
    /// state as `n` calls of [`StreamingHistogram::record`]; non-finite
    /// samples and `n = 0` are ignored.
    pub fn record_n(&mut self, value: f64, n: u64) {
        if value.is_finite() && n > 0 {
            self.record_ticks_n(to_ticks(value), n);
        }
    }

    /// Records a duration in milliseconds, exactly: one tick per
    /// nanosecond.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record_ticks(d.as_nanos());
    }

    fn record_ticks(&mut self, ticks: u64) {
        self.record_ticks_n(ticks, 1);
    }

    /// Counts and the sum saturate, so a histogram restored near
    /// `u64::MAX` samples cannot overflow.
    fn record_ticks_n(&mut self, ticks: u64, n: u64) {
        let index = bucket_index(ticks) as usize;
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        let bucket = &mut self.buckets[index];
        if *bucket == 0 {
            self.occupied += 1;
        }
        *bucket = bucket.saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum_ticks = self
            .sum_ticks
            .saturating_add(u128::from(ticks) * u128::from(n));
        self.min_ticks = self.min_ticks.min(ticks);
        self.max_ticks = self.max_ticks.max(ticks);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, to the tick (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ticks as f64 / TICKS_PER_UNIT / self.count as f64
        }
    }

    /// Exact minimum, to the tick (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            from_ticks(self.min_ticks)
        }
    }

    /// Exact maximum, to the tick (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        from_ticks(self.max_ticks)
    }

    /// The nearest-rank `q` quantile, within `1/64` relative error plus
    /// the half-tick floor (see the module docs). `q` is clamped to
    /// `[0, 1]`; returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in (0u32..).zip(&self.buckets) {
            // An empty bucket cannot lift `seen` to the target.
            seen = seen.saturating_add(n);
            if seen >= target {
                let (lo, width) = bucket_range(index);
                let mid = lo + width / 2;
                return from_ticks(mid.clamp(self.min_ticks, self.max_ticks));
            }
        }
        self.max()
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Absorbs another histogram: bucket-count addition plus integer
    /// aggregate folds, so the merge is exact, associative, and
    /// commutative bit-for-bit. Counts and the sum saturate, which keeps
    /// all three properties.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (bucket, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            if n > 0 {
                if *bucket == 0 {
                    self.occupied += 1;
                }
                *bucket = bucket.saturating_add(n);
            }
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ticks = self.sum_ticks.saturating_add(other.sum_ticks);
        self.min_ticks = self.min_ticks.min(other.min_ticks);
        self.max_ticks = self.max_ticks.max(other.max_ticks);
    }

    /// Approximate resident bytes: a header plus 16 B per occupied
    /// bucket, the size of the histogram's state (see the module docs).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        64 + u64::from(self.occupied) * 16
    }

    /// Snapshots the complete state for a checkpoint codec.
    #[must_use]
    pub fn state(&self) -> HistogramState {
        HistogramState {
            buckets: (0u32..)
                .zip(&self.buckets)
                .filter(|&(_, &n)| n > 0)
                .map(|(index, &n)| (index, n))
                .collect(),
            count: self.count,
            sum_ticks: self.sum_ticks,
            min_ticks: self.min_ticks,
            max_ticks: self.max_ticks,
        }
    }

    /// Rebuilds a histogram from a state taken by
    /// [`StreamingHistogram::state`].
    ///
    /// # Errors
    ///
    /// Fails when no sequence of samples yields `state`: a bucket index
    /// past the one `u64::MAX` ticks land in, indices that do not
    /// strictly ascend, an empty bucket, bucket counts that overflow or
    /// do not sum to `count`, min above max, min or max outside the
    /// first or last occupied bucket, a sum outside
    /// `[count·min, count·max]`, or an empty histogram without the empty
    /// sentinels (min `u64::MAX`, max 0, sum 0).
    pub fn from_state(
        name: &'static str,
        state: HistogramState,
    ) -> Result<Self, HistogramStateError> {
        let HistogramState {
            buckets,
            count,
            sum_ticks,
            min_ticks,
            max_ticks,
        } = state;
        let mut total = 0u64;
        let mut prev = None;
        for &(index, n) in &buckets {
            if index > MAX_INDEX {
                return Err(HistogramStateError("bucket index out of range"));
            }
            if prev.is_some_and(|p| index <= p) {
                return Err(HistogramStateError("bucket indices not strictly ascending"));
            }
            if n == 0 {
                return Err(HistogramStateError("empty bucket"));
            }
            total = total
                .checked_add(n)
                .ok_or(HistogramStateError("bucket counts overflow"))?;
            prev = Some(index);
        }
        if total != count {
            return Err(HistogramStateError("bucket counts do not sum to count"));
        }
        match (buckets.first(), buckets.last()) {
            (Some(&(first, _)), Some(&(last, _))) => {
                if min_ticks > max_ticks {
                    return Err(HistogramStateError("min above max"));
                }
                if bucket_index(min_ticks) != first || bucket_index(max_ticks) != last {
                    return Err(HistogramStateError(
                        "min or max outside the first or last occupied bucket",
                    ));
                }
                let count = u128::from(count);
                if sum_ticks < count * u128::from(min_ticks)
                    || sum_ticks > count * u128::from(max_ticks)
                {
                    return Err(HistogramStateError("sum outside [count·min, count·max]"));
                }
            }
            _ => {
                if min_ticks != u64::MAX || max_ticks != 0 || sum_ticks != 0 {
                    return Err(HistogramStateError(
                        "empty histogram without the empty sentinels",
                    ));
                }
            }
        }
        let mut dense = vec![0; buckets.last().map_or(0, |&(last, _)| last as usize + 1)];
        for &(index, n) in &buckets {
            dense[index as usize] = n;
        }
        Ok(StreamingHistogram {
            name,
            buckets: dense,
            occupied: buckets.len() as u32,
            count,
            sum_ticks,
            min_ticks,
            max_ticks,
        })
    }
}

impl fmt::Display for StreamingHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.name,
            self.count,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_invertible() {
        let mut prev = None;
        for ticks in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let index = bucket_index(ticks);
            let (lo, width) = bucket_range(index);
            assert!(
                lo <= ticks && ticks - lo < width,
                "ticks {ticks} outside bucket {index} [{lo}, {lo}+{width})"
            );
            if let Some(p) = prev {
                assert!(index >= p, "bucket index must be monotone in ticks");
            }
            prev = Some(index);
        }
        assert_eq!(MAX_INDEX, 1919);
    }

    #[test]
    fn quantiles_stay_within_the_documented_relative_error() {
        let mut h = StreamingHistogram::new("lat");
        let mut values: Vec<f64> = (1..=5000).map(|i| (i as f64) * 0.37 + 0.9).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1];
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 1.0 / (2.0 * SUBS as f64) + 1e-6,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = StreamingHistogram::new("x");
        let mut b = StreamingHistogram::new("x");
        for i in 0..100 {
            a.record(f64::from(i) * 1.5);
            b.record(f64::from(i) * 40.0 + 3.0);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 200);
        let mut all = StreamingHistogram::new("x");
        for i in 0..100 {
            all.record(f64::from(i) * 1.5);
            all.record(f64::from(i) * 40.0 + 3.0);
        }
        assert_eq!(ab, all, "merge must equal recording the union directly");
    }

    #[test]
    fn empty_and_degenerate_inputs_are_safe() {
        let h = StreamingHistogram::new("empty");
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        let mut d = StreamingHistogram::new("degenerate");
        d.record(f64::NAN);
        d.record(f64::INFINITY);
        d.record(f64::NEG_INFINITY);
        assert_eq!(d.state(), h.state(), "non-finite samples are ignored");
        d.record(-5.0);
        d.record(0.0);
        assert_eq!(d.count(), 2);
        assert_eq!(d.max(), 0.0, "negatives clamp to zero ticks");
        d.record(1e300);
        assert_eq!(
            d.max(),
            u64::MAX as f64 / TICKS_PER_UNIT,
            "huge samples saturate"
        );
    }

    #[test]
    fn state_round_trips() {
        let mut h = StreamingHistogram::new("rt");
        for i in 1..=257 {
            h.record(f64::from(i) * 12.5);
        }
        let restored = StreamingHistogram::from_state("rt", h.state()).unwrap();
        assert_eq!(restored, h);
        assert_eq!(restored.p95().to_bits(), h.p95().to_bits());
        let empty = StreamingHistogram::new("none");
        assert_eq!(
            StreamingHistogram::from_state("none", empty.state()),
            Ok(empty)
        );
    }

    #[test]
    fn impossible_states_are_refused() {
        let mut h = StreamingHistogram::new("lat");
        for v in [0.5, 3.0, 3.0, 900.0] {
            h.record(v);
        }
        let good = h.state();
        type Tamper = fn(&mut HistogramState);
        let tampered: [(&str, Tamper); 11] = [
            ("index past the top bucket", |s| {
                s.buckets[2].0 = MAX_INDEX + 1
            }),
            ("index u32::MAX", |s| s.buckets[2].0 = u32::MAX),
            ("indices out of order", |s| s.buckets.swap(0, 1)),
            ("zero-count bucket", |s| s.buckets.push((MAX_INDEX, 0))),
            ("count below the buckets", |s| s.count = 1),
            ("counts wrap past u64::MAX", |s| {
                s.buckets[0].1 = u64::MAX;
                s.count = u64::MAX.wrapping_add(4);
            }),
            ("min above max", |s| s.min_ticks = 1_000_000_000),
            ("min outside the first bucket", |s| s.min_ticks = 2_000_000),
            ("max outside the last bucket", |s| s.max_ticks = 100_000_000),
            ("sum above count·max", |s| s.sum_ticks = u128::MAX),
            ("sum below count·min", |s| s.sum_ticks = 1),
        ];
        for (what, tamper) in tampered {
            let mut s = good.clone();
            tamper(&mut s);
            assert!(StreamingHistogram::from_state("lat", s).is_err(), "{what}");
        }
        let mut empty = StreamingHistogram::new("e").state();
        empty.max_ticks = 7;
        assert!(StreamingHistogram::from_state("e", empty).is_err());
        assert!(StreamingHistogram::from_state("lat", good).is_ok());
    }

    #[test]
    fn counts_and_sum_saturate_near_u64_max() {
        // A valid state of u64::MAX - 1 zero samples, as a checkpoint
        // could restore it.
        let zeros = HistogramState {
            buckets: vec![(0, u64::MAX - 1)],
            count: u64::MAX - 1,
            sum_ticks: 0,
            min_ticks: 0,
            max_ticks: 0,
        };
        let mut h = StreamingHistogram::from_state("big", zeros).unwrap();
        let mut two = StreamingHistogram::new("big");
        two.record(0.0);
        two.record(1.0);
        h.merge(&two);
        h.record(0.0);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(
            h.state().buckets,
            vec![(0, u64::MAX), (bucket_index(1_000_000), 1)]
        );
        assert_eq!(h.p99(), 0.0);
        // u64::MAX - 1 samples of u64::MAX ticks: one more saturates the
        // u128 sum.
        let top = HistogramState {
            buckets: vec![(MAX_INDEX, u64::MAX - 1)],
            count: u64::MAX - 1,
            sum_ticks: u128::from(u64::MAX - 1) * u128::from(u64::MAX),
            min_ticks: u64::MAX,
            max_ticks: u64::MAX,
        };
        let mut h = StreamingHistogram::from_state("top", top).unwrap();
        h.record_n(1e300, 2);
        h.merge(&h.clone());
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.state().sum_ticks, u128::MAX);
    }

    #[test]
    fn min_max_clamp_the_estimate() {
        let mut h = StreamingHistogram::new("clamp");
        h.record(1000.0);
        assert_eq!(h.p50(), 1000.0, "single sample estimates exactly");
        assert_eq!(h.p99(), 1000.0);
    }

    /// The sparse `BTreeMap` histogram the dense bucket vector replaced,
    /// kept as the differential test's independent truth.
    mod reference {
        use std::collections::BTreeMap;

        use super::super::{bucket_index, bucket_range, from_ticks, to_ticks};
        use crate::{HistogramState, SimDuration};

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Histogram {
            buckets: BTreeMap<u32, u64>,
            count: u64,
            sum_ticks: u128,
            min_ticks: u64,
            max_ticks: u64,
        }

        impl Histogram {
            pub fn new() -> Self {
                Histogram {
                    buckets: BTreeMap::new(),
                    count: 0,
                    sum_ticks: 0,
                    min_ticks: u64::MAX,
                    max_ticks: 0,
                }
            }

            pub fn record(&mut self, value: f64) {
                if value.is_finite() {
                    self.record_ticks_n(to_ticks(value), 1);
                }
            }

            pub fn record_n(&mut self, value: f64, n: u64) {
                if value.is_finite() && n > 0 {
                    self.record_ticks_n(to_ticks(value), n);
                }
            }

            pub fn record_duration(&mut self, d: SimDuration) {
                self.record_ticks_n(d.as_nanos(), 1);
            }

            fn record_ticks_n(&mut self, ticks: u64, n: u64) {
                let bucket = self.buckets.entry(bucket_index(ticks)).or_insert(0);
                *bucket = bucket.saturating_add(n);
                self.count = self.count.saturating_add(n);
                self.sum_ticks = self
                    .sum_ticks
                    .saturating_add(u128::from(ticks) * u128::from(n));
                self.min_ticks = self.min_ticks.min(ticks);
                self.max_ticks = self.max_ticks.max(ticks);
            }

            pub fn merge(&mut self, other: &Histogram) {
                for (&index, &n) in &other.buckets {
                    let bucket = self.buckets.entry(index).or_insert(0);
                    *bucket = bucket.saturating_add(n);
                }
                self.count = self.count.saturating_add(other.count);
                self.sum_ticks = self.sum_ticks.saturating_add(other.sum_ticks);
                self.min_ticks = self.min_ticks.min(other.min_ticks);
                self.max_ticks = self.max_ticks.max(other.max_ticks);
            }

            pub fn mean(&self) -> f64 {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum_ticks as f64 / 1e6 / self.count as f64
                }
            }

            pub fn min(&self) -> f64 {
                if self.count == 0 {
                    0.0
                } else {
                    from_ticks(self.min_ticks)
                }
            }

            pub fn max(&self) -> f64 {
                from_ticks(self.max_ticks)
            }

            pub fn quantile(&self, q: f64) -> f64 {
                if self.count == 0 {
                    return 0.0;
                }
                let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
                let mut seen = 0u64;
                for (&index, &n) in &self.buckets {
                    seen = seen.saturating_add(n);
                    if seen >= target {
                        let (lo, width) = bucket_range(index);
                        let mid = lo + width / 2;
                        return from_ticks(mid.clamp(self.min_ticks, self.max_ticks));
                    }
                }
                self.max()
            }

            pub fn resident_bytes(&self) -> u64 {
                64 + self.buckets.len() as u64 * 16
            }

            pub fn state(&self) -> HistogramState {
                HistogramState {
                    buckets: self.buckets.iter().map(|(&i, &n)| (i, n)).collect(),
                    count: self.count,
                    sum_ticks: self.sum_ticks,
                    min_ticks: self.min_ticks,
                    max_ticks: self.max_ticks,
                }
            }

            /// Rebuilds a histogram from a state the caller has checked.
            pub fn from_state(state: HistogramState) -> Self {
                Histogram {
                    buckets: state.buckets.into_iter().collect(),
                    count: state.count,
                    sum_ticks: state.sum_ticks,
                    min_ticks: state.min_ticks,
                    max_ticks: state.max_ticks,
                }
            }
        }
    }

    /// Whether `fast` reads exactly as the reference `slow` does: its
    /// state, mean, min, max, p0/p50/p95/p99/p100 and resident bytes.
    fn same_reading(fast: &StreamingHistogram, slow: &reference::Histogram) -> Result<(), String> {
        macro_rules! reading {
            ($h:expr) => {
                [
                    $h.mean(),
                    $h.min(),
                    $h.max(),
                    $h.quantile(0.0),
                    $h.quantile(0.5),
                    $h.quantile(0.95),
                    $h.quantile(0.99),
                    $h.quantile(1.0),
                ]
                .map(f64::to_bits)
            };
        }
        let (f, s) = (reading!(fast), reading!(slow));
        if fast.state() != slow.state() {
            Err(format!(
                "state {:?}, reference {:?}",
                fast.state(),
                slow.state()
            ))
        } else if f != s {
            Err(format!("reading {f:x?}, reference {s:x?}"))
        } else if fast.resident_bytes() != slow.resident_bytes() {
            Err(format!(
                "resident {} B, reference {} B",
                fast.resident_bytes(),
                slow.resident_bytes()
            ))
        } else {
            Ok(())
        }
    }

    /// Replays `ops` on two dense histograms and two references: each op
    /// is `(kind, pick, raw, exp)`, where `kind % 2` picks the target
    /// and `kind / 2` is 0 record, 1 `record_n`, 2 `record_duration`,
    /// 3 merge the other histogram in, 4 a `from_state` round trip and
    /// 5 a copy of the other histogram. `pick` selects the sample:
    /// `10^exp` or an edge value (0, negative, non-finite, at or past
    /// `u64::MAX` ticks). Returns the first divergence, if any.
    fn hist_replay(ops: &[(u8, usize, u64, f64)]) -> Result<(), String> {
        let mut fast = [StreamingHistogram::new("d"), StreamingHistogram::new("d")];
        let mut slow = [reference::Histogram::new(), reference::Histogram::new()];
        for (i, &(kind, pick, raw, exp)) in ops.iter().enumerate() {
            let (t, o) = (usize::from(kind % 2), usize::from(1 - kind % 2));
            let value = [
                10f64.powf(exp),
                0.0,
                -5.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                u64::MAX as f64 / TICKS_PER_UNIT,
                -(10f64.powf(exp)),
                (10f64.powf(exp) * 1e3).round() / 1e3,
            ][pick];
            match kind / 2 {
                0 => {
                    fast[t].record(value);
                    slow[t].record(value);
                }
                1 => {
                    fast[t].record_n(value, raw % 40);
                    slow[t].record_n(value, raw % 40);
                }
                2 => {
                    let ticks = match pick {
                        0 | 1 => u64::MAX,
                        2 => 0,
                        _ => raw >> (raw % 64),
                    };
                    fast[t].record_duration(SimDuration::from_nanos(ticks));
                    slow[t].record_duration(SimDuration::from_nanos(ticks));
                }
                3 => {
                    let (f, s) = (fast[o].clone(), slow[o].clone());
                    fast[t].merge(&f);
                    slow[t].merge(&s);
                }
                4 => {
                    fast[t] = StreamingHistogram::from_state("d", fast[t].state())
                        .map_err(|e| format!("op {i}: {e}"))?;
                    slow[t] = reference::Histogram::from_state(slow[t].state());
                }
                _ => {
                    fast[t] = fast[o].clone();
                    slow[t] = slow[o].clone();
                }
            }
            for (f, s) in fast.iter().zip(&slow) {
                same_reading(f, s).map_err(|e| format!("op {i}: {e}"))?;
            }
            if (fast[0] == fast[1]) != (slow[0] == slow[1]) {
                return Err(format!("op {i}: equality differs from the reference"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn dense_buckets_read_as_the_sparse_reference(
            ops in proptest::prop::collection::vec(
                (0u8..12, 0usize..10, proptest::prelude::any::<u64>(), -3.0f64..12.0),
                0..120,
            ),
        ) {
            let replay = hist_replay(&ops);
            proptest::prop_assert!(replay.is_ok(), "{}", replay.unwrap_err());
        }
    }
}
