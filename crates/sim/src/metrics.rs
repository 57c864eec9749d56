//! Measurement primitives shared by every experiment harness.
//!
//! [`Summary`] is an exact small-sample summary used when the full
//! sample set fits in memory; unbounded streams go to the mergeable
//! [`crate::StreamingHistogram`]. [`Counter`] and [`TimeSeries`] support
//! rate and trend reporting.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use vdap_sim::Counter;
///
/// let mut packets = Counter::new("packets_sent");
/// packets.add(3);
/// packets.incr();
/// assert_eq!(packets.value(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with a diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// Adds `n` to the counter, saturating.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This counter as a fraction of `total` (0 when `total` is 0).
    #[must_use]
    pub fn rate_of(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.value as f64 / total as f64
        }
    }
}

/// Exact summary statistics over an in-memory sample set.
///
/// Quantiles sort lazily into a cached side buffer, so read-only
/// consumers can take quantiles through `&self`; recording invalidates
/// the cache.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: std::sync::OnceLock<Vec<f64>>,
}

impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn record(&mut self, sample: f64) {
        if sample.is_finite() {
            self.samples.push(sample);
            self.sorted.take();
        }
    }

    /// Records a duration sample in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sample standard deviation, or 0 with fewer than two samples.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// Minimum sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        let m = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Maximum sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        let m = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Exact quantile by nearest-rank (q clamped to `[0, 1]`); 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut v = self.samples.clone();
            v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            v
        });
        let q = q.clamp(0.0, 1.0);
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }

    /// Median (p50).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Borrow the raw samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for s in iter {
            self.record(s);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// A `(time, value)` series for trend plots (e.g. utilization over time).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point. Out-of-order appends are accepted and sorted on read.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points sorted by time.
    #[must_use]
    pub fn sorted_points(&self) -> Vec<(SimTime, f64)> {
        let mut pts = self.points.clone();
        pts.sort_unstable_by_key(|&(t, _)| t);
        pts
    }

    /// Time-weighted average over the recorded span (simple trapezoid-free
    /// step integration: each value holds until the next point).
    #[must_use]
    pub fn time_weighted_mean(&self) -> f64 {
        let pts = self.sorted_points();
        if pts.len() < 2 {
            return pts.first().map_or(0.0, |&(_, v)| v);
        }
        let mut weighted = 0.0;
        let mut total = 0.0;
        for w in pts.windows(2) {
            let dt = (w[1].0 - w[0].0).as_secs_f64();
            weighted += w[0].1 * dt;
            total += dt;
        }
        if total == 0.0 {
            pts[0].1
        } else {
            weighted / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingHistogram;

    #[test]
    fn streaming_histogram_merge_is_grouping_independent() {
        // Three shards, merged in two different groupings and orders, must
        // be bit-identical — including the fixed-point sum.
        let mk = |lo: u32, hi: u32| {
            let mut s = StreamingHistogram::new("lat");
            for i in lo..hi {
                s.record(0.1 + (i as f64) * 0.317);
            }
            s
        };
        let (a, b, c) = (mk(0, 100), mk(100, 250), mk(250, 400));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = c.clone();
        bc.merge(&b);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right);
        assert_eq!(format!("{left}"), format!("{right}"));
        assert_eq!(left.mean().to_bits(), right.mean().to_bits());
    }

    #[test]
    fn streaming_histogram_state_round_trips() {
        let mut s = StreamingHistogram::new("lat");
        for i in 0..500 {
            s.record(0.05 + (i as f64) * 1.37);
        }
        let back = StreamingHistogram::from_state("lat", s.state()).expect("a recorded state");
        assert_eq!(back, s);
        // Empty histograms round-trip their empty sentinels too.
        let empty = StreamingHistogram::new("none");
        let st = empty.state();
        assert_eq!((st.min_ticks, st.max_ticks, st.sum_ticks), (u64::MAX, 0, 0));
        assert_eq!(StreamingHistogram::from_state("none", st), Ok(empty));
    }

    #[test]
    fn streaming_histogram_ignores_junk_samples() {
        let mut s = StreamingHistogram::new("lat");
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        s.record(-4.0); // clamped to 0
        assert_eq!(s.count(), 1);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn streaming_histogram_records_durations_in_ms() {
        let mut s = StreamingHistogram::new("lat");
        s.record_duration(SimDuration::from_millis(250));
        assert!((s.mean() - 250.0).abs() < 1e-6);
        assert_eq!(s.name(), "lat");
        // One tick per nanosecond, exact at any magnitude.
        s.record_duration(SimDuration::from_nanos(250_000_001));
        s.record_duration(SimDuration::from_nanos(u64::MAX));
        let st = s.state();
        assert_eq!((st.min_ticks, st.max_ticks), (250_000_000, u64::MAX));
        assert_eq!(st.sum_ticks, 500_000_001 + u128::from(u64::MAX));
    }

    #[test]
    fn counter_accumulates_and_rates() {
        let mut c = Counter::new("x");
        c.add(10);
        c.incr();
        assert_eq!(c.value(), 11);
        assert!((c.rate_of(22) - 0.5).abs() < 1e-12);
        assert_eq!(c.rate_of(0), 0.0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new("x");
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn summary_statistics_exact() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138).abs() < 0.01);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        // Nearest-rank on 8 samples: index round(3.5) = 4 -> value 5.0.
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn summary_empty_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn histogram_quantiles_within_error() {
        let mut h = StreamingHistogram::new("lat");
        for i in 1..=10_000 {
            h.record(i as f64 / 10.0); // 0.1 .. 1000.0
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "p99={p99}");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = StreamingHistogram::new("x");
        h.record(0.0);
        h.record(-5.0); // clamps to 0
        h.record(1e15); // saturates at u64::MAX ticks
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), u64::MAX as f64 / 1e6);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = StreamingHistogram::new("a");
        let mut b = StreamingHistogram::new("b");
        a.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn time_series_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 1.0);
        ts.push(SimTime::from_secs(10), 3.0);
        ts.push(SimTime::from_secs(20), 3.0);
        // value 1.0 for 10s, then 3.0 for 10s => mean 2.0
        assert!((ts.time_weighted_mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn time_series_single_point() {
        let mut ts = TimeSeries::new();
        assert_eq!(ts.time_weighted_mean(), 0.0);
        ts.push(SimTime::ZERO, 7.0);
        assert_eq!(ts.time_weighted_mean(), 7.0);
    }

    #[test]
    fn histogram_display_nonempty() {
        let mut h = StreamingHistogram::new("d");
        h.record(5.0);
        assert_eq!(
            h.to_string(),
            "d: n=1 mean=5.000 p50=5.000 p95=5.000 p99=5.000 max=5.000"
        );
    }
}
