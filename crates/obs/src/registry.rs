//! A registry of named counters, gauges, and per-epoch time series.
//!
//! The fleet engine samples the registry **only at epoch barriers**, on
//! globally-determined values (queue depth after the canonical serving
//! pass, the elastic lane count, per-class outcome counts of the
//! barrier's batch). Names are interned `&'static str`s and the storage
//! is `BTreeMap`, so iteration order — and any export built from it —
//! is deterministic.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use vdap_sim::{SimTime, StreamingHistogram};

/// Interns a metric name into a `&'static str`.
///
/// Registry keys are `'static` by design (every in-run name is a
/// literal), but names restored from a checkpoint arrive as owned
/// strings. Interning leaks each *distinct* name at most once per
/// process and returns the same pointer thereafter, so repeated
/// restores don't accumulate memory.
#[must_use]
pub fn intern_name(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(&interned) = pool.get(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.insert(name.to_string(), leaked);
    leaked
}

/// One sampled point of a per-epoch time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Barrier index the sample was taken at (0-based).
    pub epoch: u64,
    /// The barrier instant (sim time).
    pub at: SimTime,
    /// Sampled value.
    pub value: f64,
}

/// Bytes one `BTreeMap` entry is accounted as (key pointer + node
/// overhead), used by [`MetricsRegistry::approx_bytes`]. The estimate
/// is count-based on purpose: it must be identical across executor
/// widths so budget decisions derived from it stay deterministic.
const MAP_ENTRY_BYTES: u64 = 32;

/// Named counters, gauges, epoch-sampled time series, and streaming
/// histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    series: BTreeMap<&'static str, Vec<SeriesPoint>>,
    hists: BTreeMap<&'static str, StreamingHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named monotonic counter.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Sets the named gauge to its latest value.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Appends one epoch sample to the named time series.
    pub fn sample(&mut self, name: &'static str, epoch: u64, at: SimTime, value: f64) {
        self.series
            .entry(name)
            .or_default()
            .push(SeriesPoint { epoch, at, value });
    }

    /// Current value of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Latest value of a gauge, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The sampled points of a time series (empty when never sampled).
    #[must_use]
    pub fn series(&self, name: &str) -> &[SeriesPoint] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All time series, in name order.
    pub fn all_series(&self) -> impl Iterator<Item = (&'static str, &[SeriesPoint])> + '_ {
        self.series.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Records one value into the named streaming histogram.
    pub fn record_hist(&mut self, name: &'static str, value: f64) {
        self.hists
            .entry(name)
            .or_insert_with(|| StreamingHistogram::new(name))
            .record(value);
    }

    /// The named streaming histogram, if anything was ever recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&StreamingHistogram> {
        self.hists.get(name)
    }

    /// All streaming histograms, in name order.
    pub fn all_histograms(&self) -> impl Iterator<Item = &StreamingHistogram> + '_ {
        self.hists.values()
    }

    /// Reinstates a histogram wholesale (checkpoint restore), keyed by
    /// its own name.
    pub fn restore_histogram(&mut self, hist: StreamingHistogram) {
        self.hists.insert(hist.name(), hist);
    }

    /// Rolls the oldest points of every over-long series into a
    /// same-named streaming histogram, keeping at most `retain` recent
    /// points per series. Returns how many points were rolled up.
    ///
    /// This is the bounded-memory escape hatch for high-cardinality
    /// per-epoch series: the recent window keeps its exact points for
    /// plotting, the rolled-up prefix survives as an exact-count
    /// distribution with bounded-error quantiles.
    pub fn roll_series(&mut self, retain: usize) -> u64 {
        let mut rolled = 0u64;
        for (&name, points) in &mut self.series {
            if points.len() <= retain {
                continue;
            }
            let excess = points.len() - retain;
            let hist = self
                .hists
                .entry(name)
                .or_insert_with(|| StreamingHistogram::new(name));
            for point in points.drain(..excess) {
                hist.record(point.value);
                rolled += 1;
            }
        }
        rolled
    }

    /// Approximate resident bytes of the registry, computed purely from
    /// entry counts (wall-clock free): a fixed overhead per map entry plus
    /// its value — 8 B per scalar, a series' points, a histogram's
    /// resident buckets.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let scalars = (self.counters.len() + self.gauges.len()) as u64 * (MAP_ENTRY_BYTES + 8);
        let series: u64 = self
            .series
            .values()
            .map(|v| MAP_ENTRY_BYTES + v.len() as u64 * std::mem::size_of::<SeriesPoint>() as u64)
            .sum();
        let hists: u64 = self
            .hists
            .values()
            .map(|h| MAP_ENTRY_BYTES + h.resident_bytes())
            .sum();
        scalars + series + hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.inc("fleet.served", 3);
        r.inc("fleet.served", 2);
        assert_eq!(r.counter("fleet.served"), 5);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn gauges_keep_the_latest_value() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("xedge.lanes", 16.0);
        r.set_gauge("xedge.lanes", 24.0);
        assert_eq!(r.gauge("xedge.lanes"), Some(24.0));
        assert_eq!(r.gauge("never"), None);
    }

    #[test]
    fn series_record_epoch_samples_in_order() {
        let mut r = MetricsRegistry::new();
        r.sample("xedge.queue_depth", 0, SimTime::from_secs(1), 4.0);
        r.sample("xedge.queue_depth", 1, SimTime::from_secs(2), 7.0);
        let pts = r.series("xedge.queue_depth");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].epoch, 0);
        assert_eq!(pts[1].value, 7.0);
        assert!(r.series("never").is_empty());
    }

    #[test]
    fn interning_dedupes_and_matches_literals() {
        let a = intern_name("fleet.test.interned");
        let b = intern_name("fleet.test.interned");
        assert!(std::ptr::eq(a, b), "same name must intern to one pointer");
        let mut r = MetricsRegistry::new();
        r.inc(a, 2);
        r.inc("fleet.test.interned", 1);
        assert_eq!(r.counter("fleet.test.interned"), 3);
    }

    #[test]
    fn roll_series_keeps_a_recent_window_and_rolls_the_prefix() {
        let mut r = MetricsRegistry::new();
        for epoch in 0..200u64 {
            r.sample("depth", epoch, SimTime::from_secs(epoch), epoch as f64);
        }
        let before = r.approx_bytes();
        let rolled = r.roll_series(4);
        assert_eq!(rolled, 196);
        let pts = r.series("depth");
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].epoch, 196, "the retained window is the newest");
        let hist = r
            .histogram("depth")
            .expect("rolled points land in a histogram");
        assert_eq!(hist.count(), 196);
        assert_eq!(hist.min(), 0.0);
        assert!(r.approx_bytes() < before, "rollup must shrink the estimate");
        // A second roll with nothing over the window is a no-op.
        assert_eq!(r.roll_series(4), 0);
        assert_eq!(r.histogram("depth").unwrap().count(), 196);
    }

    #[test]
    fn histograms_record_and_restore() {
        let mut r = MetricsRegistry::new();
        r.record_hist("lat", 2.0);
        r.record_hist("lat", 4.0);
        assert_eq!(r.histogram("lat").unwrap().count(), 2);
        assert!(r.histogram("never").is_none());
        let snap = r.histogram("lat").unwrap().clone();
        let mut other = MetricsRegistry::new();
        other.restore_histogram(snap);
        assert_eq!(other.histogram("lat"), r.histogram("lat"));
        let names: Vec<&str> = r.all_histograms().map(|h| h.name()).collect();
        assert_eq!(names, vec!["lat"]);
    }

    #[test]
    fn approx_bytes_grows_with_contents() {
        let mut r = MetricsRegistry::new();
        let empty = r.approx_bytes();
        r.inc("c", 1);
        let with_counter = r.approx_bytes();
        assert!(with_counter > empty);
        r.sample("s", 0, SimTime::ZERO, 1.0);
        assert!(r.approx_bytes() > with_counter);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc("b", 1);
        r.inc("a", 1);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
