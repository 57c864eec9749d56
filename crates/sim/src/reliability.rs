//! Reliability metrics: MTTR, failover latency, retries, availability.
//!
//! Fault injection and the recovery paths threaded through the platform
//! report into a [`ReliabilityStats`] so a run can answer the questions
//! the paper's drive test raises: how long were components down, how
//! fast did the scheduler fail over, how often were transfers retried,
//! and what availability did each component actually deliver.
//!
//! Components are identified by string label (`"slot1"`, `"lte-uplink"`,
//! `"ddi-store"`, ...). All internal maps are ordered so aggregate
//! figures are bit-identical across same-seed runs. Repair intervals
//! and failover latencies go into [`StreamingHistogram`]s in
//! milliseconds, exact at one tick per nanosecond.

use std::collections::BTreeMap;

use crate::histogram::{HistogramState, HistogramStateError, StreamingHistogram};
use crate::time::{SimDuration, SimTime};

const MTTR: &str = "mttr_ms";
const FAILOVER: &str = "failover_latency_ms";

/// Aggregated reliability accounting for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityStats {
    mttr: StreamingHistogram,
    failover_latency: StreamingHistogram,
    retries: u64,
    retry_successes: u64,
    retry_exhausted: u64,
    faults_injected: u64,
    down_since: BTreeMap<String, SimTime>,
    downtime: BTreeMap<String, SimDuration>,
    degraded: BTreeMap<String, SimDuration>,
    cache_ttl_evictions: u64,
    disk_spills: u64,
}

impl Default for ReliabilityStats {
    fn default() -> Self {
        ReliabilityStats {
            mttr: StreamingHistogram::new(MTTR),
            failover_latency: StreamingHistogram::new(FAILOVER),
            retries: 0,
            retry_successes: 0,
            retry_exhausted: 0,
            faults_injected: 0,
            down_since: BTreeMap::new(),
            downtime: BTreeMap::new(),
            degraded: BTreeMap::new(),
            cache_ttl_evictions: 0,
            disk_spills: 0,
        }
    }
}

impl ReliabilityStats {
    /// Creates empty stats.
    #[must_use]
    pub fn new() -> Self {
        ReliabilityStats::default()
    }

    /// A component went down at `at`. Re-entrant: marking an
    /// already-down component again is a no-op (the first outage start
    /// wins), so overlapping fault windows don't double-count downtime.
    pub fn record_fault(&mut self, component: &str, at: SimTime) {
        self.faults_injected += 1;
        self.down_since.entry(component.to_string()).or_insert(at);
    }

    /// A component recovered at `at`; records one repair interval (MTTR
    /// sample) and accrues the component's downtime. Recovery of a
    /// component that was never marked down is ignored.
    pub fn record_recovery(&mut self, component: &str, at: SimTime) {
        if let Some(since) = self.down_since.remove(component) {
            let repair = at.duration_since(since);
            self.mttr.record_duration(repair);
            *self
                .downtime
                .entry(component.to_string())
                .or_insert(SimDuration::ZERO) += repair;
        }
    }

    /// Whether `component` is currently marked down.
    #[must_use]
    pub fn is_down(&self, component: &str) -> bool {
        self.down_since.contains_key(component)
    }

    /// Records one failover (re-planning) latency.
    pub fn record_failover(&mut self, latency: SimDuration) {
        self.failover_latency.record_duration(latency);
    }

    /// Records one retry attempt.
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Records a transfer that eventually succeeded after retrying.
    pub fn record_retry_success(&mut self) {
        self.retry_successes += 1;
    }

    /// Records a transfer that exhausted its retry budget.
    pub fn record_retry_exhausted(&mut self) {
        self.retry_exhausted += 1;
    }

    /// Records `n` cache entries evicted by TTL expiry (a storage
    /// tier's sweep aging data out of its fast tier).
    pub fn record_cache_ttl_evictions(&mut self, n: u64) {
        self.cache_ttl_evictions += n;
    }

    /// Records `n` records spilled (persisted) to the disk tier.
    pub fn record_disk_spills(&mut self, n: u64) {
        self.disk_spills += n;
    }

    /// Total cache entries evicted by TTL expiry.
    #[must_use]
    pub fn cache_ttl_eviction_count(&self) -> u64 {
        self.cache_ttl_evictions
    }

    /// Total records spilled to the disk tier.
    #[must_use]
    pub fn disk_spill_count(&self) -> u64 {
        self.disk_spills
    }

    /// Accrues time a component spent serving in degraded mode (e.g. a
    /// vehicle running its pipeline locally at reduced accuracy because
    /// the edge bounced it). Degraded time is additive — unlike
    /// downtime, overlapping reports are the caller's responsibility.
    pub fn record_degraded(&mut self, component: &str, duration: SimDuration) {
        *self
            .degraded
            .entry(component.to_string())
            .or_insert(SimDuration::ZERO) += duration;
    }

    /// Accrued degraded-mode time for one component.
    #[must_use]
    pub fn degraded_time(&self, component: &str) -> SimDuration {
        self.degraded
            .get(component)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total degraded-mode time across all components.
    #[must_use]
    pub fn total_degraded_time(&self) -> SimDuration {
        self.degraded
            .values()
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    /// Repair intervals (ms); its mean is the mean time to repair.
    #[must_use]
    pub fn mttr(&self) -> &StreamingHistogram {
        &self.mttr
    }

    /// Failover (re-plan) latencies (ms).
    #[must_use]
    pub fn failover_latency(&self) -> &StreamingHistogram {
        &self.failover_latency
    }

    /// Total retry attempts recorded.
    #[must_use]
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    /// Transfers that succeeded after at least one retry.
    #[must_use]
    pub fn retry_success_count(&self) -> u64 {
        self.retry_successes
    }

    /// Transfers that gave up after exhausting their retry budget.
    #[must_use]
    pub fn retry_exhausted_count(&self) -> u64 {
        self.retry_exhausted
    }

    /// Number of fault activations recorded.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Accrued downtime for one component up to `until` (an outage still
    /// open at `until` counts up to that instant).
    #[must_use]
    pub fn downtime(&self, component: &str, until: SimTime) -> SimDuration {
        let closed = self
            .downtime
            .get(component)
            .copied()
            .unwrap_or(SimDuration::ZERO);
        let open = self
            .down_since
            .get(component)
            .map_or(SimDuration::ZERO, |since| until.duration_since(*since));
        closed + open
    }

    /// Availability of one component over `[SimTime::ZERO, until]` in
    /// `[0, 1]`; 1 when the horizon is empty.
    #[must_use]
    pub fn availability(&self, component: &str, until: SimTime) -> f64 {
        let horizon = until.elapsed().as_secs_f64();
        if horizon <= 0.0 {
            return 1.0;
        }
        let down = self.downtime(component, until).as_secs_f64();
        (1.0 - down / horizon).clamp(0.0, 1.0)
    }

    /// Components that ever saw downtime (sorted by label).
    #[must_use]
    pub fn faulted_components(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .downtime
            .keys()
            .chain(self.down_since.keys())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Worst per-component availability over the horizon; 1 when no
    /// component ever faulted.
    #[must_use]
    pub fn worst_availability(&self, until: SimTime) -> f64 {
        self.faulted_components()
            .iter()
            .map(|c| self.availability(c, until))
            .fold(1.0, f64::min)
    }

    /// Captures the full internal state for checkpointing. Map entries
    /// come out sorted by component label (the maps are ordered).
    #[must_use]
    pub fn state(&self) -> ReliabilityState {
        ReliabilityState {
            mttr: self.mttr.state(),
            failover: self.failover_latency.state(),
            retries: self.retries,
            retry_successes: self.retry_successes,
            retry_exhausted: self.retry_exhausted,
            faults_injected: self.faults_injected,
            down_since: self
                .down_since
                .iter()
                .map(|(c, t)| (c.clone(), *t))
                .collect(),
            downtime: self.downtime.iter().map(|(c, d)| (c.clone(), *d)).collect(),
            degraded: self.degraded.iter().map(|(c, d)| (c.clone(), *d)).collect(),
            cache_ttl_evictions: self.cache_ttl_evictions,
            disk_spills: self.disk_spills,
        }
    }

    /// Rebuilds stats from captured state.
    ///
    /// # Errors
    ///
    /// Fails when either histogram state is one no samples could
    /// produce (see [`StreamingHistogram::from_state`]).
    pub fn from_state(state: ReliabilityState) -> Result<Self, HistogramStateError> {
        Ok(ReliabilityStats {
            mttr: StreamingHistogram::from_state(MTTR, state.mttr)?,
            failover_latency: StreamingHistogram::from_state(FAILOVER, state.failover)?,
            retries: state.retries,
            retry_successes: state.retry_successes,
            retry_exhausted: state.retry_exhausted,
            faults_injected: state.faults_injected,
            down_since: state.down_since.into_iter().collect(),
            downtime: state.downtime.into_iter().collect(),
            degraded: state.degraded.into_iter().collect(),
            cache_ttl_evictions: state.cache_ttl_evictions,
            disk_spills: state.disk_spills,
        })
    }
}

/// The complete internal state of a [`ReliabilityStats`], exposed for
/// checkpoint/restore. Map entries are sorted by component label.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityState {
    /// Repair intervals (ms).
    pub mttr: HistogramState,
    /// Failover latencies (ms).
    pub failover: HistogramState,
    /// Total retry attempts.
    pub retries: u64,
    /// Transfers that succeeded after retrying.
    pub retry_successes: u64,
    /// Transfers that exhausted their retry budget.
    pub retry_exhausted: u64,
    /// Fault activations recorded.
    pub faults_injected: u64,
    /// Components currently down and when each outage began.
    pub down_since: Vec<(String, SimTime)>,
    /// Closed-outage downtime per component.
    pub downtime: Vec<(String, SimDuration)>,
    /// Degraded-mode time per component.
    pub degraded: Vec<(String, SimDuration)>,
    /// Cache entries evicted by TTL expiry.
    pub cache_ttl_evictions: u64,
    /// Records spilled to the disk tier.
    pub disk_spills: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trips_open_and_closed_outages() {
        let mut r = ReliabilityStats::new();
        r.record_fault("gpu", SimTime::from_secs(10));
        r.record_recovery("gpu", SimTime::from_secs(40));
        r.record_fault("lte", SimTime::from_secs(50));
        r.record_retry();
        r.record_retry_success();
        r.record_failover(SimDuration::from_millis(7));
        r.record_degraded("tenant1", SimDuration::from_secs(2));
        r.record_cache_ttl_evictions(5);
        r.record_disk_spills(2);
        let back = ReliabilityStats::from_state(r.state()).expect("a recorded state");
        assert_eq!(back, r);
        assert!(back.is_down("lte"));
        assert_eq!(
            back.downtime("gpu", SimTime::from_secs(100)),
            SimDuration::from_secs(30)
        );
        let mut impossible = r.state();
        impossible.failover.count += 1;
        assert!(ReliabilityStats::from_state(impossible).is_err());
    }

    #[test]
    fn fault_recovery_cycle_feeds_mttr_and_downtime() {
        let mut r = ReliabilityStats::new();
        r.record_fault("gpu", SimTime::from_secs(10));
        assert!(r.is_down("gpu"));
        r.record_recovery("gpu", SimTime::from_secs(40));
        assert!(!r.is_down("gpu"));
        assert_eq!(r.mttr().count(), 1);
        assert!((r.mttr().mean() - 30_000.0).abs() < 1e-6, "MTTR in ms");
        assert_eq!(
            r.downtime("gpu", SimTime::from_secs(100)),
            SimDuration::from_secs(30)
        );
    }

    #[test]
    fn availability_counts_open_outages() {
        let mut r = ReliabilityStats::new();
        r.record_fault("lte", SimTime::from_secs(50));
        let a = r.availability("lte", SimTime::from_secs(100));
        assert!((a - 0.5).abs() < 1e-9, "open outage half the horizon: {a}");
    }

    #[test]
    fn overlapping_faults_do_not_double_count() {
        let mut r = ReliabilityStats::new();
        r.record_fault("gpu", SimTime::from_secs(10));
        r.record_fault("gpu", SimTime::from_secs(15));
        r.record_recovery("gpu", SimTime::from_secs(20));
        assert_eq!(
            r.downtime("gpu", SimTime::from_secs(20)),
            SimDuration::from_secs(10)
        );
        assert_eq!(r.faults_injected(), 2);
    }

    #[test]
    fn unmatched_recovery_ignored() {
        let mut r = ReliabilityStats::new();
        r.record_recovery("ghost", SimTime::from_secs(5));
        assert_eq!(r.mttr().count(), 0);
        assert_eq!(r.availability("ghost", SimTime::from_secs(10)), 1.0);
    }

    #[test]
    fn worst_availability_picks_most_degraded() {
        let mut r = ReliabilityStats::new();
        r.record_fault("a", SimTime::from_secs(0));
        r.record_recovery("a", SimTime::from_secs(10));
        r.record_fault("b", SimTime::from_secs(0));
        r.record_recovery("b", SimTime::from_secs(50));
        let worst = r.worst_availability(SimTime::from_secs(100));
        assert!((worst - 0.5).abs() < 1e-9, "worst is b at 0.5: {worst}");
    }

    #[test]
    fn degraded_time_accrues_additively() {
        let mut r = ReliabilityStats::new();
        assert_eq!(r.degraded_time("tenant0"), SimDuration::ZERO);
        r.record_degraded("tenant0", SimDuration::from_millis(250));
        r.record_degraded("tenant0", SimDuration::from_millis(750));
        assert_eq!(r.degraded_time("tenant0"), SimDuration::from_secs(1));
        assert_eq!(r.total_degraded_time(), SimDuration::from_secs(1));
        // Degraded time is not downtime: availability is untouched.
        assert_eq!(r.availability("tenant0", SimTime::from_secs(10)), 1.0);
    }
}
