//! Wall-clock barrier profiling for the fleet engine.
//!
//! The engine's epoch loop is a two-phase fork/join: the vehicle-tick
//! phase fans stealable vehicle batches out across a persistent
//! work-stealing executor, then everything joins at a single-threaded
//! barrier. The join means every epoch costs as much wall-clock as the
//! executor's *slowest* worker — the other workers sit idle once their
//! deques (and everyone else's) run dry. [`EngineProfile`] measures
//! exactly that: per-worker busy time, per-worker barrier-idle time
//! (`tick-phase wall - busy_w` per epoch), how many batches each worker
//! stole from a sibling's deque and how long it spent running stolen
//! work, and the serial barrier time itself.
//!
//! Wall-clock readings are inherently nondeterministic, so this module
//! is **excluded from the deterministic summary**: the engine reports
//! it through a separate diagnostics block that the byte-identity
//! property tests never compare.

use std::fmt::Write as _;
use std::time::Duration;

/// One worker's measurements for a single tick-phase submission: time
/// spent executing batches, how many of those batches were stolen from
/// another worker's deque, and the time spent on the stolen ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSample {
    /// Time the worker spent executing batches this submission.
    pub busy: Duration,
    /// Batches this worker stole from a sibling's deque.
    pub steals: u64,
    /// Time spent executing those stolen batches.
    pub stolen: Duration,
}

/// Wall-clock totals for one fleet run, accumulated epoch by epoch
/// (diagnostics only — never part of the deterministic summary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Cumulative busy time per executor worker across all epochs.
    pub worker_busy: Vec<Duration>,
    /// Cumulative barrier-idle time per worker (`tick-phase wall -
    /// busy_w` summed over epochs).
    pub worker_idle: Vec<Duration>,
    /// Batches each worker stole from a sibling's deque.
    pub worker_steals: Vec<u64>,
    /// Time each worker spent executing stolen batches.
    pub worker_stolen: Vec<Duration>,
    /// Cumulative single-threaded barrier time.
    pub barrier: Duration,
    /// Epochs profiled.
    pub epochs: u64,
}

impl EngineProfile {
    /// An empty profile for `workers` executor workers.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        EngineProfile {
            worker_busy: vec![Duration::ZERO; workers],
            worker_idle: vec![Duration::ZERO; workers],
            worker_steals: vec![0; workers],
            worker_stolen: vec![Duration::ZERO; workers],
            barrier: Duration::ZERO,
            epochs: 0,
        }
    }

    /// Records one epoch's tick phase: the fork/join wall-clock of the
    /// whole submission and each worker's sample. A worker's idle time
    /// for the epoch is the gap to the join point.
    ///
    /// # Panics
    ///
    /// Panics when `workers` does not have one entry per worker.
    pub fn record_epoch(&mut self, wall: Duration, workers: &[WorkerSample]) {
        assert_eq!(
            workers.len(),
            self.worker_busy.len(),
            "one sample per worker"
        );
        for (w, s) in workers.iter().enumerate() {
            self.worker_busy[w] += s.busy;
            self.worker_idle[w] += wall.saturating_sub(s.busy);
            self.worker_steals[w] += s.steals;
            self.worker_stolen[w] += s.stolen;
        }
        self.epochs += 1;
    }

    /// Adds one barrier's single-threaded serial time.
    pub fn record_barrier(&mut self, elapsed: Duration) {
        self.barrier += elapsed;
    }

    /// Fraction of a worker's fork/join wall-clock spent idle at the
    /// barrier (0 when the worker never ran).
    #[must_use]
    pub fn idle_fraction(&self, worker: usize) -> f64 {
        let busy = self.worker_busy[worker].as_secs_f64();
        let idle = self.worker_idle[worker].as_secs_f64();
        if busy + idle == 0.0 {
            0.0
        } else {
            idle / (busy + idle)
        }
    }

    /// Mean idle fraction across all workers: total idle over total
    /// fork/join wall-clock (0 for an empty profile). This is the E22
    /// headline number — the share of executor hardware wasted waiting
    /// at epoch joins.
    #[must_use]
    pub fn mean_idle_fraction(&self) -> f64 {
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        let idle: f64 = self.worker_idle.iter().map(Duration::as_secs_f64).sum();
        if busy + idle == 0.0 {
            0.0
        } else {
            idle / (busy + idle)
        }
    }

    /// Total batches stolen across all workers.
    #[must_use]
    pub fn total_steals(&self) -> u64 {
        self.worker_steals.iter().sum()
    }

    /// Fraction of a worker's busy time spent executing batches stolen
    /// from a sibling's deque (0 when the worker never ran — a
    /// zero-duration run must not surface as NaN).
    #[must_use]
    pub fn steal_fraction(&self, worker: usize) -> f64 {
        let busy = self.worker_busy[worker].as_secs_f64();
        if busy == 0.0 {
            0.0
        } else {
            self.worker_stolen[worker].as_secs_f64() / busy
        }
    }

    /// Fraction of all busy time spent on stolen batches, pooled across
    /// workers (0 for an empty or zero-duration profile).
    #[must_use]
    pub fn mean_steal_fraction(&self) -> f64 {
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        if busy == 0.0 {
            0.0
        } else {
            self.worker_stolen
                .iter()
                .map(Duration::as_secs_f64)
                .sum::<f64>()
                / busy
        }
    }

    /// Mean single-threaded barrier time per epoch, in milliseconds
    /// (0 for a zero-epoch profile).
    #[must_use]
    pub fn mean_barrier_ms(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.barrier.as_secs_f64() * 1e3 / self.epochs as f64
        }
    }

    /// A multi-line text block for the run's diagnostics output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: epochs={} barrier_ms={:.3} mean_barrier_ms={:.3} steals={} mean_idle_frac={:.3} mean_steal_frac={:.3}",
            self.epochs,
            self.barrier.as_secs_f64() * 1e3,
            self.mean_barrier_ms(),
            self.total_steals(),
            self.mean_idle_fraction(),
            self.mean_steal_fraction()
        );
        for (w, (busy, idle)) in self.worker_busy.iter().zip(&self.worker_idle).enumerate() {
            let _ = writeln!(
                out,
                "worker[{w}]: busy_ms={:.3} barrier_idle_ms={:.3} idle_frac={:.3} steals={} stolen_ms={:.3}",
                busy.as_secs_f64() * 1e3,
                idle.as_secs_f64() * 1e3,
                self.idle_fraction(w),
                self.worker_steals[w],
                self.worker_stolen[w].as_secs_f64() * 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(busy_ms: u64, steals: u64, stolen_ms: u64) -> WorkerSample {
        WorkerSample {
            busy: Duration::from_millis(busy_ms),
            steals,
            stolen: Duration::from_millis(stolen_ms),
        }
    }

    #[test]
    fn idle_is_the_gap_to_the_join() {
        let mut profile = EngineProfile::new(3);
        profile.record_epoch(
            Duration::from_millis(10),
            &[sample(10, 0, 0), sample(4, 1, 2), sample(7, 0, 0)],
        );
        profile.record_epoch(
            Duration::from_millis(8),
            &[sample(2, 0, 0), sample(8, 2, 3), sample(8, 0, 0)],
        );
        profile.record_barrier(Duration::from_millis(3));
        assert_eq!(profile.epochs, 2);
        assert_eq!(profile.worker_busy[0], Duration::from_millis(12));
        // Epoch 1: wall 10 → idle 0/6/3. Epoch 2: wall 8 → 6/0/0.
        assert_eq!(profile.worker_idle[0], Duration::from_millis(6));
        assert_eq!(profile.worker_idle[1], Duration::from_millis(6));
        assert_eq!(profile.worker_idle[2], Duration::from_millis(3));
        assert_eq!(profile.worker_steals, vec![0, 3, 0]);
        assert_eq!(profile.total_steals(), 3);
        assert_eq!(profile.worker_stolen[1], Duration::from_millis(5));
        assert_eq!(profile.barrier, Duration::from_millis(3));
    }

    #[test]
    fn mean_idle_fraction_pools_all_workers() {
        let mut profile = EngineProfile::new(2);
        // Wall 10: worker 0 busy 10 (idle 0), worker 1 busy 5 (idle 5).
        profile.record_epoch(
            Duration::from_millis(10),
            &[sample(10, 0, 0), sample(5, 0, 0)],
        );
        let expect = 5.0 / 20.0;
        assert!((profile.mean_idle_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn render_names_every_worker_and_shard() {
        let mut profile = EngineProfile::new(2);
        profile.record_epoch(
            Duration::from_millis(5),
            &[sample(5, 0, 0), sample(5, 1, 1)],
        );
        let text = profile.render();
        assert!(text.contains("profile: epochs=1"));
        assert!(text.contains("mean_idle_frac="));
        assert!(text.contains("worker[0]:"));
        assert!(text.contains("worker[1]:"));
        // Workers are the only unit of busy time: no other per-unit
        // lines.
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("barrier_idle_ms="));
        assert!(text.contains("stolen_ms="));
    }

    #[test]
    fn idle_fraction_handles_empty_profiles() {
        let profile = EngineProfile::new(1);
        assert_eq!(profile.idle_fraction(0), 0.0);
        assert_eq!(profile.mean_idle_fraction(), 0.0);
        assert_eq!(profile.total_steals(), 0);
    }

    #[test]
    fn every_ratio_accessor_is_finite_on_empty_and_zero_duration_profiles() {
        // Never ran at all.
        let empty = EngineProfile::new(2);
        for accessor in [
            empty.idle_fraction(0),
            empty.mean_idle_fraction(),
            empty.steal_fraction(1),
            empty.mean_steal_fraction(),
            empty.mean_barrier_ms(),
        ] {
            assert_eq!(accessor, 0.0, "empty profile must read 0.0, not NaN");
        }
        // Ran, but every measured duration was zero (instant epochs on
        // a coarse clock) — busy + idle == 0 per worker.
        let mut zero = EngineProfile::new(2);
        zero.record_epoch(Duration::ZERO, &[sample(0, 0, 0), sample(0, 0, 0)]);
        zero.record_barrier(Duration::ZERO);
        assert_eq!(zero.epochs, 1);
        for accessor in [
            zero.idle_fraction(0),
            zero.mean_idle_fraction(),
            zero.steal_fraction(0),
            zero.mean_steal_fraction(),
            zero.mean_barrier_ms(),
        ] {
            assert!(
                accessor == 0.0 && accessor.is_finite(),
                "zero-duration run must read 0.0"
            );
        }
        assert!(zero.render().contains("mean_idle_frac=0.000"));
    }

    #[test]
    fn steal_fractions_attribute_stolen_time() {
        let mut profile = EngineProfile::new(2);
        // Worker 1: 8ms busy of which 2ms on stolen batches.
        profile.record_epoch(
            Duration::from_millis(10),
            &[sample(10, 0, 0), sample(8, 1, 2)],
        );
        profile.record_barrier(Duration::from_millis(4));
        assert!((profile.steal_fraction(1) - 0.25).abs() < 1e-9);
        assert_eq!(profile.steal_fraction(0), 0.0);
        assert!((profile.mean_steal_fraction() - 2.0 / 18.0).abs() < 1e-9);
        assert!((profile.mean_barrier_ms() - 4.0).abs() < 1e-9);
        let text = profile.render();
        assert!(text.contains("mean_barrier_ms="));
        assert!(text.contains("mean_steal_frac="));
    }
}
