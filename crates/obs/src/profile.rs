//! Wall-clock barrier profiling for the fleet engine.
//!
//! The engine's epoch loop is a two-phase fork/join: the vehicle-tick
//! phase fans stealable vehicle batches out across a persistent
//! work-stealing executor, then everything joins at the barrier. The
//! join means every epoch costs as much wall-clock as the executor's
//! *slowest* worker — the other workers sit idle once their shares (and
//! everyone else's) run dry. [`EngineProfile`] measures exactly that:
//! per-worker busy time, per-worker barrier-idle time
//! (`tick-phase wall - busy_w` per epoch), how many batches each worker
//! stole from a sibling's share, and the barrier's wall clock, with
//! each barrier pass's own time ([`BarrierPass`]). Some passes run side
//! by side on the executor, so the pass times can add up to more than
//! the barrier's wall clock.
//!
//! Wall-clock readings are inherently nondeterministic, so this module
//! is **excluded from the deterministic summary**: the engine reports
//! it as the typed `FleetReport::profile` field, which the
//! byte-identity property tests never compare.

use std::time::{Duration, Instant};

/// The engine's barrier passes, in the order a one-worker barrier runs
/// them. Serve, ingest and mobility may run side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierPass {
    /// Folding the tick's batch outputs and recording vehicle-side
    /// outcomes.
    Record,
    /// XEdge admission and DRR serving, and recording their outcomes.
    Serve,
    /// The DDI ingest pass.
    Ingest,
    /// The mobility pass: track advance, crossings and re-addressing.
    Mobility,
    /// The union of the epoch's collab publications.
    Collab,
    /// The telemetry budget flush.
    Flush,
}

impl BarrierPass {
    /// Every pass, in barrier order (the index of
    /// [`EngineProfile::passes`]).
    pub const ALL: [BarrierPass; 6] = [
        BarrierPass::Record,
        BarrierPass::Serve,
        BarrierPass::Ingest,
        BarrierPass::Mobility,
        BarrierPass::Collab,
        BarrierPass::Flush,
    ];

    /// The pass's name, as a per-pass metric spells it.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BarrierPass::Record => "record",
            BarrierPass::Serve => "serve",
            BarrierPass::Ingest => "ingest",
            BarrierPass::Mobility => "mobility",
            BarrierPass::Collab => "collab",
            BarrierPass::Flush => "flush",
        }
    }
}

/// One worker's measurements for a single tick-phase submission: time
/// spent executing batches, and how many of those batches were stolen
/// from another worker's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSample {
    /// Time the worker spent claiming and executing batches this
    /// submission.
    pub busy: Duration,
    /// Batches this worker stole from a sibling's share.
    pub steals: u64,
}

/// Wall-clock totals for one fleet run, accumulated epoch by epoch
/// (never part of the deterministic summary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Cumulative busy time per executor worker across all epochs.
    pub worker_busy: Vec<Duration>,
    /// Cumulative barrier-idle time per worker (`tick-phase wall -
    /// busy_w` summed over epochs).
    pub worker_idle: Vec<Duration>,
    /// Batches each worker stole from a sibling's share.
    pub worker_steals: Vec<u64>,
    /// Cumulative barrier wall-clock time. Passes that run side by side
    /// count here once, for the wall time of their fork.
    pub barrier: Duration,
    /// Cumulative time per pass, indexed as [`BarrierPass::ALL`]: each
    /// pass's own time, wherever it ran, so with overlapping passes the
    /// sum can exceed `barrier`.
    pub passes: [Duration; BarrierPass::ALL.len()],
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
            barrier: Duration::ZERO,
            passes: [Duration::ZERO; BarrierPass::ALL.len()],
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
        }
        self.epochs += 1;
    }

    /// Adds `elapsed` to one barrier pass and to the barrier total.
    pub fn record_pass(&mut self, pass: BarrierPass, elapsed: Duration) {
        self.passes[pass as usize] += elapsed;
        self.barrier += elapsed;
    }

    /// Records passes that ran side by side: the fork's wall time once
    /// against the barrier, and each pass's own time against that pass.
    pub fn record_fork(&mut self, wall: Duration, passes: &[(BarrierPass, Duration)]) {
        for &(pass, own) in passes {
            self.passes[pass as usize] += own;
        }
        self.barrier += wall;
    }

    /// Records the time since `started` against `pass` and returns the
    /// new lap start: one clock read per pass.
    pub fn lap(&mut self, pass: BarrierPass, started: Instant) -> Instant {
        let now = Instant::now();
        self.record_pass(pass, now - started);
        now
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

    /// Mean barrier wall-clock time per epoch, in milliseconds (0 for a
    /// zero-epoch profile).
    #[must_use]
    pub fn mean_barrier_ms(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.barrier.as_secs_f64() * 1e3 / self.epochs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(busy_ms: u64, steals: u64) -> WorkerSample {
        WorkerSample {
            busy: Duration::from_millis(busy_ms),
            steals,
        }
    }

    #[test]
    fn idle_is_the_gap_to_the_join() {
        let mut profile = EngineProfile::new(3);
        profile.record_epoch(
            Duration::from_millis(10),
            &[sample(10, 0), sample(4, 1), sample(7, 0)],
        );
        profile.record_epoch(
            Duration::from_millis(8),
            &[sample(2, 0), sample(8, 2), sample(8, 0)],
        );
        profile.record_pass(BarrierPass::Serve, Duration::from_millis(3));
        assert_eq!(profile.epochs, 2);
        assert_eq!(profile.worker_busy[0], Duration::from_millis(12));
        // Epoch 1: wall 10 → idle 0/6/3. Epoch 2: wall 8 → 6/0/0.
        assert_eq!(profile.worker_idle[0], Duration::from_millis(6));
        assert_eq!(profile.worker_idle[1], Duration::from_millis(6));
        assert_eq!(profile.worker_idle[2], Duration::from_millis(3));
        assert_eq!(profile.worker_steals, vec![0, 3, 0]);
        assert_eq!(profile.total_steals(), 3);
        assert_eq!(profile.barrier, Duration::from_millis(3));
    }

    #[test]
    fn mean_idle_fraction_pools_all_workers() {
        let mut profile = EngineProfile::new(2);
        // Wall 10: worker 0 busy 10 (idle 0), worker 1 busy 5 (idle 5).
        profile.record_epoch(Duration::from_millis(10), &[sample(10, 0), sample(5, 0)]);
        let expect = 5.0 / 20.0;
        assert!((profile.mean_idle_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn barrier_is_the_sum_of_its_passes() {
        let mut profile = EngineProfile::new(1);
        profile.record_epoch(Duration::ZERO, &[sample(0, 0)]);
        profile.record_epoch(Duration::ZERO, &[sample(0, 0)]);
        profile.record_pass(BarrierPass::Ingest, Duration::from_millis(3));
        profile.record_pass(BarrierPass::Mobility, Duration::from_millis(5));
        profile.record_pass(BarrierPass::Ingest, Duration::from_millis(1));
        assert_eq!(
            profile.passes[BarrierPass::Ingest as usize],
            Duration::from_millis(4)
        );
        assert_eq!(
            profile.passes[BarrierPass::Mobility as usize],
            Duration::from_millis(5)
        );
        assert_eq!(profile.barrier, profile.passes.iter().sum::<Duration>());
        assert!((profile.mean_barrier_ms() - 4.5).abs() < 1e-9);
        let started = Instant::now();
        let lapped = profile.lap(BarrierPass::Flush, started);
        assert!(lapped >= started);
        assert_eq!(
            profile.passes[BarrierPass::Flush as usize],
            lapped - started
        );
        assert_eq!(profile.barrier, profile.passes.iter().sum::<Duration>());
        let names: Vec<&str> = BarrierPass::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["record", "serve", "ingest", "mobility", "collab", "flush"]
        );
    }

    #[test]
    fn a_fork_counts_its_wall_once_and_each_pass_its_own_time() {
        let mut profile = EngineProfile::new(2);
        profile.record_pass(BarrierPass::Record, Duration::from_millis(1));
        profile.record_fork(
            Duration::from_millis(7),
            &[
                (BarrierPass::Ingest, Duration::from_millis(6)),
                (BarrierPass::Serve, Duration::from_millis(4)),
                (BarrierPass::Mobility, Duration::from_millis(2)),
            ],
        );
        // The serial tail of a forked pass laps into the same pass.
        profile.record_pass(BarrierPass::Serve, Duration::from_millis(1));
        assert_eq!(profile.barrier, Duration::from_millis(9));
        for (pass, ms) in [
            (BarrierPass::Record, 1),
            (BarrierPass::Serve, 5),
            (BarrierPass::Ingest, 6),
            (BarrierPass::Mobility, 2),
        ] {
            assert_eq!(profile.passes[pass as usize], Duration::from_millis(ms));
        }
        // Overlapping passes sum past the barrier's wall clock.
        assert_eq!(
            profile.passes.iter().sum::<Duration>(),
            Duration::from_millis(14)
        );
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
            empty.mean_barrier_ms(),
        ] {
            assert_eq!(accessor, 0.0, "empty profile must read 0.0, not NaN");
        }
        // Ran, but every measured duration was zero (instant epochs on
        // a coarse clock) — busy + idle == 0 per worker.
        let mut zero = EngineProfile::new(2);
        zero.record_epoch(Duration::ZERO, &[sample(0, 0), sample(0, 0)]);
        zero.record_pass(BarrierPass::Serve, Duration::ZERO);
        assert_eq!(zero.epochs, 1);
        for accessor in [
            zero.idle_fraction(0),
            zero.mean_idle_fraction(),
            zero.mean_barrier_ms(),
        ] {
            assert!(
                accessor == 0.0 && accessor.is_finite(),
                "zero-duration run must read 0.0"
            );
        }
    }
}
