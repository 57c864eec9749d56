//! Discrete-event engine.
//!
//! [`Simulation`] owns a user-supplied world state `S` and a time-ordered
//! queue of events. Each event is a closure that receives a [`Ctx`], which
//! exposes the current virtual time, mutable access to the state, and the
//! ability to schedule further events. Events with equal timestamps fire
//! in insertion order, which makes runs fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// An event body: invoked exactly once at its scheduled time.
///
/// Events are `Send` so a `Simulation` over `Send` state can itself move
/// between threads.
pub type EventFn<S> = Box<dyn FnOnce(&mut Ctx<'_, S>) + Send>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
    label: &'static str,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The execution context handed to each event.
///
/// Borrow the world state through [`Ctx::state`] / [`Ctx::state_mut`] and
/// enqueue follow-up work with [`Ctx::schedule_in`] / [`Ctx::schedule_at`].
pub struct Ctx<'a, S> {
    now: SimTime,
    state: &'a mut S,
    pending: Vec<(SimTime, &'static str, EventFn<S>)>,
    stop_requested: bool,
}

impl<'a, S> Ctx<'a, S> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world state.
    #[must_use]
    pub fn state(&self) -> &S {
        self.state
    }

    /// Exclusive access to the world state.
    #[must_use]
    pub fn state_mut(&mut self) -> &mut S {
        self.state
    }

    /// Schedules `event` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        label: &'static str,
        event: impl FnOnce(&mut Ctx<'_, S>) + Send + 'static,
    ) {
        self.pending
            .push((self.now + delay, label, Box::new(event)));
    }

    /// Schedules `event` at an absolute time.
    ///
    /// Times in the past are clamped to "now": the event still runs, after
    /// every event already scheduled for the current instant.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        event: impl FnOnce(&mut Ctx<'_, S>) + Send + 'static,
    ) {
        let at = if at < self.now { self.now } else { at };
        self.pending.push((at, label, Box::new(event)));
    }

    /// Asks the simulation loop to stop after the current event returns.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }
}

impl<S> fmt::Debug for Ctx<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// A deterministic discrete-event simulation over world state `S`.
///
/// # Examples
///
/// ```
/// use vdap_sim::{SimDuration, Simulation};
///
/// let mut sim = Simulation::new(0u32);
/// sim.schedule_in(SimDuration::from_secs(1), "tick", |ctx| {
///     *ctx.state_mut() += 1;
///     ctx.schedule_in(SimDuration::from_secs(1), "tock", |ctx| {
///         *ctx.state_mut() += 10;
///     });
/// });
/// let report = sim.run();
/// assert_eq!(*sim.state(), 11);
/// assert_eq!(report.events_processed, 2);
/// assert_eq!(sim.now().as_secs_f64(), 2.0);
/// ```
pub struct Simulation<S> {
    state: S,
    queue: BinaryHeap<Scheduled<S>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    event_cap: u64,
}

impl<S: fmt::Debug> fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("processed", &self.processed)
            .field("state", &self.state)
            .finish()
    }
}

/// Summary of a completed [`Simulation::run`] (or bounded run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events executed during this run call.
    pub events_processed: u64,
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

/// Why a simulation run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    QueueEmpty,
    /// The time horizon passed to [`Simulation::run_until`] was reached.
    HorizonReached,
    /// An event called [`Ctx::request_stop`].
    Requested,
    /// The safety cap on total processed events was hit.
    EventCapReached,
}

impl<S> Simulation<S> {
    /// Default safety cap on processed events per simulation.
    pub const DEFAULT_EVENT_CAP: u64 = 50_000_000;

    /// Creates a simulation at `t = 0` over the given world state.
    #[must_use]
    pub fn new(state: S) -> Self {
        Simulation {
            state,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            event_cap: Self::DEFAULT_EVENT_CAP,
        }
    }

    /// Replaces the runaway-event safety cap.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is zero.
    pub fn set_event_cap(&mut self, cap: u64) {
        assert!(cap > 0, "event cap must be positive");
        self.event_cap = cap;
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world state.
    #[must_use]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the world state.
    #[must_use]
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the simulation and returns the world state.
    #[must_use]
    pub fn into_state(self) -> S {
        self.state
    }

    /// Number of events waiting in the queue.
    #[must_use]
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Total events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an event at an absolute virtual time (clamped to now).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        label: &'static str,
        event: impl FnOnce(&mut Ctx<'_, S>) + Send + 'static,
    ) {
        let at = if at < self.now { self.now } else { at };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            run: Box::new(event),
            label,
        });
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        label: &'static str,
        event: impl FnOnce(&mut Ctx<'_, S>) + Send + 'static,
    ) {
        self.schedule_at(self.now + delay, label, event);
    }

    /// Runs until the queue drains (or a stop is requested / the cap hits).
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Runs events with timestamps `<= horizon`, advancing virtual time.
    ///
    /// When the queue still holds later events, time is left at `horizon`
    /// so repeated bounded runs tile the timeline without gaps.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        let mut processed_now = 0u64;
        let stop_reason = loop {
            let Some(head) = self.queue.peek() else {
                break StopReason::QueueEmpty;
            };
            if head.at > horizon {
                self.now = horizon;
                break StopReason::HorizonReached;
            }
            if self.processed >= self.event_cap {
                break StopReason::EventCapReached;
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            self.now = ev.at;
            self.processed += 1;
            processed_now += 1;

            let mut ctx = Ctx {
                now: self.now,
                state: &mut self.state,
                pending: Vec::new(),
                stop_requested: false,
            };
            (ev.run)(&mut ctx);
            let stop = ctx.stop_requested;
            let pending = std::mem::take(&mut ctx.pending);
            for (at, label, run) in pending {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Scheduled {
                    at,
                    seq,
                    run,
                    label,
                });
            }
            if stop {
                break StopReason::Requested;
            }
        };
        RunReport {
            events_processed: processed_now,
            finished_at: self.now,
            stop_reason,
        }
    }

    /// Labels of all queued events, earliest first (diagnostics aid).
    #[must_use]
    pub fn queued_labels(&self) -> Vec<&'static str> {
        let mut entries: Vec<(SimTime, u64, &'static str)> =
            self.queue.iter().map(|s| (s.at, s.seq, s.label)).collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        entries.into_iter().map(|(_, _, l)| l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_in(SimDuration::from_secs(3), "c", |ctx| {
            ctx.state_mut().push(3)
        });
        sim.schedule_in(SimDuration::from_secs(1), "a", |ctx| {
            ctx.state_mut().push(1)
        });
        sim.schedule_in(SimDuration::from_secs(2), "b", |ctx| {
            ctx.state_mut().push(2)
        });
        sim.run();
        assert_eq!(sim.state(), &vec![1, 2, 3]);
    }

    #[test]
    fn equal_timestamps_fire_in_insertion_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        for i in 0..10u32 {
            sim.schedule_at(SimTime::from_secs(5), "same", move |ctx| {
                ctx.state_mut().push(i)
            });
        }
        sim.run();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn nested_scheduling_advances_time() {
        let mut sim = Simulation::new(0u64);
        sim.schedule_in(SimDuration::from_secs(1), "outer", |ctx| {
            ctx.schedule_in(SimDuration::from_secs(2), "inner", |ctx| {
                *ctx.state_mut() = ctx.now().as_nanos();
            });
        });
        sim.run();
        assert_eq!(*sim.state(), SimTime::from_secs(3).as_nanos());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimDuration::from_secs(1), "in", |ctx| *ctx.state_mut() += 1);
        sim.schedule_in(SimDuration::from_secs(10), "out", |ctx| {
            *ctx.state_mut() += 100
        });
        let report = sim.run_until(SimTime::from_secs(5));
        assert_eq!(report.events_processed, 1);
        assert_eq!(report.stop_reason, StopReason::HorizonReached);
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The later event still runs on a subsequent unbounded run.
        sim.run();
        assert_eq!(*sim.state(), 101);
    }

    #[test]
    fn request_stop_halts_immediately() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimDuration::from_secs(1), "stop", |ctx| {
            *ctx.state_mut() += 1;
            ctx.request_stop();
        });
        sim.schedule_in(SimDuration::from_secs(2), "never", |ctx| {
            *ctx.state_mut() += 100
        });
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::Requested);
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.queued_events(), 1);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim = Simulation::new(Vec::<&'static str>::new());
        sim.schedule_in(SimDuration::from_secs(2), "late", |ctx| {
            ctx.state_mut().push("late");
            ctx.schedule_at(SimTime::ZERO, "clamped", |ctx| {
                ctx.state_mut().push("clamped");
            });
        });
        sim.run();
        assert_eq!(sim.state(), &vec!["late", "clamped"]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn event_cap_stops_runaway_loops() {
        let mut sim = Simulation::new(0u64);
        sim.set_event_cap(100);
        fn respawn(ctx: &mut Ctx<'_, u64>) {
            *ctx.state_mut() += 1;
            ctx.schedule_in(SimDuration::from_nanos(1), "respawn", respawn);
        }
        sim.schedule_in(SimDuration::ZERO, "respawn", respawn);
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::EventCapReached);
        assert_eq!(*sim.state(), 100);
    }

    #[test]
    fn queued_labels_sorted() {
        let mut sim = Simulation::new(());
        sim.schedule_in(SimDuration::from_secs(2), "b", |_| {});
        sim.schedule_in(SimDuration::from_secs(1), "a", |_| {});
        assert_eq!(sim.queued_labels(), vec!["a", "b"]);
    }
}
