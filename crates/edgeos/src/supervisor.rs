//! Supervised service restarts with crash-loop detection.
//!
//! EdgeOSv's Reliability property (§IV-C) for abnormal termination: a
//! crashed service is restarted after an exponentially growing backoff,
//! but a service that keeps crashing — more than a configured number of
//! times inside a sliding window — is declared crash-looping and given
//! up on, with the reason recorded rather than restarted forever.

use std::collections::BTreeMap;

use vdap_sim::{SimDuration, SimTime, TraceLevel, TraceLog};

use crate::service::PolymorphicService;

/// Windowed crash-loop detection shared by the service supervisor and
/// the fleet's XEdge node health tracking: a component crashing more
/// than `max_crashes` times inside a sliding `window` is declared
/// crash-looping and should be given up on rather than restarted
/// forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashLoopPolicy {
    /// Sliding window for crash-loop detection.
    pub window: SimDuration,
    /// Crashes tolerated inside the window before giving up.
    pub max_crashes: u32,
}

impl CrashLoopPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics when `max_crashes` is zero (nothing could ever restart).
    #[must_use]
    pub fn new(window: SimDuration, max_crashes: u32) -> Self {
        assert!(max_crashes >= 1, "must tolerate at least one crash");
        CrashLoopPolicy {
            window,
            max_crashes,
        }
    }

    /// The supervisor's default: at most 3 crashes in a 60 s window.
    #[must_use]
    pub fn supervisor_default() -> Self {
        CrashLoopPolicy::new(SimDuration::from_secs(60), 3)
    }

    /// Records a crash at `now` into `history`, prunes instants that
    /// have slid out of the window, and returns
    /// `(crashes_in_window, is_crash_looping)`.
    pub fn observe(&self, history: &mut Vec<SimTime>, now: SimTime) -> (u32, bool) {
        history.push(now);
        history.retain(|&t| now.duration_since(t) <= self.window);
        let in_window = history.len() as u32;
        (in_window, in_window > self.max_crashes)
    }
}

/// What the supervisor decided to do about a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorDecision {
    /// Restart the service at the given instant (crash time + backoff).
    Restart {
        /// When the restart fires.
        at: SimTime,
        /// How many crashes the window currently holds (1 = first).
        crashes_in_window: u32,
    },
    /// The service is crash-looping; it stays down and the reason is
    /// recorded.
    GiveUp {
        /// Crashes observed inside the detection window.
        crashes_in_window: u32,
    },
}

/// Restarts crashed services with backoff; detects crash loops.
#[derive(Debug)]
pub struct ServiceSupervisor {
    /// Backoff before the first restart.
    base_backoff: SimDuration,
    /// Backoff multiplier per additional crash in the window.
    backoff_factor: f64,
    /// Crash-loop detection policy.
    policy: CrashLoopPolicy,
    /// Crash instants per service (windowed on use).
    history: BTreeMap<String, Vec<SimTime>>,
    /// Services declared crash-looping.
    given_up: BTreeMap<String, u32>,
    trace: TraceLog,
}

impl ServiceSupervisor {
    /// Default policy: 500 ms base backoff doubling per crash, at most 3
    /// crashes inside a 60 s window.
    #[must_use]
    pub fn new() -> Self {
        ServiceSupervisor {
            base_backoff: SimDuration::from_millis(500),
            backoff_factor: 2.0,
            policy: CrashLoopPolicy::supervisor_default(),
            history: BTreeMap::new(),
            given_up: BTreeMap::new(),
            trace: TraceLog::new(),
        }
    }

    /// Handles a crash of `service` at `now`: marks it crashed, then
    /// either schedules a restart (backoff grows with the number of
    /// recent crashes) or declares a crash loop and gives up.
    pub fn on_crash(
        &mut self,
        service: &mut PolymorphicService,
        now: SimTime,
    ) -> SupervisorDecision {
        service.crash();
        let name = service.name().to_string();
        let crashes = self.history.entry(name.clone()).or_default();
        let (in_window, looping) = self.policy.observe(crashes, now);
        if looping {
            let window = self.policy.window;
            self.given_up.insert(name.clone(), in_window);
            self.trace.record(
                now,
                TraceLevel::Error,
                "edgeos.supervisor",
                format!("'{name}' crash-looping ({in_window} crashes in {window}); giving up"),
            );
            return SupervisorDecision::GiveUp {
                crashes_in_window: in_window,
            };
        }
        let backoff = SimDuration::from_secs_f64(
            self.base_backoff.as_secs_f64() * self.backoff_factor.powi(in_window as i32 - 1),
        );
        let at = now + backoff;
        self.trace.record(
            now,
            TraceLevel::Warn,
            "edgeos.supervisor",
            format!("'{name}' crashed (#{in_window} in window); restart at {at}"),
        );
        SupervisorDecision::Restart {
            at,
            crashes_in_window: in_window,
        }
    }

    /// Completes a scheduled restart: reselects pipeline `pipeline` and
    /// returns the service to `Running`. No-op for given-up services.
    pub fn restart(&mut self, service: &mut PolymorphicService, pipeline: usize, now: SimTime) {
        if self.is_given_up(service.name()) {
            return;
        }
        service.select(pipeline);
        self.trace.record(
            now,
            TraceLevel::Info,
            "edgeos.supervisor",
            format!("'{}' restarted on pipeline {pipeline}", service.name()),
        );
    }

    /// Whether the supervisor has declared `name` crash-looping.
    #[must_use]
    pub fn is_given_up(&self, name: &str) -> bool {
        self.given_up.contains_key(name)
    }

    /// Crash-looping services with their crash counts, in name order.
    #[must_use]
    pub fn given_up(&self) -> &BTreeMap<String, u32> {
        &self.given_up
    }

    /// Total crashes recorded for `name` still inside the window as of
    /// the last `on_crash`.
    #[must_use]
    pub fn recent_crashes(&self, name: &str) -> u32 {
        self.history.get(name).map_or(0, |v| v.len() as u32)
    }

    /// Clears crash history for `name` (e.g. after a long healthy run),
    /// including any crash-loop verdict.
    pub fn forgive(&mut self, name: &str) {
        self.history.remove(name);
        self.given_up.remove(name);
    }

    /// The supervisor's trace log.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }
}

impl Default for ServiceSupervisor {
    fn default() -> Self {
        ServiceSupervisor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{kidnapper_search, ServiceState};
    use vdap_net::Site;

    fn service() -> PolymorphicService {
        kidnapper_search(SimDuration::from_millis(500), Site::Edge)
    }

    #[test]
    fn first_crash_restarts_after_base_backoff() {
        let mut sup = ServiceSupervisor::new();
        let mut svc = service();
        let d = sup.on_crash(&mut svc, SimTime::from_secs(10));
        assert_eq!(svc.state(), ServiceState::Crashed);
        match d {
            SupervisorDecision::Restart {
                at,
                crashes_in_window,
            } => {
                assert_eq!(at, SimTime::from_secs(10) + SimDuration::from_millis(500));
                assert_eq!(crashes_in_window, 1);
            }
            SupervisorDecision::GiveUp { .. } => panic!("first crash must restart"),
        }
        sup.restart(&mut svc, 0, SimTime::from_secs(11));
        assert_eq!(svc.state(), ServiceState::Running);
    }

    #[test]
    fn backoff_doubles_per_crash_in_window() {
        let mut sup = ServiceSupervisor::new();
        let mut svc = service();
        let t = SimTime::from_secs(100);
        let first = sup.on_crash(&mut svc, t);
        let second = sup.on_crash(&mut svc, t + SimDuration::from_secs(1));
        let backoff_of = |d: SupervisorDecision, from: SimTime| match d {
            SupervisorDecision::Restart { at, .. } => at.duration_since(from),
            SupervisorDecision::GiveUp { .. } => panic!("expected restart"),
        };
        assert_eq!(backoff_of(first, t), SimDuration::from_millis(500));
        assert_eq!(
            backoff_of(second, t + SimDuration::from_secs(1)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn crash_loop_is_detected_and_recorded() {
        let mut sup = ServiceSupervisor::new();
        let mut svc = service();
        let mut t = SimTime::from_secs(10);
        for _ in 0..3 {
            let d = sup.on_crash(&mut svc, t);
            assert!(matches!(d, SupervisorDecision::Restart { .. }));
            t += SimDuration::from_secs(2);
        }
        let d = sup.on_crash(&mut svc, t);
        assert_eq!(
            d,
            SupervisorDecision::GiveUp {
                crashes_in_window: 4
            }
        );
        assert!(sup.is_given_up(svc.name()));
        assert_eq!(sup.given_up().get(svc.name()), Some(&4));
        // A given-up service stays down even if a stale restart fires.
        sup.restart(&mut svc, 0, t);
        assert_eq!(svc.state(), ServiceState::Crashed);
    }

    #[test]
    fn spaced_crashes_never_loop() {
        let mut sup = ServiceSupervisor::new();
        let mut svc = service();
        let mut t = SimTime::from_secs(10);
        for _ in 0..10 {
            let d = sup.on_crash(&mut svc, t);
            assert!(
                matches!(d, SupervisorDecision::Restart { .. }),
                "crashes 2 min apart must keep restarting"
            );
            sup.restart(&mut svc, 0, t + SimDuration::from_secs(1));
            t += SimDuration::from_secs(120);
        }
        assert!(!sup.is_given_up(svc.name()));
    }

    #[test]
    fn crash_loop_policy_windows_and_verdicts() {
        let policy = CrashLoopPolicy::new(SimDuration::from_secs(10), 2);
        let mut history = Vec::new();
        assert_eq!(
            policy.observe(&mut history, SimTime::from_secs(0)),
            (1, false)
        );
        assert_eq!(
            policy.observe(&mut history, SimTime::from_secs(1)),
            (2, false)
        );
        // Third crash inside the window: looping.
        assert_eq!(
            policy.observe(&mut history, SimTime::from_secs(2)),
            (3, true)
        );
        // A crash far enough out slides the earlier ones off.
        assert_eq!(
            policy.observe(&mut history, SimTime::from_secs(30)),
            (1, false)
        );
    }

    #[test]
    fn forgive_clears_the_verdict() {
        let mut sup = ServiceSupervisor::new();
        let mut svc = service();
        let t = SimTime::from_secs(5);
        for i in 0..4 {
            sup.on_crash(&mut svc, t + SimDuration::from_secs(i));
        }
        assert!(sup.is_given_up(svc.name()));
        sup.forgive(svc.name());
        assert!(!sup.is_given_up(svc.name()));
        assert_eq!(sup.recent_crashes(svc.name()), 0);
        sup.restart(&mut svc, 0, t + SimDuration::from_secs(10));
        assert_eq!(svc.state(), ServiceState::Running);
    }
}
