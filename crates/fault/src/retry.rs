//! Shared deadline-aware retry policy.
//!
//! DDI uploads and EdgeOS service migration both move bytes over a lossy
//! link and both run under a task deadline, so they share one policy:
//! exponential backoff with jitter, a per-attempt timeout, and a hard cap
//! at the caller's deadline budget — [`retry_until_deadline`] never lets
//! the retried operation finish past `start + budget`.

use vdap_sim::{RngStream, SimDuration, SimTime};

/// Exponential-backoff retry policy with jitter and per-attempt timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (including the first). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff delay before the second attempt.
    pub base_delay: SimDuration,
    /// Multiplier applied to the delay after each failed attempt.
    pub backoff_factor: f64,
    /// Jitter fraction in `[0, 1)`: each delay is scaled by a uniform
    /// draw from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Cap on how long a single attempt may run before it is abandoned;
    /// `None` = unbounded (the deadline still applies).
    pub attempt_timeout: Option<SimDuration>,
}

impl RetryPolicy {
    /// A sensible transfer policy: 4 attempts, 500 ms base delay doubling
    /// each retry, ±20 % jitter, 10 s per-attempt timeout.
    #[must_use]
    pub fn transfer_default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: SimDuration::from_millis_f64(500.0),
            backoff_factor: 2.0,
            jitter: 0.2,
            attempt_timeout: Some(SimDuration::from_secs(10)),
        }
    }

    /// The jittered backoff delay before attempt `next_attempt`
    /// (2-based: there is no delay before the first attempt).
    #[must_use]
    pub fn backoff_delay(&self, next_attempt: u32, rng: &mut RngStream) -> SimDuration {
        debug_assert!(next_attempt >= 2);
        let exponent = next_attempt.saturating_sub(2);
        let nominal = self.base_delay.as_secs_f64() * self.backoff_factor.powi(exponent as i32);
        let scale = if self.jitter > 0.0 {
            rng.uniform_range(1.0 - self.jitter, 1.0 + self.jitter)
        } else {
            1.0
        };
        SimDuration::from_secs_f64((nominal * scale).max(0.0))
    }

    /// Drops the per-attempt timeout, for operations whose single attempt
    /// is legitimately long (e.g. a cold migration over a slow link); the
    /// deadline budget still bounds the whole retried operation.
    #[must_use]
    pub fn without_attempt_timeout(mut self) -> Self {
        self.attempt_timeout = None;
        self
    }
}

/// What one attempt of the operation did, as reported by the caller's
/// attempt function. The duration is how long the attempt ran in
/// simulated time (it will be capped by the policy's attempt timeout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt completed after the given duration.
    Success(SimDuration),
    /// The attempt failed after the given duration.
    Failure(SimDuration),
}

/// Why a retried operation ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryError {
    /// Every allowed attempt failed with deadline budget to spare.
    AttemptsExhausted {
        /// How many attempts ran.
        attempts: u32,
    },
    /// The deadline budget ran out before the operation completed.
    DeadlineExceeded {
        /// How many attempts ran (including any cut off by the deadline).
        attempts: u32,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::AttemptsExhausted { attempts } => {
                write!(f, "all {attempts} attempts failed")
            }
            RetryError::DeadlineExceeded { attempts } => {
                write!(f, "deadline budget exhausted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RetryError {}

/// Outcome of a full retry loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryReport {
    /// Attempts that ran (including a final one cut off by the deadline).
    pub attempts: u32,
    /// When the loop stopped — on success, when the winning attempt
    /// completed; on failure, when retrying was abandoned. Never past
    /// `start + budget`.
    pub finished_at: SimTime,
    /// `finished_at - start`.
    pub total: SimDuration,
    /// `None` on success, the terminal failure otherwise.
    pub error: Option<RetryError>,
}

impl RetryReport {
    /// Whether the operation ultimately succeeded.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }
}

/// Drives `attempt` under `policy`, starting at `start` with at most
/// `budget` of simulated time before the deadline. The attempt function
/// receives the 1-based attempt number and the simulated instant the
/// attempt begins. The loop guarantees `finished_at <= start + budget`:
/// an attempt that would run past the deadline is cut off there and
/// counted as a failure, and no backoff sleep is started that could not
/// be followed by any useful work.
pub fn retry_until_deadline(
    policy: &RetryPolicy,
    start: SimTime,
    budget: SimDuration,
    rng: &mut RngStream,
    mut attempt: impl FnMut(u32, SimTime) -> AttemptOutcome,
) -> RetryReport {
    assert!(policy.max_attempts >= 1, "policy must allow one attempt");
    let deadline = start + budget;
    let mut now = start;
    let mut attempts = 0;
    let mut error = None;
    while attempts < policy.max_attempts {
        attempts += 1;
        let outcome = attempt(attempts, now);
        let (raw, ok) = match outcome {
            AttemptOutcome::Success(t) => (t, true),
            AttemptOutcome::Failure(t) => (t, false),
        };
        // An attempt running past the per-attempt timeout is abandoned
        // there — even one that would eventually have succeeded.
        let (took, ok) = match policy.attempt_timeout {
            Some(limit) if raw > limit => (limit, false),
            _ => (raw, ok),
        };
        let remaining = deadline.duration_since(now);
        if took > remaining {
            // The attempt is cut off at the deadline and cannot finish.
            now = deadline;
            error = Some(RetryError::DeadlineExceeded { attempts });
            break;
        }
        now += took;
        if ok {
            break;
        }
        if attempts == policy.max_attempts {
            error = Some(RetryError::AttemptsExhausted { attempts });
            break;
        }
        let delay = policy.backoff_delay(attempts + 1, rng);
        if delay >= deadline.duration_since(now) {
            // Sleeping would leave no time for another attempt.
            error = Some(RetryError::DeadlineExceeded { attempts });
            break;
        }
        now += delay;
    }
    RetryReport {
        attempts,
        finished_at: now,
        total: now.duration_since(start),
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    fn rng() -> RngStream {
        SeedFactory::new(77).stream("retry")
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: SimDuration::from_secs(1),
            backoff_factor: 2.0,
            jitter: 0.0,
            attempt_timeout: None,
        }
    }

    #[test]
    fn first_attempt_success_has_no_backoff() {
        let report = retry_until_deadline(
            &policy(),
            SimTime::from_secs(100),
            SimDuration::from_secs(60),
            &mut rng(),
            |_, _| AttemptOutcome::Success(SimDuration::from_secs(2)),
        );
        assert!(report.succeeded());
        assert_eq!(report.attempts, 1);
        assert_eq!(report.finished_at, SimTime::from_secs(102));
        assert_eq!(report.total, SimDuration::from_secs(2));
    }

    #[test]
    fn retries_succeed_within_budget() {
        let report = retry_until_deadline(
            &policy(),
            SimTime::ZERO,
            SimDuration::from_secs(60),
            &mut rng(),
            |attempt, _| {
                if attempt < 3 {
                    AttemptOutcome::Failure(SimDuration::from_secs(2))
                } else {
                    AttemptOutcome::Success(SimDuration::from_secs(2))
                }
            },
        );
        assert!(report.succeeded());
        assert_eq!(report.attempts, 3);
        // 2 (fail) + 1 (backoff) + 2 (fail) + 2 (backoff) + 2 (success).
        assert_eq!(report.total, SimDuration::from_secs(9));
    }

    #[test]
    fn exhausted_attempts_reports_error() {
        let report = retry_until_deadline(
            &policy(),
            SimTime::ZERO,
            SimDuration::from_secs(600),
            &mut rng(),
            |_, _| AttemptOutcome::Failure(SimDuration::from_secs(1)),
        );
        assert!(!report.succeeded());
        assert_eq!(
            report.error,
            Some(RetryError::AttemptsExhausted { attempts: 4 })
        );
    }

    #[test]
    fn never_exceeds_deadline_budget() {
        // Acceptance criterion: a retried transfer never exceeds the
        // task's deadline budget, whatever the attempt durations.
        for seed in 0..50u64 {
            let mut rng = SeedFactory::new(seed).stream("retry");
            let mut attempt_rng = SeedFactory::new(seed).stream("attempts");
            let budget = SimDuration::from_secs_f64(attempt_rng.uniform_range(0.5, 20.0));
            let start = SimTime::from_secs(attempt_rng.below(1000));
            let pol = RetryPolicy {
                max_attempts: 5,
                base_delay: SimDuration::from_millis_f64(400.0),
                backoff_factor: 2.0,
                jitter: 0.3,
                attempt_timeout: Some(SimDuration::from_secs(4)),
            };
            let report = retry_until_deadline(&pol, start, budget, &mut rng, |_, _| {
                let took = SimDuration::from_secs_f64(attempt_rng.uniform_range(0.1, 8.0));
                if attempt_rng.chance(0.3) {
                    AttemptOutcome::Success(took)
                } else {
                    AttemptOutcome::Failure(took)
                }
            });
            assert!(
                report.finished_at <= start + budget,
                "seed {seed}: finished_at exceeded the deadline"
            );
            assert_eq!(report.total, report.finished_at.duration_since(start));
        }
    }

    #[test]
    fn deadline_cuts_off_long_attempt() {
        let report = retry_until_deadline(
            &policy(),
            SimTime::ZERO,
            SimDuration::from_secs(5),
            &mut rng(),
            |_, _| AttemptOutcome::Success(SimDuration::from_secs(30)),
        );
        assert!(!report.succeeded());
        assert_eq!(
            report.error,
            Some(RetryError::DeadlineExceeded { attempts: 1 })
        );
        assert_eq!(report.finished_at, SimTime::from_secs(5));
    }

    #[test]
    fn attempt_timeout_caps_each_try() {
        let pol = RetryPolicy {
            attempt_timeout: Some(SimDuration::from_secs(1)),
            jitter: 0.0,
            ..policy()
        };
        let report = retry_until_deadline(
            &pol,
            SimTime::ZERO,
            SimDuration::from_secs(600),
            &mut rng(),
            |attempt, _| {
                if attempt == 1 {
                    // Hangs for 100 s but is abandoned after 1 s.
                    AttemptOutcome::Failure(SimDuration::from_secs(100))
                } else {
                    AttemptOutcome::Success(SimDuration::from_millis_f64(200.0))
                }
            },
        );
        assert!(report.succeeded());
        assert_eq!(report.attempts, 2);
        // 1 (timeout) + 1 (backoff) + 0.2 (success).
        assert_eq!(report.total, SimDuration::from_millis_f64(2200.0));
    }

    #[test]
    fn slow_success_is_a_timeout() {
        let pol = RetryPolicy {
            attempt_timeout: Some(SimDuration::from_secs(1)),
            max_attempts: 1,
            ..policy()
        };
        // The attempt would succeed after 5 s, but it is abandoned at the
        // 1 s timeout — success never materializes.
        let report = retry_until_deadline(
            &pol,
            SimTime::ZERO,
            SimDuration::from_secs(60),
            &mut rng(),
            |_, _| AttemptOutcome::Success(SimDuration::from_secs(5)),
        );
        assert!(!report.succeeded());
        assert_eq!(report.total, SimDuration::from_secs(1));
    }

    #[test]
    fn backoff_grows_exponentially_without_jitter() {
        let pol = policy();
        let mut r = rng();
        assert_eq!(pol.backoff_delay(2, &mut r), SimDuration::from_secs(1));
        assert_eq!(pol.backoff_delay(3, &mut r), SimDuration::from_secs(2));
        assert_eq!(pol.backoff_delay(4, &mut r), SimDuration::from_secs(4));
    }

    /// Regression: jittered backoff is seeded, not wall-clock random —
    /// two streams built from the same seed replay the exact same delay
    /// schedule, and a different seed produces a different one.
    #[test]
    fn jittered_backoff_schedules_replay_for_identical_seeds() {
        let pol = RetryPolicy {
            jitter: 0.3,
            ..policy()
        };
        let schedule = |seed: u64| -> Vec<SimDuration> {
            let mut r = SeedFactory::new(seed).stream("retry-jitter");
            (2..=8).map(|a| pol.backoff_delay(a, &mut r)).collect()
        };
        assert_eq!(schedule(5), schedule(5), "same seed must replay");
        assert_ne!(schedule(5), schedule(6), "distinct seeds must diverge");
        // The jitter stays inside the documented ±30 % envelope.
        for (i, d) in schedule(5).iter().enumerate() {
            let nominal = pol.base_delay.as_secs_f64() * pol.backoff_factor.powi(i as i32);
            let f = d.as_secs_f64() / nominal;
            assert!((0.7..=1.3).contains(&f), "attempt {}: scale {f}", i + 2);
        }
        // The full retry loop inherits the property: identical seeds ⇒
        // identical report, bit for bit.
        let run = |seed: u64| {
            let mut r = SeedFactory::new(seed).stream("retry-jitter");
            retry_until_deadline(
                &pol,
                SimTime::ZERO,
                SimDuration::from_secs(60),
                &mut r,
                |_, _| AttemptOutcome::Failure(SimDuration::from_secs(1)),
            )
        };
        assert_eq!(run(5), run(5));
    }

    /// Boundary: an attempt that takes *exactly* the remaining budget is
    /// a success landing precisely on the deadline, not a cutoff.
    #[test]
    fn success_landing_exactly_on_deadline_counts() {
        let report = retry_until_deadline(
            &policy(),
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            &mut rng(),
            |_, _| AttemptOutcome::Success(SimDuration::from_secs(5)),
        );
        assert!(report.succeeded());
        assert_eq!(report.attempts, 1);
        assert_eq!(report.finished_at, SimTime::from_secs(15));
        assert_eq!(report.total, SimDuration::from_secs(5));
    }

    /// Boundary: a retry whose backoff sleep ends exactly at the instant
    /// a zero-length final attempt succeeds still lands on the deadline.
    #[test]
    fn retry_landing_exactly_on_deadline_counts() {
        // Attempt 1 fails after 2 s, backoff is 1 s, attempt 2 succeeds
        // after exactly the 2 s that remain of the 5 s budget.
        let report = retry_until_deadline(
            &policy(),
            SimTime::ZERO,
            SimDuration::from_secs(5),
            &mut rng(),
            |attempt, _| {
                if attempt == 1 {
                    AttemptOutcome::Failure(SimDuration::from_secs(2))
                } else {
                    AttemptOutcome::Success(SimDuration::from_secs(2))
                }
            },
        );
        assert!(report.succeeded());
        assert_eq!(report.attempts, 2);
        assert_eq!(report.finished_at, SimTime::from_secs(5));
    }

    /// Boundary: a zero budget admits only zero-length work — anything
    /// longer is cut off at the start instant with no time passing.
    #[test]
    fn zero_budget_deadline() {
        let start = SimTime::from_secs(42);
        let report =
            retry_until_deadline(&policy(), start, SimDuration::ZERO, &mut rng(), |_, _| {
                AttemptOutcome::Failure(SimDuration::from_secs(1))
            });
        assert!(!report.succeeded());
        assert_eq!(
            report.error,
            Some(RetryError::DeadlineExceeded { attempts: 1 })
        );
        assert_eq!(report.finished_at, start);
        assert_eq!(report.total, SimDuration::ZERO);

        // An instantaneous success fits inside a zero budget.
        let report =
            retry_until_deadline(&policy(), start, SimDuration::ZERO, &mut rng(), |_, _| {
                AttemptOutcome::Success(SimDuration::ZERO)
            });
        assert!(report.succeeded());
        assert_eq!(report.finished_at, start);
    }

    /// Boundary: backoff arithmetic near `SimDuration::MAX` saturates
    /// instead of overflowing, and the deadline cap still holds.
    #[test]
    fn backoff_overflow_near_duration_max_saturates() {
        let pol = RetryPolicy {
            max_attempts: 3,
            base_delay: SimDuration::MAX,
            backoff_factor: 1e18,
            jitter: 0.0,
            attempt_timeout: None,
        };
        // The nominal delay overflows any finite representation; the
        // policy must saturate rather than wrap or panic.
        let mut r = rng();
        assert_eq!(pol.backoff_delay(2, &mut r), SimDuration::MAX);
        assert_eq!(pol.backoff_delay(3, &mut r), SimDuration::MAX);

        // Inside the loop a saturated delay always exceeds the remaining
        // budget, so the retry gives up at the failed attempt.
        let budget = SimDuration::from_secs(30);
        let report = retry_until_deadline(&pol, SimTime::ZERO, budget, &mut rng(), |_, _| {
            AttemptOutcome::Failure(SimDuration::from_secs(1))
        });
        assert!(!report.succeeded());
        assert_eq!(
            report.error,
            Some(RetryError::DeadlineExceeded { attempts: 1 })
        );
        assert!(report.finished_at <= SimTime::ZERO + budget);
    }
}
