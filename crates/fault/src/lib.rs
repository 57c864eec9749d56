//! # vdap-fault — deterministic fault injection and recovery policies
//!
//! OpenVDAP's premise is that safety-critical vehicle workloads keep
//! running when the environment misbehaves: the paper's LTE drive test
//! (Figure 2) measures real handoff outages, and the DSF (§IV-B) exists
//! precisely to re-plan when resources change. This crate supplies the
//! adverse conditions: a seeded [`FaultPlan`] describes *what* breaks
//! (compute slots, links, storage, services), *when* (start, duration,
//! recurrence), and a [`FaultInjector`] compiles that plan into an
//! ordered timeline whose transitions the simulation schedules as
//! first-class events. Everything derives from a [`vdap_sim::RngStream`],
//! so a chaos run replays bit-identically from its scenario seed.
//!
//! Recovery lives next to injection: [`RetryPolicy`] is the shared
//! exponential-backoff-with-jitter policy used by DDI uploads and
//! EdgeOS service migration, and it is deadline-aware — a retried
//! transfer never exceeds the task's deadline budget.
//!
//! ```
//! use vdap_fault::{FaultKind, FaultPlan, FaultSpec};
//! use vdap_sim::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new(SimDuration::from_secs(120))
//!     .with_fault(FaultSpec::new(
//!         FaultKind::SlotFailure,
//!         "slot1",
//!         SimTime::from_secs(40),
//!         SimDuration::from_secs(30),
//!     ));
//! let injector = plan.compile();
//! assert!(injector.is_down("slot1", SimTime::from_secs(50)));
//! assert!(!injector.is_down("slot1", SimTime::from_secs(80)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod injector;
mod plan;
mod retry;

pub use injector::{FaultEdge, FaultInjector, FaultTransition, FaultWindow};
pub use plan::{ChaosProfile, FaultKind, FaultPlan, FaultSpec};
pub use retry::{retry_until_deadline, AttemptOutcome, RetryError, RetryPolicy, RetryReport};
