//! # vdap-sim — deterministic simulation kernel
//!
//! The foundation of the OpenVDAP reproduction: virtual time, a
//! discrete-event engine, deterministic random streams, measurement
//! primitives, and structured tracing. Every other crate in the workspace
//! expresses latency, loss, energy and scheduling behaviour on top of
//! these types, which is what makes the paper's experiments reproducible
//! bit-for-bit from a single scenario seed.
//!
//! ## Quick tour
//!
//! ```
//! use vdap_sim::{SeedFactory, SimDuration, Simulation};
//!
//! // A tiny arrival process measured with the kernel.
//! struct World {
//!     served: u32,
//! }
//!
//! let seeds = SeedFactory::new(0xC0FFEE);
//! let mut arrivals = seeds.stream("arrivals");
//! let mut sim = Simulation::new(World { served: 0 });
//! let mut t = SimDuration::ZERO;
//! for _ in 0..10 {
//!     t += SimDuration::from_millis_f64(arrivals.exponential(5.0));
//!     sim.schedule_in(t, "arrival", |ctx| ctx.state_mut().served += 1);
//! }
//! sim.run();
//! assert_eq!(sim.state().served, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod hash;
mod histogram;
#[cfg(test)]
mod metrics;
mod reliability;
mod rng;
mod time;
mod trace;

pub use event::{Ctx, EventFn, RunReport, Simulation, StopReason};
pub use hash::{fnv1a64, fnv1a64_extend, splitmix64};
pub use histogram::{HistogramState, HistogramStateError, StreamingHistogram};
pub use reliability::{ReliabilityState, ReliabilityStats};
pub use rng::{RngStream, SeedFactory};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLevel, TraceLog};
