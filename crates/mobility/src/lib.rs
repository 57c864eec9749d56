//! # vdap-mobility — geo-mobility substrate for the fleet engine
//!
//! OpenVDAP's network substrate (§III-A) measures what a *moving*
//! vehicle pays at every cell boundary; this crate supplies the motion.
//! It models a metro area as a seeded [`RegionGraph`] — nodes are the
//! fleet's coverage regions (each with an XEdge home), edges are road
//! segments with a nominal speed and a finite capacity — and gives
//! every vehicle a deterministic [`VehicleTrack`]: a route plan drawn
//! once from the vehicle's private RNG stream and advanced **only at
//! epoch barriers**.
//!
//! Three [`RouteProfile`]s reproduce the CAVBench-style traffic
//! patterns that make handoff storms *emerge* instead of being
//! injected:
//!
//! - **Commute** — home → work early in the run, back late, with a wide
//!   departure window.
//! - **Roam** — random-walk between neighboring regions with
//!   exponential dwells.
//! - **Rush hour** — a narrow synchronized departure window aimed at a
//!   small set of downtown regions, so crossings (and the admission and
//!   collector load they drag along) pile up at the same destinations
//!   in the same epochs.
//!
//! Determinism contract: a track consumes only its own stream, the
//! graph is built from one seeded stream, and positions advance in
//! whole epoch windows — so the sequence of [`Crossing`]s is a pure
//! function of `(seed, vehicle, epoch)` and never depends on how the
//! fleet engine schedules vehicles. Congestion is barrier-quantized the
//! same way: segment occupancy is sampled at the barrier and locks a
//! traversal multiplier when a vehicle *enters* the segment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod metrics;
mod route;

pub use graph::{RegionGraph, RoadSegment};
pub use metrics::MobilityMetrics;
pub use route::{
    Crossing, MobilityConfig, RouteProfile, TrackLeg, TrackMotion, TrackSnapshot, VehicleTrack,
};
