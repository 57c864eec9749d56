//! # vdap-bench — benchmark and paper-reproduction harness
//!
//! Two consumers share this crate:
//!
//! * the `repro` binary, which regenerates every table and figure of the
//!   paper (plus the DESIGN.md extension experiments) as text tables;
//! * the Criterion benches under `benches/`, which measure the real CPU
//!   cost of the substrate (CV kernels, channel simulation, planners,
//!   training loops).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod table;
