//! # vdap-perf — the fleet-engine benchmark
//!
//! Runs four batch workloads through `vdap-fleet`'s public API and
//! measures them from outside the program: end-to-end wall time,
//! throughput, peak RSS and set-up time per workload, and per-layer
//! timings from spans the benchmark records around its own calls into
//! each layer. Times are calibrated against a fixed reference kernel
//! timed next to every run, so a slow phase of the host does not read
//! as a regression. Every run is checked for correctness before its
//! numbers count. See `README.md` for the workloads, the metrics and
//! their bounds.

pub mod calibrate;
pub mod layers;
pub mod results;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
