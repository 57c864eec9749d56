//! # vdap-obs — platform-wide observability
//!
//! The measurement vocabulary for the OpenVDAP reproduction: typed
//! request spans ([`RequestSpan`], [`SpanLog`]), a registry of named
//! counters/gauges/per-epoch time series that rolls over-long series
//! into [`StreamingHistogram`]s ([`MetricsRegistry`]), a
//! Chrome trace-event JSON exporter ([`chrome_trace`], loadable in
//! `about://tracing` and Perfetto), a segment-rotating JSONL span spill
//! writer with an identity-keyed sampling hash ([`JsonlSpillSink`],
//! [`sample_keeps`]), and a wall-clock engine profile for the fleet
//! engine ([`EngineProfile`]).
//!
//! ## The determinism boundary
//!
//! Everything except the engine profile is *sim-time* telemetry: spans
//! and series are derived from values the deterministic serving path
//! already computes, sampled at epoch barriers or ordered by the
//! canonical `(generated, vehicle, seq)` request key. Turning telemetry
//! on therefore cannot perturb a run, and the engine's byte-identity
//! across executor width and batch size extends to the telemetry
//! itself. The profile is the one *wall-clock* component; it lives on
//! the other side of the boundary and is only ever reported as typed
//! fields of its own, never in a deterministic summary.
//!
//! ```
//! use vdap_obs::{chrome_trace, MetricsRegistry, RequestSpan, SpanLog, SpanOutcome};
//! use vdap_sim::SimTime;
//!
//! let mut spans = SpanLog::new();
//! spans.push(RequestSpan {
//!     vehicle: 0, seq: 0, tenant: 0, region: 0, shard: 0,
//!     class: "detection",
//!     generated: SimTime::ZERO,
//!     admitted: None,
//!     serve_start: None,
//!     completed: SimTime::from_nanos(8_000_000),
//!     outcome: SpanOutcome::CollabHit,
//!     retries: 0, requeues: 0, handoff: false,
//! });
//! let doc = chrome_trace(&spans, &MetricsRegistry::new());
//! let text = serde_json::to_string(&doc).unwrap();
//! assert!(text.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod profile;
mod registry;
mod sink;
mod span;

pub use chrome::{chrome_trace, span_event, spans_jsonl};
pub use profile::{BarrierPass, EngineProfile, WorkerSample};
pub use registry::{MetricsRegistry, SeriesPoint};
pub use sink::{sample_keeps, JsonlSpillSink, DEFAULT_SEGMENT_BYTES, SPAN_RESIDENT_BYTES};
pub use span::{RequestSpan, SpanLog, SpanOutcome};
// The histogram behind every registry rollup is the workspace's one
// streaming histogram; re-exported so registry callers need not depend
// on vdap-sim.
pub use vdap_sim::StreamingHistogram;
