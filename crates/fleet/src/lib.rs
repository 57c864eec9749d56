//! # vdap-fleet — deterministic fleet-scale simulation
//!
//! OpenVDAP's architecture is fleet-shaped: every vehicle streams
//! heterogeneous work to shared XEdge servers (§III): real-time
//! detection offload, infotainment streaming, and pBEAM training
//! rounds. This crate scales the reproduction from single-vehicle
//! experiments to **thousands of vehicles** against shared multi-tenant
//! edge infrastructure, without giving up the workspace's bit-for-bit
//! determinism contract.
//!
//! Every request carries a [`WorkloadClass`] whose [`ClassSpec`] prices
//! it end to end — bytes, fair-queue work units, deadlines, and what
//! "degraded" means when the deadline is missed. The XEdge tier can run
//! with **elastic capacity** ([`FleetConfig::with_elastic_capacity`]):
//! lane counts and tenant queue caps scale up and down from observed
//! queue depth, with decisions sampled only at epoch barriers so
//! elasticity composes with determinism.
//!
//! The **DDI ingestion pipeline** ([`FleetConfig::with_ingest`]) runs
//! alongside request serving: every vehicle batches telemetry records
//! and uploads them through its region's DDI collector over the shared
//! cellular link. Collector queues are bounded; overflow backpressure
//! walks an ingestion degradation ladder (seeded-backoff retry →
//! defer into the vehicle's local TTL cache → shed lowest-priority),
//! and a shared storage tier with finite write throughput drains the
//! queues — all of it sampled only at epoch barriers, and all of it
//! chaos-aware (collector outages, storage brownouts, hard write-error
//! windows).
//!
//! The **geo-mobility subsystem** ([`FleetConfig::with_mobility`])
//! drives every vehicle over a seeded region graph (commute, roam and
//! rush-hour route profiles from `vdap-mobility`). Positions advance
//! only at epoch barriers; a region-boundary crossing pays the cellular
//! handoff cost on the vehicle's next request, moves the vehicle into
//! the destination region, whose admission gate its later requests go
//! through, invalidates its V2V collaboration cache for one epoch, and
//! re-addresses its in-flight ingest batches (see [`MobilityMetrics`]).
//!
//! The fleet is one array indexed by vehicle id. Each epoch the array
//! is cut into fixed-size vehicle batches
//! ([`FleetConfig::with_batch_size`]) that run on a persistent
//! work-stealing executor ([`WorkerPool`], sized by
//! [`FleetConfig::with_executor_threads`]). Cross-vehicle interactions
//! — XEdge admission control and per-(tenant, class) fair queueing, V2V
//! result sharing, regional LTE outages — are exchanged at epoch
//! barriers with conservative synchronization on canonically ordered
//! data, so a run at any executor width and any batch size produces
//! **byte-identical** aggregate metrics to a single-thread run of the
//! same seed (see `FleetReport::summary` and `tests/props.rs`).
//!
//! ```
//! use vdap_fleet::{FleetConfig, FleetEngine};
//! use vdap_sim::SimDuration;
//!
//! let mut cfg = FleetConfig::sized(128).with_elastic_capacity();
//! cfg.duration = SimDuration::from_secs(10);
//! let wide = FleetEngine::new(cfg.clone()).run();
//! let serial = FleetEngine::new(cfg.with_executor_threads(1).with_batch_size(7)).run();
//! assert_eq!(wide.summary(), serial.summary());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ckpt;
mod config;
mod edge;
mod engine;
mod ingest;
mod metrics;
mod pool;
mod vehicle;

pub use ckpt::{SnapshotDiagnostics, SnapshotWrite};
pub use config::{
    collector_label, edge_node_label, handoff_label, region_label, tenant_label, CheckpointConfig,
    ClassSpec, FleetConfig, FleetConfigError, IngestConfig, CKPT_STORE_LABEL, ENGINE_LABEL,
    STORE_LABEL,
};
pub use engine::FleetEngine;
pub use ingest::IngestMetrics;
pub use metrics::{
    ClassMetrics, FleetMetrics, FleetReport, FleetTelemetry, BUDGET_AUTO_SAMPLE, SERIES_RETENTION,
};
pub use pool::WorkerPool;
// The class vocabulary lives in EdgeOSv (every layer speaks it);
// re-exported here so fleet callers need not depend on vdap-edgeos.
pub use vdap_edgeos::{LanePolicy, WorkloadClass};
// The geo-mobility vocabulary lives in vdap-mobility; re-exported so
// fleet callers can configure routes and read the mobility ledger
// without a direct dependency.
pub use vdap_mobility::{MobilityConfig, MobilityMetrics, RegionGraph, RouteProfile};
// The telemetry vocabulary lives in vdap-obs; re-exported so fleet
// callers can consume spans, registries, and profiles directly.
pub use vdap_obs::{
    sample_keeps, BarrierPass, EngineProfile, JsonlSpillSink, MetricsRegistry, RequestSpan,
    SpanLog, SpanOutcome,
};
// The snapshot vocabulary lives in vdap-ckpt; re-exported so fleet
// callers can drive checkpoint/restore without a direct dependency.
pub use vdap_ckpt::{CkptError, Snapshot, SnapshotStore};
