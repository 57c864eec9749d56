//! # vdap-offload — workload offloading and scheduling strategies
//!
//! The decision layer between the vehicle and its surroundings: the
//! three §III computing architectures as comparable strategies
//! (cloud-only, in-vehicle-only, edge-based), an exhaustive pipeline
//! placement planner for the §IV-C "where should each sub-workload run"
//! problem, V2V collaboration via a freshness-bounded shared result
//! cache, and the cost accounting every comparison uses.
//!
//! ```
//! use vdap_edgeos::{Environment, Objective};
//! use vdap_hw::{catalog, VcuBoard};
//! use vdap_net::NetTopology;
//! use vdap_offload::{run_strategy, CloudOnly, EdgeBased, InVehicleOnly, OffloadStrategy};
//! use vdap_models::zoo;
//! use vdap_sim::SimTime;
//!
//! let net = NetTopology::reference();
//! let board = VcuBoard::reference_design();
//! let edge = catalog::xedge_server();
//! let cloud = catalog::cloud_server();
//! let env = Environment {
//!     net: &net, board: &board, edge: &edge, cloud: &cloud,
//!     edge_load: 1.0, cloud_load: 1.0, now: SimTime::ZERO,
//! };
//! let stages = [zoo::lane_detection()];
//! let edge_cost = run_strategy(&EdgeBased::default(), &stages, &env, 1).unwrap();
//! let cloud_cost = run_strategy(&CloudOnly, &stages, &env, 1).unwrap();
//! assert!(edge_cost.latency <= cloud_cost.latency);
//! # let _ = InVehicleOnly.name();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collab;
mod contention;
mod cost;
mod planner;
mod strategy;

pub use collab::{CollabStats, ResultCache, ResultKey, SharedResult, Tile};
pub use contention::ContentionModel;
pub use cost::CostReport;
pub use planner::{optimal_placement, Plan, PlanError, MAX_EXHAUSTIVE_STAGES};
pub use strategy::{
    place_degradable, price, run_strategy, CloudOnly, DegradedPlacement, EdgeBased, FallbackReason,
    InVehicleOnly, OffloadStrategy,
};
