//! # vdap-edgeos — EdgeOSv, the vehicle operating system
//!
//! The paper's EdgeOSv (§IV-C): polymorphic services with multiple
//! execution pipelines, the Elastic Management module that selects the
//! best pipeline per environment snapshot (or hangs the service), a
//! Security module with TEE/container isolation and the
//! compromise→reinstall reliability loop, a pseudonym-based Privacy
//! module, and an authenticated, access-controlled Data Sharing bus.
//! Together these deliver the DEIR properties (Differentiation,
//! Extensibility, Isolation, Reliability) the paper inherits from
//! EdgeOS_H.
//!
//! ```
//! use vdap_edgeos::{kidnapper_search, ElasticManager, Environment, Objective};
//! use vdap_hw::{catalog, VcuBoard};
//! use vdap_net::{NetTopology, Site};
//! use vdap_sim::{SimDuration, SimTime};
//!
//! let net = NetTopology::reference();
//! let board = VcuBoard::reference_design();
//! let edge = catalog::xedge_server();
//! let cloud = catalog::cloud_server();
//! let env = Environment {
//!     net: &net, board: &board, edge: &edge, cloud: &cloud,
//!     edge_load: 1.0, cloud_load: 1.0, now: SimTime::ZERO,
//! };
//! let mut service = kidnapper_search(SimDuration::from_millis(500), Site::Edge);
//! let decision = ElasticManager::new().decide(&mut service, &env, Objective::MinLatency);
//! assert!(decision.selected.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod elastic;
mod migration;
mod privacy;
mod security;
mod service;
mod sharing;
mod supervisor;
mod tenancy;

pub use elastic::{
    Decision, ElasticManager, Environment, LaneDecision, LanePolicy, Objective, PipelineEstimate,
};
pub use migration::{
    MigrationError, MigrationMode, MigrationReport, ServiceImage, ServiceMigrator,
};
pub use privacy::{Pseudonym, PseudonymManager, VehicleId};
pub use security::{Attestation, GuardState, IsolationMode, SecurityError, SecurityMonitor};
pub use service::{kidnapper_search, Pipeline, PipelineStage, PolymorphicService, ServiceState};
pub use sharing::{AuditEntry, SharedItem, SharingBus, SharingError, Token};
pub use supervisor::{CrashLoopPolicy, ServiceSupervisor, SupervisorDecision};
pub use tenancy::{
    AdmissionState, ClassQueueKey, FairQueue, TenantAdmission, TenantId, WorkloadClass,
};
