//! # vdap-vcu — the Dynamic Scheduling Framework (DSF)
//!
//! The scheduling half of the paper's Vehicle Computing Unit (§IV-B,
//! Figure 5): a task partitioner that breaks applications into sub-task
//! DAGs, resource/application profiles, an affinity-aware
//! earliest-finish-time scheduler with round-robin and CPU-only
//! baselines, and a resource registry providing dynamic join/exit
//! (2ndHEP plug-and-play) and per-application access control — the
//! paper's "control knob".
//!
//! ```
//! use vdap_hw::VcuBoard;
//! use vdap_sim::SimTime;
//! use vdap_vcu::{license_plate_pipeline, DsfScheduler, SchedulePolicy};
//!
//! let board = VcuBoard::reference_design();
//! let graph = license_plate_pipeline(None);
//! let plan = DsfScheduler::new().plan(&graph, &board, SimTime::ZERO)?;
//! assert_eq!(plan.assignments.len(), 3);
//! # Ok::<(), vdap_vcu::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod admission;
mod failover;
mod partitioner;
mod profile;
mod registry;
mod scheduler;
mod task;

pub use admission::{Admission, AdmissionController, UtilizationReport};
pub use failover::{affected_tasks, fail_over, FailoverError, FailoverReport};
pub use partitioner::{license_plate_pipeline, partition_data_parallel, partition_pipeline, Stage};
pub use profile::{capture_all, ApplicationProfile, ResourceProfile};
pub use registry::{AppId, RegistryError, ResourceRegistry};
pub use scheduler::{
    commit, Assignment, CpuOnlyScheduler, DsfScheduler, RoundRobinScheduler, Schedule,
    ScheduleError, SchedulePolicy,
};
pub use task::{GraphError, Priority, Task, TaskGraph, TaskId};
