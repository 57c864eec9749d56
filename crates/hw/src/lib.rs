//! # vdap-hw — heterogeneous vehicle hardware models
//!
//! The hardware substrate under OpenVDAP's Vehicle Computing Unit (§IV-B
//! of the paper): processor models with per-task-class effective
//! throughput and two-point power draw, a catalog of named parts
//! calibrated against the paper's Figure 3 and Table I measurements, a
//! power budget + EV battery range model (§III-B), a multi-channel SSD,
//! and the VCU board that composes them with plug-and-play 2ndHEP slots.
//!
//! ```
//! use vdap_hw::{catalog, ComputeWorkload, TaskClass};
//!
//! let v100 = catalog::tesla_v100();
//! let inception = ComputeWorkload::new("inception-v3", TaskClass::DenseLinearAlgebra)
//!     .with_gflops(catalog::INCEPTION_V3_GFLOPS)
//!     .with_parallel_fraction(1.0);
//! let t = v100.service_time(&inception);
//! assert!((t.as_millis_f64() - 26.8).abs() < 0.2); // paper Fig. 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod board;
pub mod catalog;
mod power;
mod processor;
mod storage;
mod workload;

pub use board::{AttachError, CommModule, HepLevel, Slot, SlotId, VcuBoard};
pub use power::{Battery, PowerBudget};
pub use processor::{
    ProcessorKind, ProcessorSpec, ProcessorSpecBuilder, ProcessorUnit, SlotHealth,
};
pub use storage::{SsdModel, StorageFull, StorageOp};
pub use workload::{ComputeWorkload, TaskClass};
