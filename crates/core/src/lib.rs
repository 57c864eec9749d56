//! # OpenVDAP — an Open Vehicular Data Analytics Platform for CAVs
//!
//! A full reproduction of the ICDCS 2018 OpenVDAP architecture paper as
//! a Rust workspace. This crate assembles the substrates into the
//! platform of the paper's Figure 4:
//!
//! * **VCU** — heterogeneous board + DSF scheduler (`vdap-hw`,
//!   `vdap-vcu`) behind a resource registry with control-knob access
//!   control;
//! * **EdgeOSv** — polymorphic services, elastic management, TEE
//!   security, pseudonym privacy, data sharing (`vdap-edgeos`);
//! * **DDI** — the two-tier driving data integrator (`vdap-ddi`);
//! * **libvdap** — the four-group developer API over models, VCU
//!   resources and data sharing (`vdap-models`, [`Libvdap`]);
//! * **offloading** — the §III strategy baselines, the placement
//!   planner, and V2V collaboration (`vdap-offload`).
//!
//! ## Quickstart
//!
//! ```
//! use openvdap::{apps, Infrastructure, Objective, OpenVdap};
//! use vdap_sim::SimTime;
//!
//! let mut vehicle = OpenVdap::builder().seed(7).build();
//! let amber = vehicle.register_service(apps::amber_alert(
//!     vdap_sim::SimDuration::from_millis(800),
//! ));
//! let infra = Infrastructure::reference();
//! vehicle.adapt(amber, &infra, SimTime::ZERO, Objective::MinLatency);
//! let cost = vehicle.serve(amber, &infra, SimTime::ZERO).expect("running");
//! println!("end-to-end latency: {}", cost.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
pub mod apps;
pub mod chaos;
mod infra;
mod platform;
pub mod scenario;

pub use api::Libvdap;
pub use infra::Infrastructure;
pub use platform::{OpenVdap, OpenVdapBuilder, ServiceHandle};

// Convenience re-exports so examples and downstream users need only the
// `openvdap` crate for common flows.
pub use vdap_edgeos::{Objective, PolymorphicService, ServiceState};
pub use vdap_net::{Mph, Site};
pub use vdap_offload::CostReport;
