//! # vdap-ddi — the Driving Data Integrator
//!
//! The paper's DDI (§IV-D, Figure 7): a collector layer (OBD/sensor
//! telemetry plus weather, traffic and social context — synthesized
//! deterministically here), a two-tier database (an in-memory TTL cache
//! over a persistent disk store), and a service layer that answers
//! time-space upload/download requests with full latency accounting.
//!
//! ```
//! use vdap_ddi::{DdiService, DriverStyle, ObdCollector, Query, RecordKind};
//! use vdap_sim::{SeedFactory, SimDuration, SimTime};
//!
//! let mut obd = ObdCollector::new(DriverStyle::Normal, SeedFactory::new(1).stream("obd"));
//! let mut ddi = DdiService::new(4096, SimDuration::from_secs(300));
//! for record in obd.trace(SimTime::ZERO, 100) {
//!     let at = record.at;
//!     ddi.upload(record, at);
//! }
//! let out = ddi.download(
//!     &Query::window(RecordKind::Driving, SimTime::ZERO, SimTime::from_secs(60)),
//!     SimTime::from_secs(10),
//! );
//! assert!(!out.records.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod diskdb;
mod ingest;
mod memdb;
mod record;
mod service;

pub use collector::{
    DriverStyle, ObdCollector, SocialCollector, TrafficCollector, WeatherCollector,
};
pub use diskdb::{DiskDb, DiskStats};
pub use ingest::{RegionCollector, StorageTierModel, UploadBatch};
pub use memdb::{CacheStats, MemDb, MemKey};
pub use record::{
    DrivingSample, GeoBox, GeoPoint, Payload, Record, RecordKind, SocialEvent, TrafficSample,
    WeatherSample,
};
pub use service::{DdiError, DdiService, Download, Query, ServedFrom, ServiceStats};
