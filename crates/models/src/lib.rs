//! # vdap-models — the libvdap model substrate
//!
//! Everything §IV-E of the paper needs, built from scratch: a small dense
//! linear-algebra layer, a trainable MLP (the cBEAM/pBEAM substrate),
//! Deep Compression (magnitude pruning + k-means weight sharing),
//! transfer learning, driving-behaviour feature extraction over DDI
//! telemetry, real computer-vision kernels (Sobel, Hough lane detection,
//! integral-image Haar cascades) for the Table I algorithms, and the
//! common model library with calibrated workload costs.
//!
//! ```
//! use vdap_models::zoo;
//! use vdap_hw::catalog::aws_vcpu_2_4ghz;
//!
//! // Table I, row 1: lane detection on the AWS vCPU.
//! let t = aws_vcpu_2_4ghz().service_time(&zoo::lane_detection());
//! assert!((t.as_millis_f64() - 13.57).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod compress;
pub mod cv;
mod features;
mod nn;
mod pbeam;
mod tensor;
mod transfer;
pub mod zoo;

pub use cache::{ModelCache, ModelCacheStats, Residency};
pub use compress::{compress, compress_with_retrain, prune, CompressConfig, CompressionReport};
pub use features::{
    driver_dataset, label_window, personal_driver_dataset, personal_label, population_dataset,
    window_features, Maneuver, SensorBias, FEATURE_DIM,
};
pub use nn::{Dataset, Layer, Network, TrainConfig};
pub use pbeam::{PbeamConfig, PbeamPipeline, PbeamReport};
pub use tensor::Matrix;
pub use transfer::{transfer, TransferConfig};
