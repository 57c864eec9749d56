//! The common model library (§IV-E) and the paper's workload catalog.
//!
//! "The common model library contains many common algorithms and models
//! that are used frequently in vehicle-based applications, such as
//! Natural Language Processing, Video Processing, Audio Processing and so
//! on. ... the models that are in the Common model library are compressed
//! based on the powerful models."
//!
//! Two things live here:
//!
//! 1. **Calibrated workload costs** for the algorithms the paper measures
//!    — Table I's trio and Figure 3's Inception v3 — expressed as
//!    [`ComputeWorkload`]s whose GFLOP counts reproduce the measured
//!    latencies on the calibrated processors in `vdap_hw::catalog`.
//! 2. **Model catalog entries**: named models with dense and compressed
//!    footprints and the task class they run as.

use vdap_hw::{ComputeWorkload, TaskClass};

/// Paper Table I: measured algorithm latencies on the AWS 2.4 GHz vCPU.
pub const TABLE1_LATENCY_MS: [(&str, f64); 3] = [
    ("lane-detection", 13.57),
    ("vehicle-detection-haar", 269.46),
    ("vehicle-detection-cnn", 13_971.98),
];

/// Lane detection on one 720P frame (classic CV pipeline).
///
/// 0.1357 GFLOPs at the vCPU's calibrated 10 GFLOP/s vision rate
/// reproduces Table I's 13.57 ms.
#[must_use]
pub fn lane_detection() -> ComputeWorkload {
    ComputeWorkload::new("lane-detection", TaskClass::VisionKernel)
        .with_gflops(0.1357)
        .with_memory_mb(8.0)
        .with_parallel_fraction(1.0)
        .with_input_bytes(1280 * 720 * 3 / 2)
        .with_output_bytes(512)
}

/// Haar-cascade vehicle detection on one 720P frame.
///
/// 2.6946 GFLOPs → 269.46 ms on the Table I vCPU.
#[must_use]
pub fn vehicle_detection_haar() -> ComputeWorkload {
    ComputeWorkload::new("vehicle-detection-haar", TaskClass::VisionKernel)
        .with_gflops(2.6946)
        .with_memory_mb(24.0)
        .with_parallel_fraction(1.0)
        .with_input_bytes(1280 * 720 * 3 / 2)
        .with_output_bytes(1024)
}

/// Deep-learning vehicle detection (the TensorFlow detector) on one 720P
/// frame.
///
/// 69.8599 GFLOPs of dense math → 13 971.98 ms at the vCPU's calibrated
/// 5 GFLOP/s dense rate.
#[must_use]
pub fn vehicle_detection_cnn() -> ComputeWorkload {
    ComputeWorkload::new("vehicle-detection-cnn", TaskClass::DenseLinearAlgebra)
        .with_gflops(69.8599)
        .with_memory_mb(550.0)
        .with_parallel_fraction(1.0)
        .with_input_bytes(1280 * 720 * 3 / 2)
        .with_output_bytes(2048)
}

/// Inception-v3 single-image classification (Figure 3's workload).
#[must_use]
pub fn inception_v3() -> ComputeWorkload {
    ComputeWorkload::new("inception-v3", TaskClass::DenseLinearAlgebra)
        .with_gflops(vdap_hw::catalog::INCEPTION_V3_GFLOPS)
        .with_memory_mb(92.0)
        .with_parallel_fraction(1.0)
        .with_input_bytes(299 * 299 * 3)
        .with_output_bytes(4096)
}

/// The three Table I workloads in the paper's row order.
#[must_use]
pub fn table1_workloads() -> Vec<ComputeWorkload> {
    vec![
        lane_detection(),
        vehicle_detection_haar(),
        vehicle_detection_cnn(),
    ]
}

/// Domains in the common model library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelDomain {
    /// Natural language processing (voice commands).
    NaturalLanguage,
    /// Video processing (detection, tracking).
    Video,
    /// Audio processing (cabin sound events).
    Audio,
    /// Driving behaviour (cBEAM/pBEAM).
    DrivingBehavior,
}

/// A catalog entry in the common model library.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEntry {
    /// Model name.
    pub name: String,
    /// Domain.
    pub domain: ModelDomain,
    /// Per-inference compute demand.
    pub workload: ComputeWorkload,
    /// Dense (cloud) footprint, bytes.
    pub dense_bytes: u64,
    /// Compressed (edge) footprint, bytes.
    pub compressed_bytes: u64,
    /// Accuracy of the dense model, `[0, 1]`.
    pub dense_accuracy: f64,
    /// Accuracy after compression, `[0, 1]`.
    pub compressed_accuracy: f64,
}

impl ModelEntry {
    /// Compression ratio of the stored edge copy.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes as f64 / self.compressed_bytes as f64
    }

    /// Accuracy given up by compression.
    #[must_use]
    pub fn accuracy_drop(&self) -> f64 {
        self.dense_accuracy - self.compressed_accuracy
    }
}

/// The built-in common model library: representative 2018-era models
/// with Deep-Compression-scale size reductions (the paper cites 35–49×
/// from Han et al.).
#[must_use]
pub fn common_model_library() -> Vec<ModelEntry> {
    let entry = |name: &str,
                 domain: ModelDomain,
                 workload: ComputeWorkload,
                 dense_mb: f64,
                 ratio: f64,
                 dense_acc: f64,
                 drop: f64| {
        ModelEntry {
            name: name.to_string(),
            domain,
            workload,
            dense_bytes: (dense_mb * 1e6) as u64,
            compressed_bytes: ((dense_mb * 1e6) / ratio) as u64,
            dense_accuracy: dense_acc,
            compressed_accuracy: dense_acc - drop,
        }
    };
    vec![
        entry(
            "inception-v3",
            ModelDomain::Video,
            inception_v3(),
            95.0,
            10.0,
            0.937,
            0.005,
        ),
        entry(
            "vehicle-detector-cnn",
            ModelDomain::Video,
            vehicle_detection_cnn(),
            548.0,
            13.0,
            0.91,
            0.01,
        ),
        entry(
            "voice-command-nlp",
            ModelDomain::NaturalLanguage,
            ComputeWorkload::new("voice-command-nlp", TaskClass::DenseLinearAlgebra)
                .with_gflops(1.8)
                .with_memory_mb(60.0)
                .with_parallel_fraction(0.95),
            240.0,
            35.0,
            0.94,
            0.012,
        ),
        entry(
            "cabin-audio-events",
            ModelDomain::Audio,
            ComputeWorkload::new("cabin-audio-events", TaskClass::SignalProcessing)
                .with_gflops(0.4)
                .with_memory_mb(12.0)
                .with_parallel_fraction(0.9),
            45.0,
            20.0,
            0.90,
            0.008,
        ),
        entry(
            "cbeam",
            ModelDomain::DrivingBehavior,
            ComputeWorkload::new("cbeam", TaskClass::DenseLinearAlgebra)
                .with_gflops(0.002)
                .with_memory_mb(1.0)
                .with_parallel_fraction(0.8),
            2.0,
            8.0,
            0.88,
            0.015,
        ),
    ]
}

/// Looks up a library entry by name.
#[must_use]
pub fn library_entry(name: &str) -> Option<ModelEntry> {
    common_model_library().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_hw::catalog::aws_vcpu_2_4ghz;

    #[test]
    fn table1_latencies_reproduce_exactly() {
        let cpu = aws_vcpu_2_4ghz();
        for (workload, (name, expect_ms)) in table1_workloads().iter().zip(TABLE1_LATENCY_MS) {
            assert_eq!(workload.name(), name);
            let got = cpu.service_time(workload).as_millis_f64();
            assert!(
                (got - expect_ms).abs() / expect_ms < 0.001,
                "{name}: got {got} ms, paper {expect_ms} ms"
            );
        }
    }

    #[test]
    fn haar_vs_cnn_gap_matches_paper() {
        // The paper: Haar is "around 51x faster" than the TF detector.
        let cpu = aws_vcpu_2_4ghz();
        let haar = cpu.service_time(&vehicle_detection_haar()).as_millis_f64();
        let cnn = cpu.service_time(&vehicle_detection_cnn()).as_millis_f64();
        let speedup = cnn / haar;
        assert!(
            (speedup - 51.86).abs() < 1.0,
            "speedup {speedup} should be ≈51x"
        );
    }

    #[test]
    fn cnn_detector_does_not_fit_tiny_accelerators() {
        // 550 MB working set exceeds the Movidius NCS's 512 MB.
        let ncs = vdap_hw::catalog::movidius_ncs();
        assert!(!ncs.fits(&vehicle_detection_cnn()));
        assert!(ncs.fits(&inception_v3()));
    }

    #[test]
    fn library_compression_ratios_in_deep_compression_range() {
        for e in common_model_library() {
            let r = e.compression_ratio();
            assert!(
                (7.0..=50.0).contains(&r),
                "{}: ratio {r} outside Deep-Compression range",
                e.name
            );
            assert!(e.accuracy_drop() >= 0.0 && e.accuracy_drop() < 0.02);
            assert!(e.compressed_bytes < e.dense_bytes);
        }
    }

    #[test]
    fn library_lookup() {
        assert!(library_entry("inception-v3").is_some());
        assert!(library_entry("nonexistent").is_none());
    }

    #[test]
    fn compressed_models_fit_edge_memory_budget() {
        // The point of compressing for the edge: every compressed model
        // fits in a 64 MB model cache; several dense ones would not.
        let lib = common_model_library();
        assert!(lib.iter().all(|e| e.compressed_bytes < 64 * 1024 * 1024));
        assert!(lib.iter().any(|e| e.dense_bytes > 64 * 1024 * 1024));
    }
}
