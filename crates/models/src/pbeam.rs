//! The pBEAM build pipeline (§IV-E, Figure 9).
//!
//! End to end, exactly as the paper draws it: a Common Driving Behaviour
//! Model (cBEAM) is trained on a large multi-driver dataset "in the
//! cloud", Deep-Compressed, downloaded to the vehicle, and transfer-
//! learned into a Personalized Driving Behaviour Model (pBEAM) on the
//! driver's own DDI data. [`PbeamPipeline::run`] executes all four steps
//! and reports every number the experiment needs.

use vdap_ddi::DriverStyle;
use vdap_sim::SeedFactory;

use crate::compress::{compress_with_retrain, CompressConfig, CompressionReport};
use crate::features::{personal_driver_dataset, population_dataset, SensorBias, FEATURE_DIM};
use crate::nn::{Network, TrainConfig};
use crate::transfer::{transfer, TransferConfig};

/// Configuration for the full cBEAM → pBEAM pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PbeamConfig {
    /// Telemetry windows per driver style in the cloud dataset.
    pub windows_per_style: usize,
    /// Windows in the personal train/test sets.
    pub personal_windows: usize,
    /// OBD samples per window (10 Hz).
    pub window_len: usize,
    /// Hidden layer widths of cBEAM.
    pub hidden: Vec<usize>,
    /// Cloud training schedule.
    pub cloud_train: TrainConfig,
    /// Deep-Compression settings.
    pub compress: CompressConfig,
    /// On-vehicle transfer-learning settings.
    pub transfer: TransferConfig,
}

impl Default for PbeamConfig {
    fn default() -> Self {
        PbeamConfig {
            windows_per_style: 200,
            personal_windows: 200,
            window_len: 20,
            hidden: vec![32, 16],
            cloud_train: TrainConfig::default(),
            compress: CompressConfig::default(),
            transfer: TransferConfig::default(),
        }
    }
}

/// Everything the pBEAM experiment reports (DESIGN.md E7).
#[derive(Debug, Clone, PartialEq)]
pub struct PbeamReport {
    /// cBEAM accuracy on held-out population data, before compression.
    pub cbeam_accuracy: f64,
    /// cBEAM accuracy on the same split, after compression.
    pub compressed_accuracy: f64,
    /// Compressed cBEAM accuracy on the personal (biased-sensor) test set.
    pub personal_before: f64,
    /// pBEAM accuracy on the personal test set after transfer learning.
    pub personal_after: f64,
    /// Deep-Compression size accounting.
    pub compression: CompressionReport,
}

impl PbeamReport {
    /// The personalization gain transfer learning delivered.
    #[must_use]
    pub fn personalization_gain(&self) -> f64 {
        self.personal_after - self.personal_before
    }

    /// Accuracy given up by compression on population data.
    #[must_use]
    pub fn compression_drop(&self) -> f64 {
        self.cbeam_accuracy - self.compressed_accuracy
    }
}

/// The runnable pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PbeamPipeline {
    config: PbeamConfig,
    seeds: SeedFactory,
}

impl PbeamPipeline {
    /// Creates the pipeline with a scenario seed.
    #[must_use]
    pub fn new(config: PbeamConfig, seeds: SeedFactory) -> Self {
        PbeamPipeline { config, seeds }
    }

    /// Runs all four stages for one personal driver and returns the
    /// report plus the finished pBEAM network.
    #[must_use]
    pub fn run(
        &self,
        personal_style: DriverStyle,
        personal_bias: SensorBias,
    ) -> (PbeamReport, Network) {
        let c = &self.config;
        // Stage 1 — cloud: train cBEAM on the population.
        let population = population_dataset(c.windows_per_style, c.window_len, &self.seeds);
        let (train, test) = population.split(0.8);
        let mut sizes = vec![FEATURE_DIM];
        sizes.extend(&c.hidden);
        sizes.push(crate::features::Maneuver::COUNT);
        let mut rng = self.seeds.stream("cbeam-train");
        let mut cbeam = Network::new(&sizes, &mut rng);
        cbeam.train(&train, &c.cloud_train, &mut rng, 0);
        let cbeam_accuracy = cbeam.accuracy(&test);

        // Stage 2 — compress for the edge (prune, masked retrain,
        // weight-share — the full Deep Compression recipe).
        let mut rng = self.seeds.stream("compress");
        let compression = compress_with_retrain(&mut cbeam, &c.compress, &train, &mut rng);
        let compressed_accuracy = cbeam.accuracy(&test);

        // Stage 3 — download to the vehicle; evaluate on personal data.
        // Personal ground truth is driver-relative (`personal_label`):
        // the distribution shift pBEAM exists to close.
        let personal_train = personal_driver_dataset(
            personal_style,
            personal_bias,
            c.personal_windows,
            c.window_len,
            self.seeds.stream("personal-train"),
        );
        let personal_test = personal_driver_dataset(
            personal_style,
            personal_bias,
            c.personal_windows,
            c.window_len,
            self.seeds.stream("personal-test"),
        );
        let personal_before = cbeam.accuracy(&personal_test);

        // Stage 4 — transfer-learn pBEAM on DDI data.
        let mut rng = self.seeds.stream("transfer");
        let pbeam = transfer(&cbeam, &personal_train, &c.transfer, &mut rng);
        let personal_after = pbeam.accuracy(&personal_test);

        (
            PbeamReport {
                cbeam_accuracy,
                compressed_accuracy,
                personal_before,
                personal_after,
                compression,
            },
            pbeam,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PbeamConfig {
        PbeamConfig {
            windows_per_style: 120,
            personal_windows: 150,
            ..PbeamConfig::default()
        }
    }

    fn run_once(seed: u64) -> PbeamReport {
        let pipeline = PbeamPipeline::new(quick_config(), SeedFactory::new(seed));
        let (report, _) = pipeline.run(DriverStyle::Aggressive, SensorBias::none());
        report
    }

    #[test]
    fn full_pipeline_shapes_hold() {
        let r = run_once(42);
        // The cloud model must actually learn the task.
        assert!(r.cbeam_accuracy > 0.8, "cBEAM weak: {}", r.cbeam_accuracy);
        // Compression must be substantial and nearly free.
        assert!(r.compression.ratio() > 4.0);
        assert!(
            r.compression_drop() < 0.1,
            "compression dropped too much: {}",
            r.compression_drop()
        );
        // Personalization must close a real gap.
        assert!(
            r.personalization_gain() > 0.02,
            "gain too small: before {} after {}",
            r.personal_before,
            r.personal_after
        );
        assert!(r.personal_after > 0.7);
    }

    #[test]
    fn pipeline_is_deterministic() {
        assert_eq!(run_once(7), run_once(7));
    }

    #[test]
    fn unbiased_driver_needs_less_personalization() {
        let pipeline = PbeamPipeline::new(quick_config(), SeedFactory::new(11));
        let (biased, _) = pipeline.run(DriverStyle::Normal, SensorBias::worn_imu());
        let (clean, _) = pipeline.run(DriverStyle::Normal, SensorBias::none());
        assert!(
            clean.personal_before > biased.personal_before,
            "a clean sensor should start better: {} vs {}",
            clean.personal_before,
            biased.personal_before
        );
    }

    #[test]
    fn pbeam_network_returned_is_usable() {
        let pipeline = PbeamPipeline::new(quick_config(), SeedFactory::new(13));
        let (_, pbeam) = pipeline.run(DriverStyle::Calm, SensorBias::none());
        assert_eq!(pbeam.classes(), crate::features::Maneuver::COUNT);
        assert_eq!(
            pbeam.layer_sizes().first().copied(),
            Some(crate::features::FEATURE_DIM)
        );
    }
}
