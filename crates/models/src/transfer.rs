//! Transfer learning: compressed cBEAM → personal pBEAM.
//!
//! §IV-E, Figure 9: "Transfer learning is used to transfer the compressed
//! cBEAM to pBEAM by learning the personalized driving data which stores
//! in the DDI." The lower layers (generic driving representations) are
//! frozen; only the head fine-tunes on the driver's own data.

use vdap_sim::RngStream;

use crate::nn::{Dataset, Network, TrainConfig};

/// Transfer-learning hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferConfig {
    /// How many lower layers stay frozen (all but the head by default).
    pub frozen_layers: Option<usize>,
    /// Fine-tuning schedule (shorter and gentler than cloud training).
    pub train: TrainConfig,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            frozen_layers: None,
            train: TrainConfig {
                learning_rate: 0.02,
                epochs: 20,
                batch_size: 16,
                weight_decay: 1e-4,
            },
        }
    }
}

/// Fine-tunes a copy of `base` on `personal` data, freezing the lower
/// layers, and returns the personalized network.
///
/// # Panics
///
/// Panics when `frozen_layers` exceeds the network depth.
#[must_use]
pub fn transfer(
    base: &Network,
    personal: &Dataset,
    config: &TransferConfig,
    rng: &mut RngStream,
) -> Network {
    let mut net = base.clone();
    let depth = net.layers().len();
    let frozen = config.frozen_layers.unwrap_or(depth.saturating_sub(1));
    assert!(frozen <= depth, "cannot freeze more layers than exist");
    net.train(personal, &config.train, rng, frozen);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressConfig};
    use crate::features::{
        driver_dataset, personal_driver_dataset, population_dataset, SensorBias, FEATURE_DIM,
    };
    use crate::nn::Network;
    use vdap_ddi::DriverStyle;
    use vdap_sim::SeedFactory;

    fn seeds() -> SeedFactory {
        SeedFactory::new(0x7EA)
    }

    fn trained_cbeam() -> Network {
        let seeds = seeds();
        let pop = population_dataset(150, 20, &seeds);
        let mut rng = seeds.stream("cbeam");
        let mut net = Network::new(&[FEATURE_DIM, 32, 16, 3], &mut rng);
        net.train(&pop, &TrainConfig::default(), &mut rng, 0);
        net
    }

    #[test]
    fn transfer_improves_on_biased_personal_data() {
        let seeds = seeds();
        let mut cbeam = trained_cbeam();
        let mut rng = seeds.stream("compress");
        compress(&mut cbeam, &CompressConfig::default(), &mut rng);

        // An aggressive driver judged against their own baseline: the
        // population model flags their routine cornering and braking as
        // events, so it starts badly on the personal ground truth and
        // personalization has a real gap to close.
        let personal_train = personal_driver_dataset(
            DriverStyle::Aggressive,
            SensorBias::none(),
            200,
            20,
            seeds.stream("personal-train"),
        );
        let personal_test = personal_driver_dataset(
            DriverStyle::Aggressive,
            SensorBias::none(),
            200,
            20,
            seeds.stream("personal-test"),
        );

        let before = cbeam.accuracy(&personal_test);
        let mut rng = seeds.stream("transfer");
        let pbeam = transfer(
            &cbeam,
            &personal_train,
            &TransferConfig::default(),
            &mut rng,
        );
        let after = pbeam.accuracy(&personal_test);
        assert!(
            after > before + 0.03,
            "personalization gain too small: {before:.3} -> {after:.3}"
        );
        assert!(after > 0.75, "pBEAM should be usable: {after:.3}");
    }

    #[test]
    fn frozen_layers_untouched_by_transfer() {
        let seeds = seeds();
        let cbeam = trained_cbeam();
        let personal = driver_dataset(
            DriverStyle::Calm,
            SensorBias::worn_imu(),
            50,
            20,
            seeds.stream("p"),
        );
        let mut rng = seeds.stream("t");
        let pbeam = transfer(&cbeam, &personal, &TransferConfig::default(), &mut rng);
        let depth = cbeam.layers().len();
        for l in 0..depth - 1 {
            assert_eq!(
                pbeam.layers()[l].weights,
                cbeam.layers()[l].weights,
                "frozen layer {l} moved"
            );
        }
        assert_ne!(
            pbeam.layers()[depth - 1].weights,
            cbeam.layers()[depth - 1].weights,
            "head did not fine-tune"
        );
    }

    #[test]
    fn explicit_frozen_count_respected() {
        let seeds = seeds();
        let cbeam = trained_cbeam();
        let personal = driver_dataset(
            DriverStyle::Normal,
            SensorBias::worn_imu(),
            40,
            20,
            seeds.stream("p2"),
        );
        let config = TransferConfig {
            frozen_layers: Some(1),
            ..TransferConfig::default()
        };
        let mut rng = seeds.stream("t2");
        let pbeam = transfer(&cbeam, &personal, &config, &mut rng);
        assert_eq!(pbeam.layers()[0].weights, cbeam.layers()[0].weights);
        assert_ne!(pbeam.layers()[1].weights, cbeam.layers()[1].weights);
    }

    #[test]
    fn base_is_not_mutated() {
        let seeds = seeds();
        let cbeam = trained_cbeam();
        let snapshot = cbeam.clone();
        let personal = driver_dataset(
            DriverStyle::Calm,
            SensorBias::none(),
            30,
            20,
            seeds.stream("p3"),
        );
        let mut rng = seeds.stream("t3");
        let _ = transfer(&cbeam, &personal, &TransferConfig::default(), &mut rng);
        assert_eq!(cbeam, snapshot);
    }
}
