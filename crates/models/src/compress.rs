//! Deep Compression (§IV-E).
//!
//! "a compression algorithm based on Deep Compression is used, in which
//! cBEAM is pruned first to reduce the number of connections by learning
//! only the important connections, then the number of bits for
//! representing each weight is reduced via the weight sharing technique."
//!
//! Two stages, as in Han et al.:
//! 1. **Magnitude pruning** — zero the smallest `sparsity` fraction of
//!    each layer's weights.
//! 2. **Weight sharing** — cluster the survivors per layer with k-means
//!    into a small codebook; every weight becomes a code index.
//!
//! [`CompressionReport`] accounts the size: dense 32-bit weights vs
//! sparse indices at `ceil(log2 k)` bits plus the codebook.

use vdap_sim::RngStream;

use crate::nn::Network;

/// Compression hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressConfig {
    /// Fraction of weights to prune per layer, in `[0, 1)`.
    pub sparsity: f64,
    /// Codebook size per layer (shared-weight clusters).
    pub codebook_size: usize,
    /// k-means iterations.
    pub kmeans_iters: usize,
    /// Masked fine-tuning epochs after pruning (Han et al. retrain the
    /// surviving connections before quantizing); used by
    /// [`compress_with_retrain`].
    pub retrain_epochs: usize,
}

impl Default for CompressConfig {
    fn default() -> Self {
        CompressConfig {
            sparsity: 0.7,
            codebook_size: 16,
            kmeans_iters: 25,
            retrain_epochs: 10,
        }
    }
}

/// Size accounting for one compressed network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionReport {
    /// Dense footprint, bytes (32-bit weights).
    pub dense_bytes: u64,
    /// Compressed footprint, bytes (sparse indices + codebooks).
    pub compressed_bytes: u64,
    /// Non-zero weights remaining.
    pub remaining_weights: usize,
    /// Total weights before pruning.
    pub total_weights: usize,
}

impl CompressionReport {
    /// Compression ratio (dense / compressed), ≥ 1 for real savings.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            f64::INFINITY
        } else {
            self.dense_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Fraction of weights pruned away.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.total_weights == 0 {
            0.0
        } else {
            1.0 - self.remaining_weights as f64 / self.total_weights as f64
        }
    }
}

/// Prunes the smallest-magnitude `sparsity` fraction of each layer.
///
/// # Panics
///
/// Panics when `sparsity` is outside `[0, 1)`.
pub fn prune(network: &mut Network, sparsity: f64) {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0,1)");
    for layer in network.layers_mut() {
        let mut magnitudes: Vec<f64> = layer.weights.data().iter().map(|w| w.abs()).collect();
        magnitudes.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite weights"));
        let cut = ((magnitudes.len() as f64) * sparsity) as usize;
        if cut == 0 {
            continue;
        }
        let threshold = magnitudes[cut - 1];
        for w in layer.weights.data_mut() {
            if w.abs() <= threshold {
                *w = 0.0;
            }
        }
    }
}

/// One-dimensional k-means over the non-zero weights of a layer.
/// Returns the codebook (sorted) — empty when there are no survivors.
fn kmeans_1d(values: &[f64], k: usize, iters: usize, rng: &mut RngStream) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let k = k.min(values.len());
    // Initialize centroids on the value range (linear init is the Deep
    // Compression recommendation over random init).
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut centroids: Vec<f64> = if k == 1 || (hi - lo).abs() < 1e-12 {
        vec![(lo + hi) / 2.0]
    } else {
        (0..k)
            .map(|i| lo + (hi - lo) * i as f64 / (k - 1) as f64)
            .collect()
    };
    for _ in 0..iters {
        let mut sums = vec![0.0; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for &v in values {
            let idx = nearest(&centroids, v);
            sums[idx] += v;
            counts[idx] += 1;
        }
        for i in 0..centroids.len() {
            if counts[i] > 0 {
                centroids[i] = sums[i] / counts[i] as f64;
            } else {
                // Re-seed dead centroids at a random survivor.
                centroids[i] = values[rng.below(values.len() as u64) as usize];
            }
        }
    }
    centroids.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite centroids"));
    centroids
}

fn nearest(centroids: &[f64], v: f64) -> usize {
    centroids
        .iter()
        .enumerate()
        .min_by(|a, b| {
            (a.1 - v)
                .abs()
                .partial_cmp(&(b.1 - v).abs())
                .expect("finite distance")
        })
        .map(|(i, _)| i)
        .expect("non-empty codebook")
}

/// Applies Deep Compression in place (prune, then snap surviving weights
/// to their per-layer codebook centroid); returns the size report.
pub fn compress(
    network: &mut Network,
    config: &CompressConfig,
    rng: &mut RngStream,
) -> CompressionReport {
    assert!(
        config.codebook_size >= 2,
        "codebook needs at least 2 entries"
    );
    prune(network, config.sparsity);
    quantize(network, config, rng)
}

/// Deep Compression with the paper-faithful retraining pass: prune, then
/// fine-tune the *surviving* connections on `data` (the pruning mask is
/// re-applied after every epoch so pruned weights stay dead), then
/// weight-share.
pub fn compress_with_retrain(
    network: &mut Network,
    config: &CompressConfig,
    data: &crate::nn::Dataset,
    rng: &mut RngStream,
) -> CompressionReport {
    assert!(
        config.codebook_size >= 2,
        "codebook needs at least 2 entries"
    );
    prune(network, config.sparsity);
    let masks: Vec<Vec<bool>> = network
        .layers()
        .iter()
        .map(|l| l.weights.data().iter().map(|&w| w != 0.0).collect())
        .collect();
    let retrain = crate::nn::TrainConfig {
        learning_rate: 0.02,
        epochs: 1,
        batch_size: 32,
        weight_decay: 1e-4,
    };
    for _ in 0..config.retrain_epochs {
        network.train(data, &retrain, rng, 0);
        for (layer, mask) in network.layers_mut().iter_mut().zip(&masks) {
            for (w, &alive) in layer.weights.data_mut().iter_mut().zip(mask) {
                if !alive {
                    *w = 0.0;
                }
            }
        }
    }
    quantize(network, config, rng)
}

/// Weight sharing + size accounting over an already-pruned network.
fn quantize(
    network: &mut Network,
    config: &CompressConfig,
    rng: &mut RngStream,
) -> CompressionReport {
    let dense_bytes = network.dense_bytes();
    let total_weights = network.parameter_count();
    let mut compressed_bits = 0u64;
    let mut remaining = 0usize;
    let index_bits = (config.codebook_size as f64).log2().ceil() as u64;
    for layer in network.layers_mut() {
        let survivors: Vec<f64> = layer
            .weights
            .data()
            .iter()
            .copied()
            .filter(|&w| w != 0.0)
            .collect();
        let codebook = kmeans_1d(&survivors, config.codebook_size, config.kmeans_iters, rng);
        if !codebook.is_empty() {
            for w in layer.weights.data_mut() {
                if *w != 0.0 {
                    *w = codebook[nearest(&codebook, *w)];
                }
            }
        }
        remaining += layer.weights.nonzero();
        // Sparse storage cost per survivor: the shared-weight code plus a
        // 5-bit relative position offset (Deep Compression's CSR-with-
        // relative-indexing layout), plus the per-layer codebook.
        compressed_bits += (layer.weights.nonzero() as u64) * (index_bits + 5);
        compressed_bits += (codebook.len() as u64) * 32;
    }
    CompressionReport {
        dense_bytes,
        compressed_bytes: compressed_bits.div_ceil(8),
        remaining_weights: remaining,
        total_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Dataset, Network, TrainConfig};
    use crate::tensor::Matrix;
    use vdap_sim::SeedFactory;

    fn blobs(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = SeedFactory::new(seed).stream("blobs");
        let centers = [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                data.push(rng.normal(cx, 0.5));
                data.push(rng.normal(cy, 0.5));
                labels.push(label);
            }
        }
        Dataset::new(Matrix::from_vec(labels.len(), 2, data), labels)
    }

    fn trained_net(seed: u64) -> (Network, Dataset) {
        let mut rng = SeedFactory::new(seed).stream("nn");
        let data = blobs(60, seed);
        let mut net = Network::new(&[2, 24, 3], &mut rng);
        net.train(&data, &TrainConfig::default(), &mut rng, 0);
        (net, data)
    }

    #[test]
    fn prune_hits_target_sparsity() {
        let (mut net, _) = trained_net(1);
        let total = net.parameter_count();
        prune(&mut net, 0.6);
        let nz: usize = net.layers().iter().map(|l| l.weights.nonzero()).sum();
        let sparsity = 1.0 - nz as f64 / total as f64;
        assert!((sparsity - 0.6).abs() < 0.05, "sparsity {sparsity}");
    }

    #[test]
    fn prune_zero_is_identity() {
        let (mut net, _) = trained_net(2);
        let before = net.clone();
        prune(&mut net, 0.0);
        assert_eq!(net, before);
    }

    #[test]
    fn compress_shrinks_size_substantially() {
        // Size accounting is codebook-amortized, so use a realistically
        // sized network (the tiny test nets are codebook-dominated).
        let mut rng = SeedFactory::new(3).stream("net");
        let mut net = Network::new(&[2, 128, 64, 3], &mut rng);
        let report = compress(&mut net, &CompressConfig::default(), &mut rng);
        assert!(
            report.ratio() > 8.0,
            "expected >8x compression, got {:.2}x",
            report.ratio()
        );
        assert!(report.sparsity() > 0.6);
        assert!(report.compressed_bytes < report.dense_bytes);
    }

    #[test]
    fn retraining_recovers_pruning_damage() {
        let (mut harsh, data) = trained_net(31);
        let mut plain = harsh.clone();
        let config = CompressConfig {
            sparsity: 0.85,
            ..CompressConfig::default()
        };
        let mut rng = SeedFactory::new(31).stream("km");
        compress(&mut plain, &config, &mut rng);
        let mut rng = SeedFactory::new(31).stream("km");
        compress_with_retrain(&mut harsh, &config, &data, &mut rng);
        let plain_acc = plain.accuracy(&data);
        let retrained_acc = harsh.accuracy(&data);
        assert!(
            retrained_acc >= plain_acc,
            "retraining should not hurt: {retrained_acc} vs {plain_acc}"
        );
        // Retrained survivors still honour the pruning mask.
        let nz: usize = harsh.layers().iter().map(|l| l.weights.nonzero()).sum();
        let total = harsh.parameter_count();
        assert!((1.0 - nz as f64 / total as f64) > 0.8, "mask not preserved");
    }

    #[test]
    fn compressed_model_keeps_most_accuracy() {
        let (mut net, data) = trained_net(4);
        let before = net.accuracy(&data);
        let mut rng = SeedFactory::new(4).stream("km");
        compress(&mut net, &CompressConfig::default(), &mut rng);
        let after = net.accuracy(&data);
        assert!(before > 0.9, "baseline should be strong, got {before}");
        assert!(
            after > before - 0.1,
            "compression cost too much accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn codebook_bounds_distinct_values() {
        let (mut net, _) = trained_net(5);
        let mut rng = SeedFactory::new(5).stream("km");
        let config = CompressConfig {
            codebook_size: 8,
            ..CompressConfig::default()
        };
        compress(&mut net, &config, &mut rng);
        for layer in net.layers() {
            let mut distinct: Vec<u64> = layer
                .weights
                .data()
                .iter()
                .filter(|&&w| w != 0.0)
                .map(|w| w.to_bits())
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() <= 8,
                "layer has {} distinct shared weights",
                distinct.len()
            );
        }
    }

    #[test]
    fn higher_sparsity_smaller_model() {
        let sizes: Vec<u64> = [0.5, 0.8, 0.95]
            .iter()
            .map(|&s| {
                let (mut net, _) = trained_net(6);
                let mut rng = SeedFactory::new(6).stream("km");
                compress(
                    &mut net,
                    &CompressConfig {
                        sparsity: s,
                        ..CompressConfig::default()
                    },
                    &mut rng,
                )
                .compressed_bytes
            })
            .collect();
        assert!(sizes[0] > sizes[1]);
        assert!(sizes[1] > sizes[2]);
    }

    #[test]
    fn kmeans_handles_degenerate_inputs() {
        let mut rng = SeedFactory::new(7).stream("km");
        assert!(kmeans_1d(&[], 4, 10, &mut rng).is_empty());
        let one = kmeans_1d(&[2.5], 4, 10, &mut rng);
        assert_eq!(one.len(), 1);
        assert!((one[0] - 2.5).abs() < 1e-12);
        let constant = kmeans_1d(&[1.0; 10], 4, 10, &mut rng);
        assert!(constant.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn report_math() {
        let r = CompressionReport {
            dense_bytes: 1000,
            compressed_bytes: 100,
            remaining_weights: 30,
            total_weights: 100,
        };
        assert!((r.ratio() - 10.0).abs() < 1e-12);
        assert!((r.sparsity() - 0.7).abs() < 1e-12);
    }
}
