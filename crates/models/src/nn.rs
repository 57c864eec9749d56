//! A from-scratch dense neural network.
//!
//! The trainable substrate behind cBEAM/pBEAM (§IV-E): an MLP classifier
//! with ReLU hidden layers and a softmax head, trained by mini-batch SGD
//! with cross-entropy loss. Small by design — driving-behaviour models
//! run on the vehicle, which is exactly the paper's point.

use vdap_sim::RngStream;

use crate::tensor::Matrix;

/// A labelled dataset: row-per-sample features plus class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// One row per sample.
    pub features: Matrix,
    /// Class index per sample.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics when rows and labels disagree.
    #[must_use]
    pub fn new(features: Matrix, labels: Vec<usize>) -> Self {
        assert_eq!(features.rows(), labels.len(), "one label per row");
        Dataset { features, labels }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Splits into `(train, test)` with the given train fraction,
    /// preserving order (callers shuffle first if needed).
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `(0, 1)`.
    #[must_use]
    pub fn split(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&fraction) && fraction > 0.0);
        let n_train = ((self.len() as f64) * fraction).round() as usize;
        let n_train = n_train.clamp(1, self.len() - 1);
        let cols = self.features.cols();
        let take = |lo: usize, hi: usize| {
            let data: Vec<f64> = (lo..hi)
                .flat_map(|r| self.features.row(r).to_vec())
                .collect();
            Dataset::new(
                Matrix::from_vec(hi - lo, cols, data),
                self.labels[lo..hi].to_vec(),
            )
        };
        (take(0, n_train), take(n_train, self.len()))
    }
}

/// One dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Weight matrix, `inputs × outputs`.
    pub weights: Matrix,
    /// Bias row, `1 × outputs`.
    pub bias: Matrix,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut RngStream) -> Self {
        Layer {
            weights: Matrix::xavier(inputs, outputs, rng),
            bias: Matrix::zeros(1, outputs),
        }
    }

    /// Number of weight parameters (excluding bias).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }
}

/// A feed-forward classifier: ReLU hidden layers, softmax output.
///
/// # Examples
///
/// ```
/// use vdap_models::{Network, TrainConfig};
/// use vdap_sim::SeedFactory;
///
/// let mut rng = SeedFactory::new(1).stream("nn");
/// let net = Network::new(&[4, 8, 3], &mut rng);
/// assert_eq!(net.layer_sizes(), vec![4, 8, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
    sizes: Vec<usize>,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Full passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.05,
            epochs: 30,
            batch_size: 32,
            weight_decay: 1e-4,
        }
    }
}

impl Network {
    /// Creates a network with the given layer widths
    /// (`[inputs, hidden..., classes]`).
    ///
    /// # Panics
    ///
    /// Panics with fewer than two sizes.
    #[must_use]
    pub fn new(sizes: &[usize], rng: &mut RngStream) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "layer widths must be positive"
        );
        let layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], rng))
            .collect();
        Network {
            layers,
            sizes: sizes.to_vec(),
        }
    }

    /// Layer widths, inputs first.
    #[must_use]
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.sizes.clone()
    }

    /// The layers (read-only).
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access (used by compression and transfer learning).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        *self.sizes.last().expect("validated sizes")
    }

    /// Total weight parameters (excluding biases).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::weight_count).sum()
    }

    /// Dense storage footprint in bytes at 32-bit weights.
    #[must_use]
    pub fn dense_bytes(&self) -> u64 {
        (self.parameter_count() as u64) * 4
    }

    /// Forward pass: per-row softmax class probabilities.
    #[must_use]
    pub fn forward(&self, inputs: &Matrix) -> Matrix {
        let (activations, _) = self.forward_trace(inputs);
        activations
            .last()
            .expect("at least the input activation")
            .clone()
    }

    /// Forward pass retaining every activation (and pre-activation) for
    /// backprop. Returns `(activations, pre_activations)`.
    fn forward_trace(&self, inputs: &Matrix) -> (Vec<Matrix>, Vec<Matrix>) {
        let mut activations = vec![inputs.clone()];
        let mut zs = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let prev = activations.last().expect("non-empty activations");
            let mut z = prev.matmul(&layer.weights);
            // Broadcast bias row.
            for r in 0..z.rows() {
                for c in 0..z.cols() {
                    z[(r, c)] += layer.bias[(0, c)];
                }
            }
            let a = if i + 1 == self.layers.len() {
                softmax_rows(&z)
            } else {
                z.map(|x| x.max(0.0))
            };
            zs.push(z);
            activations.push(a);
        }
        (activations, zs)
    }

    /// Predicted class per row.
    #[must_use]
    pub fn predict(&self, inputs: &Matrix) -> Vec<usize> {
        let probs = self.forward(inputs);
        (0..probs.rows())
            .map(|r| {
                probs
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }

    /// Classification accuracy on a dataset, in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.predict(&data.features);
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Mean cross-entropy loss on a dataset.
    #[must_use]
    pub fn loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let probs = self.forward(&data.features);
        let mut total = 0.0;
        for (r, &label) in data.labels.iter().enumerate() {
            total -= probs[(r, label)].max(1e-12).ln();
        }
        total / data.len() as f64
    }

    /// Mini-batch SGD training. `frozen_layers` lower layers keep their
    /// weights (transfer learning); pass 0 to train everything.
    pub fn train(
        &mut self,
        data: &Dataset,
        config: &TrainConfig,
        rng: &mut RngStream,
        frozen_layers: usize,
    ) {
        assert!(
            frozen_layers <= self.layers.len(),
            "cannot freeze more layers than exist"
        );
        if data.is_empty() {
            return;
        }
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(config.batch_size.max(1)) {
                let batch = gather(data, chunk);
                self.sgd_step(&batch, config, frozen_layers);
            }
        }
    }

    /// One SGD step on a batch (softmax + cross-entropy gradients).
    fn sgd_step(&mut self, batch: &Dataset, config: &TrainConfig, frozen_layers: usize) {
        let (activations, _zs) = self.forward_trace(&batch.features);
        let m = batch.len() as f64;
        // dL/dz for the softmax head: probs - onehot.
        let probs = activations.last().expect("output activation");
        let mut delta = probs.clone();
        for (r, &label) in batch.labels.iter().enumerate() {
            delta[(r, label)] -= 1.0;
        }
        // Walk layers backwards.
        for l in (0..self.layers.len()).rev() {
            let a_prev = &activations[l];
            let grad_w = a_prev.transpose().matmul(&delta).scale(1.0 / m);
            let mut grad_b = Matrix::zeros(1, delta.cols());
            for r in 0..delta.rows() {
                for c in 0..delta.cols() {
                    grad_b[(0, c)] += delta[(r, c)] / m;
                }
            }
            // Propagate before updating (uses current weights).
            let next_delta = if l > 0 {
                let back = delta.matmul(&self.layers[l].weights.transpose());
                // ReLU mask from the previous activation.
                let mask = activations[l].map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                back.hadamard(&mask)
            } else {
                delta.clone()
            };
            if l >= frozen_layers {
                let layer = &mut self.layers[l];
                let decayed = layer.weights.scale(config.weight_decay);
                layer.weights = layer
                    .weights
                    .add(&grad_w.add(&decayed).scale(-config.learning_rate));
                layer.bias = layer.bias.add(&grad_b.scale(-config.learning_rate));
            }
            delta = next_delta;
        }
    }
}

fn gather(data: &Dataset, indices: &[usize]) -> Dataset {
    let cols = data.features.cols();
    let rows: Vec<f64> = indices
        .iter()
        .flat_map(|&i| data.features.row(i).to_vec())
        .collect();
    Dataset::new(
        Matrix::from_vec(indices.len(), cols, rows),
        indices.iter().map(|&i| data.labels[i]).collect(),
    )
}

fn softmax_rows(z: &Matrix) -> Matrix {
    let mut out = z.clone();
    for r in 0..z.rows() {
        let row_max = z.row(r).iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for c in 0..z.cols() {
            let e = (z[(r, c)] - row_max).exp();
            out[(r, c)] = e;
            sum += e;
        }
        for c in 0..z.cols() {
            out[(r, c)] /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    /// Two well-separated Gaussian blobs per class.
    fn blobs(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = SeedFactory::new(seed).stream("blobs");
        let centers = [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)];
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                feats.push(rng.normal(cx, 0.6));
                feats.push(rng.normal(cy, 0.6));
                labels.push(label);
            }
        }
        // Interleave classes so ordered splits stay balanced.
        let n = labels.len();
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        let data: Vec<f64> = idx
            .iter()
            .flat_map(|&i| feats[2 * i..2 * i + 2].to_vec())
            .collect();
        let labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
        Dataset::new(Matrix::from_vec(n, 2, data), labels)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = SeedFactory::new(1).stream("nn");
        let net = Network::new(&[2, 5, 3], &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -0.5], &[2.0, 1.0]]);
        let p = net.forward(&x);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn training_learns_separable_blobs() {
        let mut rng = SeedFactory::new(2).stream("nn");
        let data = blobs(80, 7);
        let (train, test) = data.split(0.75);
        let mut net = Network::new(&[2, 16, 3], &mut rng);
        let before = net.accuracy(&test);
        net.train(&train, &TrainConfig::default(), &mut rng, 0);
        let after = net.accuracy(&test);
        assert!(after > 0.9, "expected >90% on separable blobs, got {after}");
        assert!(after > before);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SeedFactory::new(3).stream("nn");
        let data = blobs(50, 9);
        let mut net = Network::new(&[2, 8, 3], &mut rng);
        let before = net.loss(&data);
        net.train(&data, &TrainConfig::default(), &mut rng, 0);
        assert!(net.loss(&data) < before);
    }

    #[test]
    fn frozen_layers_do_not_move() {
        let mut rng = SeedFactory::new(4).stream("nn");
        let data = blobs(30, 11);
        let mut net = Network::new(&[2, 8, 3], &mut rng);
        let frozen_before = net.layers()[0].weights.clone();
        let head_before = net.layers()[1].weights.clone();
        net.train(
            &data,
            &TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
            &mut rng,
            1,
        );
        assert_eq!(net.layers()[0].weights, frozen_before, "frozen layer moved");
        assert_ne!(net.layers()[1].weights, head_before, "head did not train");
    }

    #[test]
    fn deterministic_training() {
        let data = blobs(40, 13);
        let build = || {
            let mut rng = SeedFactory::new(5).stream("nn");
            let mut net = Network::new(&[2, 8, 3], &mut rng);
            net.train(
                &data,
                &TrainConfig {
                    epochs: 3,
                    ..TrainConfig::default()
                },
                &mut rng,
                0,
            );
            net
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn split_preserves_all_samples() {
        let data = blobs(20, 15);
        let (a, b) = data.split(0.8);
        assert_eq!(a.len() + b.len(), data.len());
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn parameter_count_and_bytes() {
        let mut rng = SeedFactory::new(6).stream("nn");
        let net = Network::new(&[4, 8, 3], &mut rng);
        assert_eq!(net.parameter_count(), 4 * 8 + 8 * 3);
        assert_eq!(net.dense_bytes(), (4 * 8 + 8 * 3) * 4);
        assert_eq!(net.classes(), 3);
    }

    #[test]
    fn empty_dataset_edge_cases() {
        let mut rng = SeedFactory::new(8).stream("nn");
        let net = Network::new(&[2, 3], &mut rng);
        let empty = Dataset::new(Matrix::zeros(1, 2), vec![0]);
        // One-row data is fine; accuracy is 0 or 1.
        let acc = net.accuracy(&empty);
        assert!(acc == 0.0 || acc == 1.0);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn mismatched_labels_rejected() {
        let _ = Dataset::new(Matrix::zeros(3, 2), vec![0, 1]);
    }
}
