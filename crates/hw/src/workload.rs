//! Compute workload descriptions.
//!
//! A [`ComputeWorkload`] is the unit of demand that the VCU's dynamic
//! scheduling framework places onto processors: a named amount of
//! floating-point work with a task class (which processors accelerate
//! differently), a memory footprint, and a parallelizable fraction used
//! for Amdahl-style speedup on wide processors.

/// Classes of computation that the paper's heterogeneous platform (mHEP)
/// maps onto different processors (§IV-B): GPUs for dense ML math, FPGAs
/// for feature extraction / codecs, ASICs for fixed-function kernels, DSPs
/// for signal processing, CPUs for control logic and everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskClass {
    /// Branchy scalar work: parsing, planning, bookkeeping.
    ControlLogic,
    /// Classic computer-vision kernels (filters, Hough, cascades).
    VisionKernel,
    /// Dense linear algebra: CNN/DNN inference and training.
    DenseLinearAlgebra,
    /// Streaming signal processing (sensor fusion, FFT-like).
    SignalProcessing,
    /// Feature extraction / compression / media encode-decode.
    MediaCodec,
}

impl TaskClass {
    /// All task classes, for iteration and table building.
    pub const ALL: [TaskClass; 5] = [
        TaskClass::ControlLogic,
        TaskClass::VisionKernel,
        TaskClass::DenseLinearAlgebra,
        TaskClass::SignalProcessing,
        TaskClass::MediaCodec,
    ];

    /// Dense index for per-class lookup tables.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            TaskClass::ControlLogic => 0,
            TaskClass::VisionKernel => 1,
            TaskClass::DenseLinearAlgebra => 2,
            TaskClass::SignalProcessing => 3,
            TaskClass::MediaCodec => 4,
        }
    }

    /// Short lowercase label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            TaskClass::ControlLogic => "control",
            TaskClass::VisionKernel => "vision",
            TaskClass::DenseLinearAlgebra => "dense-la",
            TaskClass::SignalProcessing => "dsp",
            TaskClass::MediaCodec => "codec",
        }
    }
}

impl std::fmt::Display for TaskClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A quantified unit of compute demand.
///
/// # Examples
///
/// ```
/// use vdap_hw::{ComputeWorkload, TaskClass};
///
/// let inference = ComputeWorkload::new("inception-v3", TaskClass::DenseLinearAlgebra)
///     .with_gflops(11.4)
///     .with_memory_mb(92.0)
///     .with_parallel_fraction(0.97);
/// assert_eq!(inference.flops(), 11.4e9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeWorkload {
    name: String,
    class: TaskClass,
    flops: f64,
    memory_bytes: u64,
    parallel_fraction: f64,
    output_bytes: u64,
    input_bytes: u64,
}

impl ComputeWorkload {
    /// Creates a workload with zero cost; use the `with_*` builders to size it.
    #[must_use]
    pub fn new(name: impl Into<String>, class: TaskClass) -> Self {
        ComputeWorkload {
            name: name.into(),
            class,
            flops: 0.0,
            memory_bytes: 0,
            parallel_fraction: 0.9,
            output_bytes: 0,
            input_bytes: 0,
        }
    }

    /// Sets the floating-point cost in GFLOPs.
    ///
    /// # Panics
    ///
    /// Panics when `gflops` is negative or non-finite.
    #[must_use]
    pub fn with_gflops(mut self, gflops: f64) -> Self {
        assert!(gflops.is_finite() && gflops >= 0.0, "gflops must be >= 0");
        self.flops = gflops * 1e9;
        self
    }

    /// Sets the working-set size in megabytes.
    #[must_use]
    pub fn with_memory_mb(mut self, mb: f64) -> Self {
        assert!(mb.is_finite() && mb >= 0.0, "memory must be >= 0");
        self.memory_bytes = (mb * 1024.0 * 1024.0) as u64;
        self
    }

    /// Sets the Amdahl parallel fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when the fraction is outside `[0, 1]`.
    #[must_use]
    pub fn with_parallel_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "parallel fraction must be in [0, 1]"
        );
        self.parallel_fraction = fraction;
        self
    }

    /// Sets the size of the data the workload consumes (for transfer cost).
    #[must_use]
    pub fn with_input_bytes(mut self, bytes: u64) -> Self {
        self.input_bytes = bytes;
        self
    }

    /// Sets the size of the result the workload produces.
    #[must_use]
    pub fn with_output_bytes(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Task class used for processor affinity.
    #[must_use]
    pub fn class(&self) -> TaskClass {
        self.class
    }

    /// Total floating-point operations.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// Working-set size in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Amdahl parallel fraction.
    #[must_use]
    pub fn parallel_fraction(&self) -> f64 {
        self.parallel_fraction
    }

    /// Bytes of input this workload must receive before running remotely.
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Bytes of result this workload ships back.
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.output_bytes
    }

    /// Splits this workload into `n` equal parallel shards (used by the
    /// DSF task partitioner). Shards keep the parent's class and fraction.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[must_use]
    pub fn split(&self, n: usize) -> Vec<ComputeWorkload> {
        assert!(n > 0, "cannot split into zero shards");
        let each_flops = self.flops / n as f64;
        (0..n)
            .map(|i| ComputeWorkload {
                name: format!("{}[{}/{}]", self.name, i + 1, n),
                class: self.class,
                flops: each_flops,
                memory_bytes: self.memory_bytes / n as u64,
                parallel_fraction: self.parallel_fraction,
                input_bytes: self.input_bytes / n as u64,
                output_bytes: self.output_bytes / n as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let w = ComputeWorkload::new("w", TaskClass::VisionKernel)
            .with_gflops(2.0)
            .with_memory_mb(1.0)
            .with_parallel_fraction(0.5)
            .with_input_bytes(100)
            .with_output_bytes(10);
        assert_eq!(w.flops(), 2.0e9);
        assert_eq!(w.memory_bytes(), 1024 * 1024);
        assert_eq!(w.parallel_fraction(), 0.5);
        assert_eq!(w.input_bytes(), 100);
        assert_eq!(w.output_bytes(), 10);
        assert_eq!(w.class(), TaskClass::VisionKernel);
    }

    #[test]
    #[should_panic(expected = "parallel fraction")]
    fn rejects_bad_fraction() {
        let _ = ComputeWorkload::new("w", TaskClass::ControlLogic).with_parallel_fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "gflops")]
    fn rejects_negative_gflops() {
        let _ = ComputeWorkload::new("w", TaskClass::ControlLogic).with_gflops(-1.0);
    }

    #[test]
    fn split_preserves_total_flops() {
        let w = ComputeWorkload::new("w", TaskClass::DenseLinearAlgebra).with_gflops(9.0);
        let shards = w.split(3);
        assert_eq!(shards.len(), 3);
        let total: f64 = shards.iter().map(ComputeWorkload::flops).sum();
        assert!((total - 9.0e9).abs() < 1.0);
        assert!(shards[0].name().contains("[1/3]"));
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; TaskClass::ALL.len()];
        for class in TaskClass::ALL {
            let i = class.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            TaskClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TaskClass::ALL.len());
    }
}
