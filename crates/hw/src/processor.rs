//! Processor models.
//!
//! A [`ProcessorSpec`] captures what the paper's Figure 3 measures about a
//! part: how fast it retires work of each [`TaskClass`] and how much power
//! it draws doing so. Specs are *calibrated effective* throughputs (what a
//! real single-image inference achieves), not peak datasheet numbers.
//! [`ProcessorUnit`] adds runtime state — a busy-until horizon and energy
//! accounting — so schedulers can queue work on it.

use vdap_sim::{SimDuration, SimTime};

use crate::workload::{ComputeWorkload, TaskClass};

/// Broad processor families available on the VCU board (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessorKind {
    /// General-purpose x86/ARM cores.
    Cpu,
    /// Massively parallel GPU.
    Gpu,
    /// Vision/DSP accelerator (e.g. Movidius NCS).
    Dsp,
    /// Reconfigurable fabric.
    Fpga,
    /// Fixed-function accelerator.
    Asic,
}

impl ProcessorKind {
    /// Short lowercase label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ProcessorKind::Cpu => "cpu",
            ProcessorKind::Gpu => "gpu",
            ProcessorKind::Dsp => "dsp",
            ProcessorKind::Fpga => "fpga",
            ProcessorKind::Asic => "asic",
        }
    }
}

impl std::fmt::Display for ProcessorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of a processor: per-class effective throughput and
/// a two-point (idle, max) power model.
///
/// # Examples
///
/// ```
/// use vdap_hw::{ComputeWorkload, ProcessorKind, ProcessorSpec, TaskClass};
/// use vdap_sim::SimDuration;
///
/// let gpu = ProcessorSpec::builder("toy-gpu", ProcessorKind::Gpu)
///     .throughput(TaskClass::DenseLinearAlgebra, 100.0)
///     .power_watts(5.0, 50.0)
///     .memory_gb(4.0)
///     .dispatch_overhead(SimDuration::ZERO)
///     .build();
/// let w = ComputeWorkload::new("net", TaskClass::DenseLinearAlgebra)
///     .with_gflops(10.0)
///     .with_parallel_fraction(1.0);
/// assert_eq!(gpu.service_time(&w).as_millis(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    name: String,
    kind: ProcessorKind,
    /// Effective GFLOP/s per task class (calibrated, not peak).
    class_gflops: [f64; TaskClass::ALL.len()],
    idle_watts: f64,
    max_watts: f64,
    memory_bytes: u64,
    /// Fixed per-dispatch overhead (kernel launch, device transfer setup).
    dispatch_overhead: SimDuration,
}

impl ProcessorSpec {
    /// Starts building a spec. Unset classes default to 1/10 of the
    /// highest configured class throughput (accelerators run foreign work,
    /// just badly), or 1 GFLOP/s if nothing is configured.
    #[must_use]
    pub fn builder(name: impl Into<String>, kind: ProcessorKind) -> ProcessorSpecBuilder {
        ProcessorSpecBuilder {
            name: name.into(),
            kind,
            class_gflops: [f64::NAN; TaskClass::ALL.len()],
            idle_watts: 1.0,
            max_watts: 10.0,
            memory_bytes: 4 * 1024 * 1024 * 1024,
            dispatch_overhead: SimDuration::from_micros(50),
        }
    }

    /// Processor name (e.g. `"nvidia-tesla-v100"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Processor family.
    #[must_use]
    pub fn kind(&self) -> ProcessorKind {
        self.kind
    }

    /// Effective throughput for a task class, in GFLOP/s.
    #[must_use]
    pub fn throughput_gflops(&self, class: TaskClass) -> f64 {
        self.class_gflops[class.index()]
    }

    /// Idle power draw in watts.
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Maximum (fully busy) power draw in watts.
    #[must_use]
    pub fn max_watts(&self) -> f64 {
        self.max_watts
    }

    /// Device memory in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Whether the workload's working set fits in device memory.
    #[must_use]
    pub fn fits(&self, workload: &ComputeWorkload) -> bool {
        workload.memory_bytes() <= self.memory_bytes
    }

    /// Time to execute `workload` with the device otherwise idle.
    ///
    /// The serial remainder `(1 - p)` of the workload runs at the
    /// processor's [`TaskClass::ControlLogic`] rate (Amdahl), the parallel
    /// part at the class rate, plus a fixed dispatch overhead.
    #[must_use]
    pub fn service_time(&self, workload: &ComputeWorkload) -> SimDuration {
        if workload.flops() == 0.0 {
            return self.dispatch_overhead;
        }
        let class_rate = self.throughput_gflops(workload.class()) * 1e9;
        let serial_rate = self.throughput_gflops(TaskClass::ControlLogic) * 1e9;
        let p = workload.parallel_fraction();
        let parallel_secs = workload.flops() * p / class_rate;
        let serial_secs = workload.flops() * (1.0 - p) / serial_rate.max(class_rate.min(1e9));
        self.dispatch_overhead + SimDuration::from_secs_f64(parallel_secs + serial_secs)
    }

    /// Energy in joules to execute `workload` (busy power over the
    /// service time).
    #[must_use]
    pub fn energy_joules(&self, workload: &ComputeWorkload) -> f64 {
        self.max_watts * self.service_time(workload).as_secs_f64()
    }

    /// Energy efficiency for a class in GFLOPs per joule, the paper's
    /// implicit Figure 3 metric (time × power).
    #[must_use]
    pub fn gflops_per_joule(&self, class: TaskClass) -> f64 {
        self.throughput_gflops(class) / self.max_watts
    }
}

/// Builder for [`ProcessorSpec`] (see [`ProcessorSpec::builder`]).
#[derive(Debug, Clone)]
pub struct ProcessorSpecBuilder {
    name: String,
    kind: ProcessorKind,
    class_gflops: [f64; TaskClass::ALL.len()],
    idle_watts: f64,
    max_watts: f64,
    memory_bytes: u64,
    dispatch_overhead: SimDuration,
}

impl ProcessorSpecBuilder {
    /// Sets effective throughput for one class, in GFLOP/s.
    ///
    /// # Panics
    ///
    /// Panics when `gflops` is not positive and finite.
    #[must_use]
    pub fn throughput(mut self, class: TaskClass, gflops: f64) -> Self {
        assert!(
            gflops.is_finite() && gflops > 0.0,
            "throughput must be positive"
        );
        self.class_gflops[class.index()] = gflops;
        self
    }

    /// Sets idle and maximum power draw in watts.
    ///
    /// # Panics
    ///
    /// Panics when `idle > max` or either is negative.
    #[must_use]
    pub fn power_watts(mut self, idle: f64, max: f64) -> Self {
        assert!(idle >= 0.0 && max >= idle, "need 0 <= idle <= max");
        self.idle_watts = idle;
        self.max_watts = max;
        self
    }

    /// Sets device memory in GiB.
    #[must_use]
    pub fn memory_gb(mut self, gb: f64) -> Self {
        assert!(gb > 0.0, "memory must be positive");
        self.memory_bytes = (gb * 1024.0 * 1024.0 * 1024.0) as u64;
        self
    }

    /// Sets the fixed per-dispatch overhead.
    #[must_use]
    pub fn dispatch_overhead(mut self, overhead: SimDuration) -> Self {
        self.dispatch_overhead = overhead;
        self
    }

    /// Finalizes the spec, filling unset classes with a default penalty
    /// rate (1/10 of the best configured class).
    #[must_use]
    pub fn build(self) -> ProcessorSpec {
        let best = self
            .class_gflops
            .iter()
            .copied()
            .filter(|g| g.is_finite())
            .fold(f64::NAN, f64::max);
        let fallback = if best.is_finite() { best / 10.0 } else { 1.0 };
        let mut class_gflops = self.class_gflops;
        for g in &mut class_gflops {
            if !g.is_finite() {
                *g = fallback;
            }
        }
        ProcessorSpec {
            name: self.name,
            kind: self.kind,
            class_gflops,
            idle_watts: self.idle_watts,
            max_watts: self.max_watts,
            memory_bytes: self.memory_bytes,
            dispatch_overhead: self.dispatch_overhead,
        }
    }
}

/// Runtime health of a compute slot, driven by fault injection.
///
/// Health affects *new* work: a throttled slot serves workloads slower by
/// the given speed factor, and a down slot refuses placement entirely
/// (schedulers must check [`ProcessorUnit::is_available`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotHealth {
    /// Nominal operation.
    Healthy,
    /// Thermally throttled: service times are divided by the factor
    /// (`0 < factor < 1` slows the slot down).
    Throttled(f64),
    /// Hard-failed: the slot accepts no work until it recovers.
    Down,
}

impl SlotHealth {
    /// Speed multiplier applied to the slot's throughput.
    #[must_use]
    pub fn speed_factor(&self) -> f64 {
        match self {
            SlotHealth::Healthy => 1.0,
            SlotHealth::Throttled(f) => f.clamp(f64::MIN_POSITIVE, 1.0),
            SlotHealth::Down => 0.0,
        }
    }
}

/// A processor instance with runtime occupancy and energy state.
///
/// Queueing semantics are FIFO: [`ProcessorUnit::enqueue`] at time `now`
/// starts the work at `max(now, busy_until)` and returns the completion
/// time, accumulating busy time and energy.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorUnit {
    spec: ProcessorSpec,
    busy_until: SimTime,
    busy_total: SimDuration,
    energy_joules: f64,
    jobs_done: u64,
    health: SlotHealth,
}

impl ProcessorUnit {
    /// Creates an idle unit from a spec.
    #[must_use]
    pub fn new(spec: ProcessorSpec) -> Self {
        ProcessorUnit {
            spec,
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
            energy_joules: 0.0,
            jobs_done: 0,
            health: SlotHealth::Healthy,
        }
    }

    /// The static spec.
    #[must_use]
    pub fn spec(&self) -> &ProcessorSpec {
        &self.spec
    }

    /// Current health.
    #[must_use]
    pub fn health(&self) -> SlotHealth {
        self.health
    }

    /// Sets health directly (fault-injection hook).
    pub fn set_health(&mut self, health: SlotHealth) {
        self.health = health;
    }

    /// Marks the slot hard-down.
    pub fn fail(&mut self) {
        self.health = SlotHealth::Down;
    }

    /// Applies thermal throttling with the given speed factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn throttle(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "throttle factor must be in (0, 1]"
        );
        self.health = SlotHealth::Throttled(factor);
    }

    /// Restores nominal health.
    pub fn recover(&mut self) {
        self.health = SlotHealth::Healthy;
    }

    /// Whether the slot can accept new work (not hard-down).
    #[must_use]
    pub fn is_available(&self) -> bool {
        !matches!(self.health, SlotHealth::Down)
    }

    /// Service time for `workload` under the current health: the spec's
    /// nominal time divided by the health speed factor.
    ///
    /// # Panics
    ///
    /// Panics when the slot is down — down slots serve nothing, so
    /// callers must check [`ProcessorUnit::is_available`] first.
    #[must_use]
    pub fn effective_service_time(&self, workload: &ComputeWorkload) -> SimDuration {
        let factor = self.health.speed_factor();
        assert!(factor > 0.0, "down slot has no service time");
        self.spec.service_time(workload).mul_f64(1.0 / factor)
    }

    /// Time at which the queue drains.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the unit is idle at `now`.
    #[must_use]
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Queueing delay a new arrival at `now` would see.
    #[must_use]
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.busy_until.duration_since(now)
    }

    /// Total accumulated busy time.
    #[must_use]
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Total accumulated active energy in joules.
    #[must_use]
    pub fn energy_joules(&self) -> f64 {
        self.energy_joules
    }

    /// Number of workloads completed.
    #[must_use]
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Utilization over `[SimTime::ZERO, now]` in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.elapsed().as_secs_f64();
        if elapsed == 0.0 {
            0.0
        } else {
            (self.busy_total.as_secs_f64() / elapsed).min(1.0)
        }
    }

    /// Estimated completion time for `workload` arriving at `now`
    /// *without* committing it (used by schedulers to compare choices).
    /// Accounts for throttling; panics when the slot is down.
    #[must_use]
    pub fn estimate_finish(&self, now: SimTime, workload: &ComputeWorkload) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        start + self.effective_service_time(workload)
    }

    /// Books a pre-planned execution window (used when an external
    /// scheduler has already decided start/finish, e.g. a DSF plan):
    /// extends the busy horizon to `finish` and accrues the window's busy
    /// time and the workload's energy.
    ///
    /// # Panics
    ///
    /// Panics when `finish < start`.
    pub fn book(&mut self, start: SimTime, finish: SimTime, workload: &ComputeWorkload) {
        assert!(finish >= start, "booking must not end before it starts");
        if finish > self.busy_until {
            self.busy_until = finish;
        }
        self.busy_total += finish - start;
        self.energy_joules += self.spec.energy_joules(workload);
        self.jobs_done += 1;
    }

    /// Commits `workload` to the FIFO queue at `now`; returns
    /// `(start, finish)` and accrues busy time and energy. Accounts for
    /// throttling; panics when the slot is down.
    pub fn enqueue(&mut self, now: SimTime, workload: &ComputeWorkload) -> (SimTime, SimTime) {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let service = self.effective_service_time(workload);
        let finish = start + service;
        self.busy_until = finish;
        self.busy_total += service;
        self.energy_joules += self.spec.energy_joules(workload);
        self.jobs_done += 1;
        (start, finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> ProcessorSpec {
        ProcessorSpec::builder("test-cpu", ProcessorKind::Cpu)
            .throughput(TaskClass::ControlLogic, 10.0)
            .throughput(TaskClass::DenseLinearAlgebra, 20.0)
            .power_watts(5.0, 50.0)
            .dispatch_overhead(SimDuration::ZERO)
            .build()
    }

    fn dense(gflops: f64) -> ComputeWorkload {
        ComputeWorkload::new("w", TaskClass::DenseLinearAlgebra)
            .with_gflops(gflops)
            .with_parallel_fraction(1.0)
    }

    #[test]
    fn service_time_is_flops_over_rate() {
        let w = dense(20.0);
        assert_eq!(cpu().service_time(&w).as_secs(), 1);
    }

    #[test]
    fn amdahl_serial_fraction_slows_down() {
        let w = ComputeWorkload::new("w", TaskClass::DenseLinearAlgebra)
            .with_gflops(20.0)
            .with_parallel_fraction(0.5);
        // 10 GFLOPs at 20 GF/s = 0.5s parallel + 10 GFLOPs at 10 GF/s = 1.0s serial.
        let t = cpu().service_time(&w);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn unset_classes_get_penalty_rate() {
        let spec = cpu();
        // Best configured class is 20 GF/s, so fallback is 2 GF/s.
        assert!((spec.throughput_gflops(TaskClass::MediaCodec) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_time_and_power() {
        let spec = cpu();
        let w = dense(20.0); // 1 s
        assert!((spec.energy_joules(&w) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_flops_costs_only_dispatch() {
        let spec = ProcessorSpec::builder("d", ProcessorKind::Cpu)
            .throughput(TaskClass::ControlLogic, 1.0)
            .dispatch_overhead(SimDuration::from_micros(10))
            .build();
        let w = ComputeWorkload::new("noop", TaskClass::ControlLogic);
        assert_eq!(spec.service_time(&w), SimDuration::from_micros(10));
    }

    #[test]
    fn fits_checks_memory() {
        let spec = ProcessorSpec::builder("m", ProcessorKind::Gpu)
            .throughput(TaskClass::DenseLinearAlgebra, 1.0)
            .memory_gb(1.0)
            .build();
        let small = ComputeWorkload::new("s", TaskClass::DenseLinearAlgebra).with_memory_mb(512.0);
        let big = ComputeWorkload::new("b", TaskClass::DenseLinearAlgebra).with_memory_mb(2048.0);
        assert!(spec.fits(&small));
        assert!(!spec.fits(&big));
    }

    #[test]
    fn unit_fifo_queueing() {
        let mut unit = ProcessorUnit::new(cpu());
        let w = dense(20.0); // 1 s each
        let now = SimTime::from_secs(10);
        let (s1, f1) = unit.enqueue(now, &w);
        let (s2, f2) = unit.enqueue(now, &w);
        assert_eq!(s1, now);
        assert_eq!(f1, now + SimDuration::from_secs(1));
        assert_eq!(s2, f1);
        assert_eq!(f2, now + SimDuration::from_secs(2));
        assert_eq!(unit.jobs_done(), 2);
        assert!(!unit.is_idle_at(now));
        assert!(unit.is_idle_at(f2));
    }

    #[test]
    fn estimate_does_not_commit() {
        let mut unit = ProcessorUnit::new(cpu());
        let w = dense(20.0);
        let est = unit.estimate_finish(SimTime::ZERO, &w);
        assert_eq!(est, SimTime::from_secs(1));
        assert_eq!(unit.jobs_done(), 0);
        let (_, f) = unit.enqueue(SimTime::ZERO, &w);
        assert_eq!(f, est);
    }

    #[test]
    fn utilization_tracks_busy_share() {
        let mut unit = ProcessorUnit::new(cpu());
        let w = dense(20.0); // 1 s
        unit.enqueue(SimTime::ZERO, &w);
        assert!((unit.utilization(SimTime::from_secs(2)) - 0.5).abs() < 1e-9);
        assert_eq!(unit.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn throttled_slot_serves_slower() {
        let mut unit = ProcessorUnit::new(cpu());
        let w = dense(20.0); // 1 s nominal
        unit.throttle(0.5);
        assert_eq!(unit.effective_service_time(&w), SimDuration::from_secs(2));
        let (_, finish) = unit.enqueue(SimTime::ZERO, &w);
        assert_eq!(finish, SimTime::from_secs(2));
        unit.recover();
        assert_eq!(unit.effective_service_time(&w), SimDuration::from_secs(1));
    }

    #[test]
    fn down_slot_refuses_placement() {
        let mut unit = ProcessorUnit::new(cpu());
        assert!(unit.is_available());
        unit.fail();
        assert!(!unit.is_available());
        assert_eq!(unit.health(), SlotHealth::Down);
        unit.recover();
        assert!(unit.is_available());
        assert_eq!(unit.health(), SlotHealth::Healthy);
    }

    #[test]
    #[should_panic(expected = "down slot")]
    fn down_slot_service_time_panics() {
        let mut unit = ProcessorUnit::new(cpu());
        unit.fail();
        let _ = unit.effective_service_time(&dense(1.0));
    }

    #[test]
    fn efficiency_metric() {
        let spec = cpu();
        assert!((spec.gflops_per_joule(TaskClass::DenseLinearAlgebra) - 20.0 / 50.0).abs() < 1e-12);
    }
}
