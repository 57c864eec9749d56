//! Resource and application profiles.
//!
//! §IV-B: "DSF acquires the real-time status of all computing resources
//! periodically ... These dynamic status and static information
//! (computing ability and matched task type) of computing resources are
//! taken as their profiles." A [`ResourceProfile`] is that snapshot; an
//! [`ApplicationProfile`] is the demand side: QoS requirement and
//! priority used by the scheduler's cost function.

use vdap_hw::{ProcessorKind, Slot, SlotId, TaskClass, VcuBoard};
use vdap_sim::{SimDuration, SimTime};

use crate::task::Priority;

/// A point-in-time snapshot of one processor slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceProfile {
    /// Slot the snapshot describes.
    pub slot: SlotId,
    /// Processor name.
    pub name: String,
    /// Processor family.
    pub kind: ProcessorKind,
    /// Effective GFLOP/s for each task class (static ability).
    pub class_gflops: Vec<(TaskClass, f64)>,
    /// Utilization over the simulation so far, in `[0, 1]`.
    pub utilization: f64,
    /// How long a new arrival would wait before starting.
    pub queue_delay: SimDuration,
    /// Jobs completed so far.
    pub jobs_done: u64,
    /// Active energy consumed so far, joules.
    pub energy_joules: f64,
}

impl ResourceProfile {
    /// Builds the snapshot for one slot at `now`.
    #[must_use]
    pub fn capture(slot: &Slot, now: SimTime) -> Self {
        let spec = slot.unit.spec();
        ResourceProfile {
            slot: slot.id,
            name: spec.name().to_string(),
            kind: spec.kind(),
            class_gflops: TaskClass::ALL
                .iter()
                .map(|&c| (c, spec.throughput_gflops(c)))
                .collect(),
            utilization: slot.unit.utilization(now),
            queue_delay: slot.unit.queue_delay(now),
            jobs_done: slot.unit.jobs_done(),
            energy_joules: slot.unit.energy_joules(),
        }
    }

    /// The class this resource serves best (its "matched task type").
    #[must_use]
    pub fn best_class(&self) -> TaskClass {
        self.class_gflops
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite rates"))
            .map(|&(c, _)| c)
            .expect("profiles always carry all classes")
    }

    /// Throughput for one class.
    #[must_use]
    pub fn gflops_for(&self, class: TaskClass) -> f64 {
        self.class_gflops
            .iter()
            .find(|&&(c, _)| c == class)
            .map_or(0.0, |&(_, g)| g)
    }
}

/// Captures profiles for every slot on a board — the DSF's periodic
/// resource-collection pass.
#[must_use]
pub fn capture_all(board: &VcuBoard, now: SimTime) -> Vec<ResourceProfile> {
    board
        .slots()
        .iter()
        .map(|s| ResourceProfile::capture(s, now))
        .collect()
}

/// The demand-side profile of an application submitted to the DSF.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationProfile {
    /// Application name.
    pub name: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// End-to-end response-time requirement, if the app is
    /// latency-sensitive.
    pub response_deadline: Option<SimDuration>,
    /// Expected submission rate (per second), used for admission control.
    pub arrivals_per_sec: f64,
}

impl ApplicationProfile {
    /// Creates a profile with normal priority and no deadline.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationProfile {
            name: name.into(),
            priority: Priority::Normal,
            response_deadline: None,
            arrivals_per_sec: 1.0,
        }
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the response deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.response_deadline = Some(deadline);
        self
    }

    /// Sets the expected arrival rate.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not positive and finite.
    #[must_use]
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.arrivals_per_sec = rate;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_hw::{catalog, ComputeWorkload, HepLevel};

    #[test]
    fn capture_reflects_board_state() {
        let mut board = VcuBoard::reference_design();
        let w = ComputeWorkload::new("x", TaskClass::DenseLinearAlgebra)
            .with_gflops(10.0)
            .with_parallel_fraction(1.0);
        let slot = board.earliest_finish_slot(SimTime::ZERO, &w).unwrap();
        board.unit_mut(slot).unwrap().enqueue(SimTime::ZERO, &w);

        let profiles = capture_all(&board, SimTime::from_secs(1));
        assert_eq!(profiles.len(), board.slots().len());
        let busy = profiles.iter().find(|p| p.slot == slot).unwrap();
        assert_eq!(busy.jobs_done, 1);
        assert!(busy.utilization > 0.0);
        assert!(busy.energy_joules > 0.0);
    }

    #[test]
    fn best_class_matches_specialty() {
        let mut board = VcuBoard::empty(vdap_hw::SsdModel::automotive(), 100.0);
        let id = board
            .attach(catalog::vision_asic(), HepLevel::First)
            .unwrap();
        let profile = ResourceProfile::capture(board.slot(id).unwrap(), SimTime::ZERO);
        assert_eq!(profile.best_class(), TaskClass::VisionKernel);
        assert!(profile.gflops_for(TaskClass::VisionKernel) > 100.0);
    }

    #[test]
    fn queue_delay_visible_in_profile() {
        let mut board = VcuBoard::reference_design();
        let w = ComputeWorkload::new("long", TaskClass::VisionKernel)
            .with_gflops(100.0)
            .with_parallel_fraction(1.0);
        let slot = board.earliest_finish_slot(SimTime::ZERO, &w).unwrap();
        board.unit_mut(slot).unwrap().enqueue(SimTime::ZERO, &w);
        let p = ResourceProfile::capture(board.slot(slot).unwrap(), SimTime::ZERO);
        assert!(p.queue_delay > SimDuration::ZERO);
    }

    #[test]
    fn application_profile_builder() {
        let p = ApplicationProfile::new("adas")
            .with_priority(Priority::SafetyCritical)
            .with_deadline(SimDuration::from_millis(100))
            .with_arrival_rate(30.0);
        assert_eq!(p.priority, Priority::SafetyCritical);
        assert_eq!(p.response_deadline, Some(SimDuration::from_millis(100)));
        assert_eq!(p.arrivals_per_sec, 30.0);
    }
}
