//! The heterogeneous Vehicle Computing Unit (VCU) board.
//!
//! §IV-B: the VCU integrates CPU + GPU + FPGA + ASIC on one board
//! (the first-level heterogeneous platform, *1stHEP*), exposes extension
//! slots (USB/PCIe) for plug-and-play resources, and can recruit other
//! on-board devices such as passenger phones (*2ndHEP*). The board also
//! carries the storage device and the communication modules.

use vdap_sim::SimTime;

use crate::power::PowerBudget;
use crate::processor::{ProcessorSpec, ProcessorUnit};
use crate::storage::SsdModel;
use crate::workload::{ComputeWorkload, TaskClass};

/// Which heterogeneous-platform level a processor belongs to (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HepLevel {
    /// Soldered/board resources: the VCU's own processors.
    First,
    /// Recruited resources: passenger phones, the legacy on-board
    /// controller, other plug-and-play devices.
    Second,
}

/// Communication modules present on the board (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommModule {
    /// Dedicated short-range communications (V2V / V2-RSU).
    Dsrc,
    /// 3G/4G/LTE cellular.
    Cellular,
    /// 5G cellular.
    FiveG,
    /// Wi-Fi.
    Wifi,
    /// Bluetooth LE, for passenger devices.
    Bluetooth,
}

/// Identifier of a processor slot on the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// One populated processor slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Slot identifier.
    pub id: SlotId,
    /// HEP level of the resource.
    pub level: HepLevel,
    /// The processor with its runtime state.
    pub unit: ProcessorUnit,
}

/// The VCU hardware board.
///
/// # Examples
///
/// ```
/// use vdap_hw::{catalog, CommModule, HepLevel, VcuBoard};
///
/// let mut board = VcuBoard::reference_design();
/// assert!(board.has_comm(CommModule::Dsrc));
/// let phone = board.attach(catalog::passenger_phone(), HepLevel::Second).unwrap();
/// assert_eq!(board.slots_at(HepLevel::Second).len(), 2); // controller + phone
/// board.detach(phone);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VcuBoard {
    slots: Vec<Slot>,
    next_slot: u32,
    storage: SsdModel,
    comm: Vec<CommModule>,
    power: PowerBudget,
}

impl VcuBoard {
    /// The paper's reference 1stHEP: embedded CPU, TX2-class GPU, FPGA and
    /// a vision ASIC, plus the legacy on-board controller as a 2ndHEP
    /// member, an automotive SSD, all five comm modules, and a 300 W
    /// compute power budget.
    #[must_use]
    pub fn reference_design() -> Self {
        let mut board = VcuBoard::empty(SsdModel::automotive(), 300.0);
        board.comm = vec![
            CommModule::Dsrc,
            CommModule::Cellular,
            CommModule::FiveG,
            CommModule::Wifi,
            CommModule::Bluetooth,
        ];
        let parts = [
            crate::catalog::intel_i7_6700(),
            crate::catalog::jetson_tx2_max_p(),
            crate::catalog::automotive_fpga(),
            crate::catalog::vision_asic(),
        ];
        for p in parts {
            board
                .attach(p, HepLevel::First)
                .expect("reference design fits its own budget");
        }
        board
            .attach(crate::catalog::onboard_controller(), HepLevel::Second)
            .expect("controller fits");
        board
    }

    /// Creates an empty board with the given storage and power ceiling.
    #[must_use]
    pub fn empty(storage: SsdModel, power_budget_watts: f64) -> Self {
        VcuBoard {
            slots: Vec::new(),
            next_slot: 0,
            storage,
            comm: Vec::new(),
            power: PowerBudget::new(power_budget_watts),
        }
    }

    /// Adds a communication module (idempotent).
    pub fn add_comm(&mut self, module: CommModule) {
        if !self.comm.contains(&module) {
            self.comm.push(module);
        }
    }

    /// Whether a communication module is present.
    #[must_use]
    pub fn has_comm(&self, module: CommModule) -> bool {
        self.comm.contains(&module)
    }

    /// The storage device.
    #[must_use]
    pub fn storage(&self) -> &SsdModel {
        &self.storage
    }

    /// Mutable access to the storage device.
    pub fn storage_mut(&mut self) -> &mut SsdModel {
        &mut self.storage
    }

    /// The compute power budget.
    #[must_use]
    pub fn power(&self) -> &PowerBudget {
        &self.power
    }

    /// Attaches a processor at the given HEP level (plug-and-play for
    /// `Second`). Reserves the part's max power from the budget.
    ///
    /// # Errors
    ///
    /// Returns [`AttachError::PowerExceeded`] when the part's max draw
    /// does not fit in the remaining budget.
    pub fn attach(&mut self, spec: ProcessorSpec, level: HepLevel) -> Result<SlotId, AttachError> {
        let id = SlotId(self.next_slot);
        let label = format!("{}@{}", spec.name(), id);
        if !self.power.try_allocate(label, spec.max_watts()) {
            return Err(AttachError::PowerExceeded {
                requested_watts: spec.max_watts(),
                headroom_watts: self.power.headroom_watts(),
            });
        }
        self.next_slot += 1;
        self.slots.push(Slot {
            id,
            level,
            unit: ProcessorUnit::new(spec),
        });
        Ok(id)
    }

    /// Detaches a processor (2ndHEP exit or hot-unplug); returns the unit
    /// when the slot existed.
    pub fn detach(&mut self, id: SlotId) -> Option<ProcessorUnit> {
        let pos = self.slots.iter().position(|s| s.id == id)?;
        let slot = self.slots.remove(pos);
        let label = format!("{}@{}", slot.unit.spec().name(), slot.id);
        self.power.release(&label);
        Some(slot.unit)
    }

    /// All populated slots.
    #[must_use]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Slots at one HEP level.
    #[must_use]
    pub fn slots_at(&self, level: HepLevel) -> Vec<&Slot> {
        self.slots.iter().filter(|s| s.level == level).collect()
    }

    /// Looks up a slot by id.
    #[must_use]
    pub fn slot(&self, id: SlotId) -> Option<&Slot> {
        self.slots.iter().find(|s| s.id == id)
    }

    /// Mutable access to a slot's processor unit.
    pub fn unit_mut(&mut self, id: SlotId) -> Option<&mut ProcessorUnit> {
        self.slots
            .iter_mut()
            .find(|s| s.id == id)
            .map(|s| &mut s.unit)
    }

    /// The slot that would finish `workload` earliest if it arrived at
    /// `now`, considering current queues and memory fit.
    #[must_use]
    pub fn earliest_finish_slot(&self, now: SimTime, workload: &ComputeWorkload) -> Option<SlotId> {
        self.slots
            .iter()
            .filter(|s| s.unit.is_available() && s.unit.spec().fits(workload))
            .min_by_key(|s| s.unit.estimate_finish(now, workload))
            .map(|s| s.id)
    }

    /// The most energy-efficient slot for a class, ignoring queues.
    #[must_use]
    pub fn most_efficient_slot(&self, class: TaskClass) -> Option<SlotId> {
        self.slots
            .iter()
            .max_by(|a, b| {
                a.unit
                    .spec()
                    .gflops_per_joule(class)
                    .partial_cmp(&b.unit.spec().gflops_per_joule(class))
                    .expect("finite efficiencies")
            })
            .map(|s| s.id)
    }

    /// Sum of all units' accumulated active energy, in joules.
    #[must_use]
    pub fn total_energy_joules(&self) -> f64 {
        self.slots.iter().map(|s| s.unit.energy_joules()).sum()
    }
}

/// Error attaching a processor to the board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttachError {
    /// The part's max power draw exceeds the remaining budget.
    PowerExceeded {
        /// Watts the part needs.
        requested_watts: f64,
        /// Watts still available.
        headroom_watts: f64,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::PowerExceeded {
                requested_watts,
                headroom_watts,
            } => write!(
                f,
                "power budget exceeded: part needs {requested_watts} W, only {headroom_watts} W available"
            ),
        }
    }
}

impl std::error::Error for AttachError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn reference_design_is_populated() {
        let board = VcuBoard::reference_design();
        assert_eq!(board.slots_at(HepLevel::First).len(), 4);
        assert_eq!(board.slots_at(HepLevel::Second).len(), 1);
        for m in [
            CommModule::Dsrc,
            CommModule::Cellular,
            CommModule::FiveG,
            CommModule::Wifi,
            CommModule::Bluetooth,
        ] {
            assert!(board.has_comm(m));
        }
    }

    #[test]
    fn power_budget_blocks_a_v100() {
        // The reference design has 300 W; its parts already hold most of it,
        // so a 250 W V100 must be refused — the paper's §III-B argument.
        let mut board = VcuBoard::reference_design();
        let err = board.attach(catalog::tesla_v100(), HepLevel::First);
        assert!(matches!(err, Err(AttachError::PowerExceeded { .. })));
    }

    #[test]
    fn detach_frees_power() {
        let mut board = VcuBoard::empty(SsdModel::automotive(), 70.0);
        let id = board
            .attach(catalog::intel_i7_6700(), HepLevel::First)
            .unwrap();
        assert!(board
            .attach(catalog::jetson_tx2_max_p(), HepLevel::First)
            .is_err());
        board.detach(id);
        assert!(board
            .attach(catalog::jetson_tx2_max_p(), HepLevel::First)
            .is_ok());
    }

    #[test]
    fn detach_unknown_slot_is_none() {
        let mut board = VcuBoard::empty(SsdModel::automotive(), 100.0);
        assert!(board.detach(SlotId(99)).is_none());
    }

    #[test]
    fn earliest_finish_picks_accelerator_for_dense_work() {
        let board = VcuBoard::reference_design();
        let w = ComputeWorkload::new("cnn", TaskClass::DenseLinearAlgebra)
            .with_gflops(INCEPTION.0)
            .with_parallel_fraction(1.0);
        let best = board.earliest_finish_slot(SimTime::ZERO, &w).unwrap();
        assert_eq!(
            board.slot(best).unwrap().unit.spec().name(),
            "jetson-tx2-max-p"
        );
    }

    const INCEPTION: (f64,) = (catalog::INCEPTION_V3_GFLOPS,);

    #[test]
    fn most_efficient_slot_picks_asic_for_vision() {
        let board = VcuBoard::reference_design();
        let best = board.most_efficient_slot(TaskClass::VisionKernel).unwrap();
        assert_eq!(board.slot(best).unwrap().unit.spec().name(), "vision-asic");
    }

    #[test]
    fn hotplug_round_trip() {
        let mut board = VcuBoard::reference_design();
        let before = board.slots().len();
        let id = board
            .attach(catalog::passenger_phone(), HepLevel::Second)
            .unwrap();
        assert_eq!(board.slots().len(), before + 1);
        let unit = board.detach(id).unwrap();
        assert_eq!(unit.spec().name(), "passenger-phone");
        assert_eq!(board.slots().len(), before);
    }

    #[test]
    fn slot_ids_unique_across_reuse() {
        let mut board = VcuBoard::empty(SsdModel::automotive(), 1000.0);
        let a = board
            .attach(catalog::passenger_phone(), HepLevel::Second)
            .unwrap();
        board.detach(a);
        let b = board
            .attach(catalog::passenger_phone(), HepLevel::Second)
            .unwrap();
        assert_ne!(a, b, "slot ids are never reused");
    }

    #[test]
    fn total_energy_accumulates() {
        let mut board = VcuBoard::reference_design();
        let w = ComputeWorkload::new("x", TaskClass::VisionKernel).with_gflops(1.0);
        let id = board.earliest_finish_slot(SimTime::ZERO, &w).unwrap();
        board.unit_mut(id).unwrap().enqueue(SimTime::ZERO, &w);
        assert!(board.total_energy_joules() > 0.0);
    }
}
