//! DSF admission control.
//!
//! §IV-B closes with: "because all resource allocations and task
//! distributions depend on the scheduling algorithm in VCU, the
//! algorithm should consider more possible factors to make the best
//! scheduling plan" — including whether the board can sustain an
//! application's *steady-state* demand at all. Admitting a service whose
//! arrival rate exceeds the board's capacity just builds unbounded
//! queues; [`AdmissionController`] checks utilization before the
//! registry accepts recurring work.

use vdap_hw::{TaskClass, VcuBoard};

use crate::profile::ApplicationProfile;
use crate::task::TaskGraph;

/// Per-class demand and capacity, in GFLOP/s.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// `(class, demand GFLOP/s, capacity GFLOP/s)` rows.
    pub rows: Vec<(TaskClass, f64, f64)>,
    /// Peak class utilization in `[0, ∞)` (1.0 = saturated).
    pub peak_utilization: f64,
}

impl UtilizationReport {
    /// Whether the demand fits under the controller's headroom target.
    #[must_use]
    pub fn fits(&self, max_utilization: f64) -> bool {
        self.peak_utilization <= max_utilization
    }
}

/// Decision returned by [`AdmissionController::admit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The application fits; the report shows the post-admission load.
    Admitted(UtilizationReport),
    /// The application would overload the board.
    Rejected(UtilizationReport),
}

impl Admission {
    /// True for [`Admission::Admitted`].
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }

    /// The underlying report.
    #[must_use]
    pub fn report(&self) -> &UtilizationReport {
        match self {
            Admission::Admitted(r) | Admission::Rejected(r) => r,
        }
    }
}

/// Steady-state admission control over a board.
///
/// Demand per class is `arrival_rate × GFLOPs-per-request` summed over
/// admitted applications; capacity is the sum of slot throughputs for
/// that class. Admission requires every class's utilization to stay
/// under the headroom bound (default 0.8, leaving room for bursts).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    max_utilization: f64,
    admitted_demand: Vec<(TaskClass, f64)>,
}

impl Default for AdmissionController {
    fn default() -> Self {
        AdmissionController::new(0.8)
    }
}

impl AdmissionController {
    /// Creates a controller with a utilization bound in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when the bound is outside `(0, 1]`.
    #[must_use]
    pub fn new(max_utilization: f64) -> Self {
        assert!(
            max_utilization > 0.0 && max_utilization <= 1.0,
            "utilization bound must be in (0, 1]"
        );
        AdmissionController {
            max_utilization,
            admitted_demand: TaskClass::ALL.iter().map(|&c| (c, 0.0)).collect(),
        }
    }

    /// The utilization bound.
    #[must_use]
    pub fn max_utilization(&self) -> f64 {
        self.max_utilization
    }

    /// Demand a graph at `rate` requests/second adds, per class
    /// (GFLOP/s).
    fn demand_of(graph: &TaskGraph, rate: f64) -> Vec<(TaskClass, f64)> {
        TaskClass::ALL
            .iter()
            .map(|&class| {
                let gflops: f64 = graph
                    .tasks()
                    .iter()
                    .filter(|t| t.workload().class() == class)
                    .map(|t| t.workload().flops() / 1e9)
                    .sum();
                (class, gflops * rate)
            })
            .collect()
    }

    /// Capacity of `board` per class (GFLOP/s).
    fn capacity_of(board: &VcuBoard) -> Vec<(TaskClass, f64)> {
        TaskClass::ALL
            .iter()
            .map(|&class| {
                let total: f64 = board
                    .slots()
                    .iter()
                    .map(|s| s.unit.spec().throughput_gflops(class))
                    .sum();
                (class, total)
            })
            .collect()
    }

    /// The current utilization report (admitted demand vs capacity).
    #[must_use]
    pub fn current(&self, board: &VcuBoard) -> UtilizationReport {
        self.report_with(board, &[])
    }

    fn report_with(&self, board: &VcuBoard, extra: &[(TaskClass, f64)]) -> UtilizationReport {
        let capacity = Self::capacity_of(board);
        let mut rows = Vec::new();
        let mut peak: f64 = 0.0;
        for (i, &(class, cap)) in capacity.iter().enumerate() {
            let demand = self.admitted_demand[i].1
                + extra
                    .iter()
                    .find(|&&(c, _)| c == class)
                    .map_or(0.0, |&(_, d)| d);
            rows.push((class, demand, cap));
            if cap > 0.0 {
                peak = peak.max(demand / cap);
            }
        }
        UtilizationReport {
            rows,
            peak_utilization: peak,
        }
    }

    /// Tries to admit `graph` recurring at `profile.arrivals_per_sec`.
    /// Admitted demand accumulates; rejected demand does not.
    pub fn admit(
        &mut self,
        profile: &ApplicationProfile,
        graph: &TaskGraph,
        board: &VcuBoard,
    ) -> Admission {
        let extra = Self::demand_of(graph, profile.arrivals_per_sec);
        let report = self.report_with(board, &extra);
        if report.fits(self.max_utilization) {
            for (i, &(_, d)) in extra.iter().enumerate() {
                self.admitted_demand[i].1 += d;
            }
            Admission::Admitted(report)
        } else {
            Admission::Rejected(report)
        }
    }

    /// Releases a previously admitted application's demand.
    pub fn release(&mut self, profile: &ApplicationProfile, graph: &TaskGraph) {
        let extra = Self::demand_of(graph, profile.arrivals_per_sec);
        for (i, &(_, d)) in extra.iter().enumerate() {
            self.admitted_demand[i].1 = (self.admitted_demand[i].1 - d).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::license_plate_pipeline;
    use vdap_hw::ComputeWorkload;

    fn board() -> VcuBoard {
        VcuBoard::reference_design()
    }

    fn plates(rate: f64) -> (ApplicationProfile, TaskGraph) {
        (
            ApplicationProfile::new("plates").with_arrival_rate(rate),
            license_plate_pipeline(None),
        )
    }

    #[test]
    fn light_service_admitted() {
        let mut ctrl = AdmissionController::default();
        let (profile, graph) = plates(1.0);
        let decision = ctrl.admit(&profile, &graph, &board());
        assert!(decision.is_admitted());
        assert!(decision.report().peak_utilization < 0.2);
    }

    #[test]
    fn flood_rejected() {
        let mut ctrl = AdmissionController::default();
        // 10k plate pipelines per second exceed any class's capacity.
        let (profile, graph) = plates(10_000.0);
        let decision = ctrl.admit(&profile, &graph, &board());
        assert!(!decision.is_admitted());
        assert!(decision.report().peak_utilization > 1.0);
    }

    #[test]
    fn demand_accumulates_until_saturation() {
        let mut ctrl = AdmissionController::default();
        let b = board();
        let mut admitted = 0;
        // 30 req/s of plate pipelines ≈ 144 GFLOP/s dense demand each...
        for _ in 0..100 {
            let (profile, graph) = plates(20.0);
            if ctrl.admit(&profile, &graph, &b).is_admitted() {
                admitted += 1;
            } else {
                break;
            }
        }
        assert!(admitted >= 1, "at least one service fits");
        assert!(admitted < 100, "saturation must eventually reject");
        // The controller never reports over the bound for admitted load.
        assert!(ctrl.current(&b).peak_utilization <= 0.8 + 1e-9);
    }

    #[test]
    fn release_restores_headroom() {
        let mut ctrl = AdmissionController::default();
        let b = board();
        // 8 req/s ≈ 32 GFLOP/s dense demand: several fit, then reject.
        let (profile, graph) = plates(8.0);
        // Fill until rejection.
        while ctrl.admit(&profile, &graph, &b).is_admitted() {}
        assert!(!ctrl.admit(&profile, &graph, &b).is_admitted());
        ctrl.release(&profile, &graph);
        assert!(ctrl.admit(&profile, &graph, &b).is_admitted());
    }

    #[test]
    fn per_class_accounting() {
        let mut ctrl = AdmissionController::default();
        let b = board();
        let mut graph = TaskGraph::new("vision-only");
        graph.add_task(ComputeWorkload::new("v", TaskClass::VisionKernel).with_gflops(10.0));
        let profile = ApplicationProfile::new("v").with_arrival_rate(2.0);
        let d = ctrl.admit(&profile, &graph, &b);
        let vision_row = d
            .report()
            .rows
            .iter()
            .find(|(c, _, _)| *c == TaskClass::VisionKernel)
            .unwrap();
        assert!((vision_row.1 - 20.0).abs() < 1e-9, "demand 2/s x 10 GFLOPs");
        let dense_row = d
            .report()
            .rows
            .iter()
            .find(|(c, _, _)| *c == TaskClass::DenseLinearAlgebra)
            .unwrap();
        assert_eq!(dense_row.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "utilization bound")]
    fn bad_bound_rejected() {
        let _ = AdmissionController::new(1.5);
    }
}
