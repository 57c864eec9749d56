//! Polymorphic services.
//!
//! §IV-C: "each service offers multiple execution pipelines in response
//! to various network and computational constraints" — e.g. the A3
//! kidnapper search can run all on board, all on the edge/cloud, or split
//! (motion detection on board, recognition at the edge). A
//! [`PolymorphicService`] is that bundle of pipelines plus QoS metadata
//! and lifecycle state.

use vdap_hw::{ComputeWorkload, TaskClass};
use vdap_net::Site;
use vdap_sim::SimDuration;
use vdap_vcu::Priority;

/// One stage of one execution pipeline: a workload pinned to a site.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStage {
    /// The compute demand.
    pub workload: ComputeWorkload,
    /// Where this pipeline variant runs the stage.
    pub site: Site,
}

/// A complete execution pipeline variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Variant label, e.g. `"all-onboard"`.
    pub label: String,
    /// Ordered stages.
    pub stages: Vec<PipelineStage>,
}

impl Pipeline {
    /// Creates a pipeline variant.
    ///
    /// # Panics
    ///
    /// Panics when `stages` is empty.
    #[must_use]
    pub fn new(label: impl Into<String>, stages: Vec<PipelineStage>) -> Self {
        assert!(!stages.is_empty(), "a pipeline needs at least one stage");
        Pipeline {
            label: label.into(),
            stages,
        }
    }

    /// Bytes that must move between consecutive stages at different
    /// sites, plus initial input and final output hops.
    #[must_use]
    pub fn sites(&self) -> Vec<Site> {
        self.stages.iter().map(|s| s.site).collect()
    }

    /// Whether every stage runs on the vehicle.
    #[must_use]
    pub fn is_fully_onboard(&self) -> bool {
        self.stages.iter().all(|s| s.site == Site::Vehicle)
    }
}

/// Service lifecycle state (drives the Reliability story in §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Serving requests on the selected pipeline.
    Running,
    /// Suspended: no pipeline currently meets the requirement
    /// ("the service will be hung up until meeting requirements again").
    Hung,
    /// Flagged by the security monitor; awaiting reinstall.
    Compromised,
    /// Terminated abnormally (fault injection); awaiting a supervised
    /// restart.
    Crashed,
}

/// A service with multiple execution pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct PolymorphicService {
    name: String,
    priority: Priority,
    deadline: SimDuration,
    pipelines: Vec<Pipeline>,
    state: ServiceState,
    selected: Option<usize>,
}

impl PolymorphicService {
    /// Creates a service.
    ///
    /// # Panics
    ///
    /// Panics when `pipelines` is empty.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        priority: Priority,
        deadline: SimDuration,
        pipelines: Vec<Pipeline>,
    ) -> Self {
        assert!(
            !pipelines.is_empty(),
            "a service needs at least one pipeline"
        );
        PolymorphicService {
            name: name.into(),
            priority,
            deadline,
            pipelines,
            state: ServiceState::Running,
            selected: None,
        }
    }

    /// Service name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scheduling priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// End-to-end response-time requirement.
    #[must_use]
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// The pipeline variants.
    #[must_use]
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// Lifecycle state.
    #[must_use]
    pub fn state(&self) -> ServiceState {
        self.state
    }

    /// Index of the currently selected pipeline, if running.
    #[must_use]
    pub fn selected(&self) -> Option<usize> {
        self.selected
    }

    /// The selected pipeline, if running.
    #[must_use]
    pub fn selected_pipeline(&self) -> Option<&Pipeline> {
        self.selected.and_then(|i| self.pipelines.get(i))
    }

    /// Marks the service running on pipeline `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn select(&mut self, index: usize) {
        assert!(index < self.pipelines.len(), "pipeline index out of range");
        self.selected = Some(index);
        self.state = ServiceState::Running;
    }

    /// Hangs the service (no feasible pipeline).
    pub fn hang(&mut self) {
        self.selected = None;
        self.state = ServiceState::Hung;
    }

    /// Marks the service crashed (fault injection); a
    /// [`crate::ServiceSupervisor`] decides whether to restart it.
    pub fn crash(&mut self) {
        self.selected = None;
        self.state = ServiceState::Crashed;
    }

    /// Marks the service compromised (security monitor).
    pub fn mark_compromised(&mut self) {
        self.selected = None;
        self.state = ServiceState::Compromised;
    }

    /// Reinstalls a compromised service to a clean, unselected state.
    pub fn reinstall(&mut self) {
        self.state = ServiceState::Running;
        self.selected = None;
    }
}

/// The paper's running example: the mobile-A3 kidnapper search with its
/// three §IV-C pipelines (all on board / all remote / split).
#[must_use]
pub fn kidnapper_search(deadline: SimDuration, remote: Site) -> PolymorphicService {
    let frame_bytes = 1280 * 720 * 3 / 2;
    let motion = || {
        ComputeWorkload::new("motion-detect", TaskClass::VisionKernel)
            .with_gflops(0.05)
            .with_input_bytes(frame_bytes)
            .with_output_bytes(frame_bytes / 8)
            .with_parallel_fraction(0.95)
    };
    let recognize = || {
        ComputeWorkload::new("plate-recognize", TaskClass::DenseLinearAlgebra)
            .with_gflops(4.8)
            .with_input_bytes(frame_bytes / 8)
            .with_output_bytes(256)
            .with_parallel_fraction(0.97)
    };
    let at = |site: Site, w: ComputeWorkload| PipelineStage { workload: w, site };
    PolymorphicService::new(
        "kidnapper-search",
        Priority::High,
        deadline,
        vec![
            Pipeline::new(
                "all-onboard",
                vec![at(Site::Vehicle, motion()), at(Site::Vehicle, recognize())],
            ),
            Pipeline::new(
                "all-remote",
                vec![at(remote, motion()), at(remote, recognize())],
            ),
            Pipeline::new(
                "split",
                vec![at(Site::Vehicle, motion()), at(remote, recognize())],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> PolymorphicService {
        kidnapper_search(SimDuration::from_millis(500), Site::Edge)
    }

    #[test]
    fn kidnapper_search_has_three_pipelines() {
        let s = service();
        let labels: Vec<&str> = s.pipelines().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["all-onboard", "all-remote", "split"]);
        assert!(s.pipelines()[0].is_fully_onboard());
        assert!(!s.pipelines()[2].is_fully_onboard());
    }

    #[test]
    fn lifecycle_transitions() {
        let mut s = service();
        assert_eq!(s.state(), ServiceState::Running);
        assert_eq!(s.selected(), None);
        s.select(2);
        assert_eq!(s.selected_pipeline().unwrap().label, "split");
        s.hang();
        assert_eq!(s.state(), ServiceState::Hung);
        assert!(s.selected_pipeline().is_none());
        s.select(0);
        s.mark_compromised();
        assert_eq!(s.state(), ServiceState::Compromised);
        s.reinstall();
        assert_eq!(s.state(), ServiceState::Running);
        assert_eq!(s.selected(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_bounds_checked() {
        service().select(9);
    }

    #[test]
    fn split_pipeline_moves_less_data_offboard() {
        let s = service();
        let all_remote = &s.pipelines()[1];
        let split = &s.pipelines()[2];
        // The first off-vehicle stage input is what crosses the wireless
        // link: full frame vs motion-filtered eighth.
        let first_remote_input = |p: &Pipeline| {
            p.stages
                .iter()
                .find(|st| st.site != Site::Vehicle)
                .map(|st| st.workload.input_bytes())
                .unwrap_or(0)
        };
        assert!(first_remote_input(split) * 8 == first_remote_input(all_remote));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = Pipeline::new("x", vec![]);
    }
}
