//! Tasks and task graphs.
//!
//! §IV-B: the DSF "divides the original applications into some sub-tasks
//! by fine-grained and tries to match the tasks with the computing
//! resources according to their computing characteristics". A [`Task`]
//! wraps a [`ComputeWorkload`] with QoS metadata (priority, deadline); a
//! [`TaskGraph`] is the dependency DAG the partitioner produces.

use std::collections::HashMap;

use vdap_hw::ComputeWorkload;
use vdap_sim::SimDuration;

/// Identifier of a task within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Scheduling priority; higher runs first among ready tasks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Background work (model refresh, uploads).
    Background,
    /// Ordinary interactive services.
    #[default]
    Normal,
    /// Latency-sensitive services (infotainment decode, diagnostics).
    High,
    /// Safety-critical (ADAS perception, emergency braking support).
    SafetyCritical,
}

/// A schedulable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    id: TaskId,
    workload: ComputeWorkload,
    priority: Priority,
    deadline: Option<SimDuration>,
}

impl Task {
    /// Creates a task.
    #[must_use]
    pub fn new(id: TaskId, workload: ComputeWorkload) -> Self {
        Task {
            id,
            workload,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a relative deadline (from graph submission).
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Task id.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The compute demand.
    #[must_use]
    pub fn workload(&self) -> &ComputeWorkload {
        &self.workload
    }

    /// Scheduling priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Relative deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<SimDuration> {
        self.deadline
    }
}

/// A dependency DAG of tasks.
///
/// # Examples
///
/// ```
/// use vdap_hw::{ComputeWorkload, TaskClass};
/// use vdap_vcu::{Task, TaskGraph, TaskId};
///
/// let mut g = TaskGraph::new("detect");
/// let a = g.add_task(ComputeWorkload::new("decode", TaskClass::MediaCodec).with_gflops(0.1));
/// let b = g.add_task(ComputeWorkload::new("infer", TaskClass::DenseLinearAlgebra).with_gflops(5.0));
/// g.add_dependency(a, b).unwrap();
/// assert_eq!(g.topo_order().unwrap(), vec![a, b]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    /// Edges as (producer, consumer).
    edges: Vec<(TaskId, TaskId)>,
}

/// Error building or validating a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a task id not in the graph.
    UnknownTask(TaskId),
    /// The edges form a cycle.
    Cycle,
    /// An edge would connect a task to itself.
    SelfLoop(TaskId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTask(id) => write!(f, "unknown task {id}"),
            GraphError::Cycle => write!(f, "task graph contains a cycle"),
            GraphError::SelfLoop(id) => write!(f, "self-dependency on {id}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl TaskGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Graph (application) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a task with default priority; returns its id.
    pub fn add_task(&mut self, workload: ComputeWorkload) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, workload));
        id
    }

    /// Adds a fully configured task; returns its id.
    pub fn add(&mut self, build: impl FnOnce(TaskId) -> Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        let task = build(id);
        assert_eq!(task.id(), id, "task must keep the id it was given");
        self.tasks.push(task);
        id
    }

    /// Declares that `consumer` needs `producer`'s output.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for unknown ids, self-loops, or edges that
    /// would create a cycle.
    pub fn add_dependency(&mut self, producer: TaskId, consumer: TaskId) -> Result<(), GraphError> {
        if producer == consumer {
            return Err(GraphError::SelfLoop(producer));
        }
        for id in [producer, consumer] {
            if self.task(id).is_none() {
                return Err(GraphError::UnknownTask(id));
            }
        }
        self.edges.push((producer, consumer));
        if self.topo_order().is_err() {
            self.edges.pop();
            return Err(GraphError::Cycle);
        }
        Ok(())
    }

    /// All tasks.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Looks up a task.
    #[must_use]
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0 as usize)
    }

    /// Direct prerequisites of `id`.
    #[must_use]
    pub fn predecessors(&self, id: TaskId) -> Vec<TaskId> {
        self.edges
            .iter()
            .filter(|&&(_, c)| c == id)
            .map(|&(p, _)| p)
            .collect()
    }

    /// Direct dependents of `id`.
    #[must_use]
    pub fn successors(&self, id: TaskId) -> Vec<TaskId> {
        self.edges
            .iter()
            .filter(|&&(p, _)| p == id)
            .map(|&(_, c)| c)
            .collect()
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.edges
    }

    /// Kahn topological sort.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] when the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let mut indegree: HashMap<TaskId, usize> = self.tasks.iter().map(|t| (t.id(), 0)).collect();
        for &(_, c) in &self.edges {
            *indegree.get_mut(&c).expect("validated edge") += 1;
        }
        let mut ready: Vec<TaskId> = self
            .tasks
            .iter()
            .map(Task::id)
            .filter(|id| indegree[id] == 0)
            .collect();
        // Deterministic order: lowest id first among ready tasks.
        ready.sort_unstable();
        let mut order = Vec::with_capacity(self.tasks.len());
        while let Some(next) = ready.first().copied() {
            ready.remove(0);
            order.push(next);
            for succ in self.successors(next) {
                let d = indegree.get_mut(&succ).expect("validated edge");
                *d -= 1;
                if *d == 0 {
                    let pos = ready.binary_search(&succ).unwrap_or_else(|p| p);
                    ready.insert(pos, succ);
                }
            }
        }
        if order.len() == self.tasks.len() {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Total floating-point work in the graph.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.tasks.iter().map(|t| t.workload().flops()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_hw::TaskClass;

    fn w(name: &str) -> ComputeWorkload {
        ComputeWorkload::new(name, TaskClass::ControlLogic).with_gflops(1.0)
    }

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new("diamond");
        let a = g.add_task(w("a"));
        let b = g.add_task(w("b"));
        let c = g.add_task(w("c"));
        let d = g.add_task(w("d"));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        g.add_dependency(b, d).unwrap();
        g.add_dependency(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn cycle_is_rejected_and_rolled_back() {
        let (mut g, [a, _, _, d]) = diamond();
        let edges_before = g.edges().len();
        assert_eq!(g.add_dependency(d, a), Err(GraphError::Cycle));
        assert_eq!(g.edges().len(), edges_before, "cycle edge rolled back");
        assert!(g.topo_order().is_ok());
    }

    #[test]
    fn self_loop_rejected() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(g.add_dependency(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn unknown_task_rejected() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(
            g.add_dependency(a, TaskId(99)),
            Err(GraphError::UnknownTask(TaskId(99)))
        );
    }

    #[test]
    fn predecessors_and_successors() {
        let (g, [a, b, c, d]) = diamond();
        let mut preds = g.predecessors(d);
        preds.sort_unstable();
        assert_eq!(preds, vec![b, c]);
        let mut succs = g.successors(a);
        succs.sort_unstable();
        assert_eq!(succs, vec![b, c]);
        assert!(g.predecessors(a).is_empty());
    }

    #[test]
    fn priorities_order() {
        assert!(Priority::SafetyCritical > Priority::High);
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Background);
    }

    #[test]
    fn total_flops_sums() {
        let (g, _) = diamond();
        assert!((g.total_flops() - 4.0e9).abs() < 1.0);
    }

    #[test]
    fn builder_task_with_metadata() {
        let mut g = TaskGraph::new("x");
        let id = g.add(|id| {
            Task::new(id, w("hot"))
                .with_priority(Priority::SafetyCritical)
                .with_deadline(SimDuration::from_millis(100))
        });
        let t = g.task(id).unwrap();
        assert_eq!(t.priority(), Priority::SafetyCritical);
        assert_eq!(t.deadline(), Some(SimDuration::from_millis(100)));
    }
}
