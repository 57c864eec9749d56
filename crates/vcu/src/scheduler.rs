//! The DSF task scheduler.
//!
//! §IV-B: "DSF determines the resources type and amounts which will be
//! allocated to each task according to the dynamic status of each
//! resource, QoS requirement and processing priority of each task, and
//! the cost of each scheduling plan."
//!
//! [`DsfScheduler`] is an affinity-aware list scheduler (HEFT-flavoured):
//! tasks are planned in priority-then-topological order, each onto the
//! slot with the earliest finish time given queue states, dependency
//! completion, inter-processor transfer cost, and memory fit. Two
//! baselines — [`RoundRobinScheduler`] and [`CpuOnlyScheduler`] — exist
//! for the scheduling ablation (DESIGN.md experiment E9).

use std::collections::HashMap;

use vdap_hw::{ProcessorKind, SlotId, VcuBoard};
use vdap_sim::{SimDuration, SimTime};

use crate::task::{TaskGraph, TaskId};

/// Intra-board transfer bandwidth between processors (PCIe-class).
const BOARD_BYTES_PER_SEC: f64 = 8.0e9;
/// Fixed intra-board transfer setup cost.
const BOARD_HOP_LATENCY: SimDuration = SimDuration::from_micros(20);

/// One task's placement in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The task being placed.
    pub task: TaskId,
    /// The slot it runs on.
    pub slot: SlotId,
    /// When it starts.
    pub start: SimTime,
    /// When it finishes.
    pub finish: SimTime,
}

/// A complete plan for one task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Name of the scheduled graph.
    pub graph_name: String,
    /// Name of the policy that produced the plan.
    pub policy: String,
    /// Per-task placements, in planning order.
    pub assignments: Vec<Assignment>,
    /// Time from submission to last finish.
    pub makespan: SimDuration,
    /// Active energy the plan will consume, joules.
    pub energy_joules: f64,
}

impl Schedule {
    /// The placement of one task.
    #[must_use]
    pub fn assignment(&self, task: TaskId) -> Option<&Assignment> {
        self.assignments.iter().find(|a| a.task == task)
    }

    /// Whether every deadlined task finishes within its deadline
    /// (relative to `submitted_at`).
    #[must_use]
    pub fn meets_deadlines(&self, graph: &TaskGraph, submitted_at: SimTime) -> bool {
        self.assignments
            .iter()
            .all(|a| match graph.task(a.task).and_then(|t| t.deadline()) {
                Some(d) => a.finish.duration_since(submitted_at) <= d,
                None => true,
            })
    }
}

/// Error producing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No slot can run this task (memory fit / empty board).
    NoFeasibleSlot(TaskId),
    /// The graph is cyclic.
    CyclicGraph,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoFeasibleSlot(id) => write!(f, "no feasible slot for {id}"),
            ScheduleError::CyclicGraph => write!(f, "task graph is cyclic"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A planning policy: maps a graph onto a board snapshot.
///
/// Policies never mutate the board; call [`commit`] to apply a plan.
pub trait SchedulePolicy: std::fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Produces a plan for `graph` submitted at `now` on `board`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when the graph is cyclic or a task has
    /// no feasible slot.
    fn plan(
        &self,
        graph: &TaskGraph,
        board: &VcuBoard,
        now: SimTime,
    ) -> Result<Schedule, ScheduleError>;
}

/// Shared planning state: per-slot availability plus per-task finish.
struct PlanState {
    slot_free: HashMap<SlotId, SimTime>,
    task_finish: HashMap<TaskId, (SimTime, SlotId)>,
    energy: f64,
}

impl PlanState {
    fn new(board: &VcuBoard, now: SimTime) -> Self {
        PlanState {
            slot_free: board
                .slots()
                .iter()
                .map(|s| {
                    let free = if s.unit.busy_until() > now {
                        s.unit.busy_until()
                    } else {
                        now
                    };
                    (s.id, free)
                })
                .collect(),
            task_finish: HashMap::new(),
            energy: 0.0,
        }
    }

    /// Earliest time `task`'s inputs are available on `slot`.
    fn ready_time(&self, graph: &TaskGraph, task: TaskId, slot: SlotId, now: SimTime) -> SimTime {
        let mut ready = now;
        for pred in graph.predecessors(task) {
            let (pfinish, pslot) = self.task_finish[&pred];
            let transfer = if pslot == slot {
                SimDuration::ZERO
            } else {
                let bytes = graph.task(pred).map_or(0, |t| t.workload().output_bytes());
                BOARD_HOP_LATENCY + SimDuration::from_secs_f64(bytes as f64 / BOARD_BYTES_PER_SEC)
            };
            let avail = pfinish + transfer;
            if avail > ready {
                ready = avail;
            }
        }
        ready
    }

    fn place(
        &mut self,
        graph: &TaskGraph,
        board: &VcuBoard,
        task: TaskId,
        slot: SlotId,
        now: SimTime,
    ) -> Assignment {
        let unit = &board.slot(slot).expect("planned slot exists").unit;
        let workload = graph.task(task).expect("planned task exists").workload();
        let ready = self.ready_time(graph, task, slot, now);
        let free = self.slot_free[&slot];
        let start = if free > ready { free } else { ready };
        let finish = start + unit.effective_service_time(workload);
        self.slot_free.insert(slot, finish);
        self.task_finish.insert(task, (finish, slot));
        self.energy += unit.spec().energy_joules(workload);
        Assignment {
            task,
            slot,
            start,
            finish,
        }
    }
}

/// Dependency-respecting planning order: a priority-aware Kahn sort.
/// Among currently-ready tasks the highest priority goes first (lowest id
/// breaks ties), but a task is never ordered before its predecessors.
fn planning_order(graph: &TaskGraph) -> Result<Vec<TaskId>, ScheduleError> {
    // Validate acyclicity first.
    graph.topo_order().map_err(|_| ScheduleError::CyclicGraph)?;
    let mut indegree: HashMap<TaskId, usize> = graph.tasks().iter().map(|t| (t.id(), 0)).collect();
    for &(_, c) in graph.edges() {
        *indegree.get_mut(&c).expect("validated edge") += 1;
    }
    let mut ready: Vec<TaskId> = graph
        .tasks()
        .iter()
        .map(|t| t.id())
        .filter(|id| indegree[id] == 0)
        .collect();
    let mut order = Vec::with_capacity(graph.len());
    while !ready.is_empty() {
        let (pos, _) = ready
            .iter()
            .enumerate()
            .max_by_key(|(_, &id)| {
                let p = graph.task(id).expect("ready task exists").priority();
                (p, std::cmp::Reverse(id))
            })
            .expect("ready set non-empty");
        let next = ready.remove(pos);
        order.push(next);
        for succ in graph.successors(next) {
            let d = indegree.get_mut(&succ).expect("validated edge");
            *d -= 1;
            if *d == 0 {
                ready.push(succ);
            }
        }
    }
    Ok(order)
}

fn finalize(
    graph: &TaskGraph,
    policy: &'static str,
    assignments: Vec<Assignment>,
    energy: f64,
    now: SimTime,
) -> Schedule {
    let makespan = assignments
        .iter()
        .map(|a| a.finish.duration_since(now))
        .max()
        .unwrap_or(SimDuration::ZERO);
    Schedule {
        graph_name: graph.name().to_string(),
        policy: policy.to_string(),
        assignments,
        makespan,
        energy_joules: energy,
    }
}

/// The affinity-aware earliest-finish-time scheduler (the paper's DSF).
#[derive(Debug, Clone, Copy, Default)]
pub struct DsfScheduler {
    /// When true, break EFT ties toward the lower-energy slot.
    pub energy_aware: bool,
}

impl DsfScheduler {
    /// Creates the default (energy-aware) DSF scheduler.
    #[must_use]
    pub fn new() -> Self {
        DsfScheduler { energy_aware: true }
    }
}

impl SchedulePolicy for DsfScheduler {
    fn name(&self) -> &'static str {
        "dsf-eft"
    }

    fn plan(
        &self,
        graph: &TaskGraph,
        board: &VcuBoard,
        now: SimTime,
    ) -> Result<Schedule, ScheduleError> {
        let order = planning_order(graph)?;
        let mut state = PlanState::new(board, now);
        let mut assignments = Vec::with_capacity(order.len());
        for task in order {
            let workload = graph.task(task).expect("ordered task exists").workload();
            let mut best: Option<(SimTime, f64, SlotId)> = None;
            for slot in board.slots() {
                if !slot.unit.is_available() || !slot.unit.spec().fits(workload) {
                    continue;
                }
                let ready = state.ready_time(graph, task, slot.id, now);
                let free = state.slot_free[&slot.id];
                let start = if free > ready { free } else { ready };
                let finish = start + slot.unit.effective_service_time(workload);
                let energy = slot.unit.spec().energy_joules(workload);
                let better = match &best {
                    None => true,
                    Some((bf, be, _)) => {
                        finish < *bf || (finish == *bf && self.energy_aware && energy < *be)
                    }
                };
                if better {
                    best = Some((finish, energy, slot.id));
                }
            }
            let (_, _, slot) = best.ok_or(ScheduleError::NoFeasibleSlot(task))?;
            assignments.push(state.place(graph, board, task, slot, now));
        }
        let energy = state.energy;
        Ok(finalize(graph, self.name(), assignments, energy, now))
    }
}

/// Baseline: tasks assigned cyclically across slots, ignoring affinity.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinScheduler;

impl SchedulePolicy for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn plan(
        &self,
        graph: &TaskGraph,
        board: &VcuBoard,
        now: SimTime,
    ) -> Result<Schedule, ScheduleError> {
        let order = planning_order(graph)?;
        let mut state = PlanState::new(board, now);
        let mut assignments = Vec::with_capacity(order.len());
        let slots: Vec<SlotId> = board
            .slots()
            .iter()
            .filter(|s| s.unit.is_available())
            .map(|s| s.id)
            .collect();
        if slots.is_empty() {
            return Err(ScheduleError::NoFeasibleSlot(
                order.first().copied().unwrap_or(TaskId(0)),
            ));
        }
        for (i, task) in order.into_iter().enumerate() {
            let workload = graph.task(task).expect("ordered task exists").workload();
            // Start from the RR position, advance until the task fits.
            let mut chosen = None;
            for k in 0..slots.len() {
                let slot = slots[(i + k) % slots.len()];
                if board
                    .slot(slot)
                    .expect("listed slot exists")
                    .unit
                    .spec()
                    .fits(workload)
                {
                    chosen = Some(slot);
                    break;
                }
            }
            let slot = chosen.ok_or(ScheduleError::NoFeasibleSlot(task))?;
            assignments.push(state.place(graph, board, task, slot, now));
        }
        let energy = state.energy;
        Ok(finalize(graph, self.name(), assignments, energy, now))
    }
}

/// Baseline: everything on the first CPU slot (the "traditional on-board
/// controller" world before VCU).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuOnlyScheduler;

impl SchedulePolicy for CpuOnlyScheduler {
    fn name(&self) -> &'static str {
        "cpu-only"
    }

    fn plan(
        &self,
        graph: &TaskGraph,
        board: &VcuBoard,
        now: SimTime,
    ) -> Result<Schedule, ScheduleError> {
        let order = planning_order(graph)?;
        let cpu = board
            .slots()
            .iter()
            .find(|s| s.unit.spec().kind() == ProcessorKind::Cpu && s.unit.is_available())
            .map(|s| s.id)
            .ok_or(ScheduleError::NoFeasibleSlot(
                order.first().copied().unwrap_or(TaskId(0)),
            ))?;
        let mut state = PlanState::new(board, now);
        let mut assignments = Vec::with_capacity(order.len());
        for task in order {
            let workload = graph.task(task).expect("ordered task exists").workload();
            if !board
                .slot(cpu)
                .expect("cpu slot exists")
                .unit
                .spec()
                .fits(workload)
            {
                return Err(ScheduleError::NoFeasibleSlot(task));
            }
            assignments.push(state.place(graph, board, task, cpu, now));
        }
        let energy = state.energy;
        Ok(finalize(graph, self.name(), assignments, energy, now))
    }
}

/// Applies a plan to the live board: books every assignment onto its
/// slot so future planning sees the occupancy and energy.
pub fn commit(schedule: &Schedule, graph: &TaskGraph, board: &mut VcuBoard) {
    for a in &schedule.assignments {
        if let (Some(unit), Some(task)) = (board.unit_mut(a.slot), graph.task(a.task)) {
            unit.book(a.start, a.finish, task.workload());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Priority, Task, TaskGraph};
    use vdap_hw::{ComputeWorkload, TaskClass};

    fn vision(name: &str, gflops: f64) -> ComputeWorkload {
        ComputeWorkload::new(name, TaskClass::VisionKernel)
            .with_gflops(gflops)
            .with_parallel_fraction(1.0)
    }

    fn dense(name: &str, gflops: f64) -> ComputeWorkload {
        ComputeWorkload::new(name, TaskClass::DenseLinearAlgebra)
            .with_gflops(gflops)
            .with_parallel_fraction(1.0)
    }

    fn pipeline_graph() -> TaskGraph {
        let mut g = TaskGraph::new("detect-pipeline");
        let pre = g.add_task(vision("preprocess", 0.5));
        let infer = g.add_task(dense("infer", 10.0));
        let post =
            g.add_task(ComputeWorkload::new("post", TaskClass::ControlLogic).with_gflops(0.1));
        g.add_dependency(pre, infer).unwrap();
        g.add_dependency(infer, post).unwrap();
        g
    }

    #[test]
    fn dsf_beats_baselines_on_makespan() {
        let board = VcuBoard::reference_design();
        let g = pipeline_graph();
        let dsf = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        let rr = RoundRobinScheduler.plan(&g, &board, SimTime::ZERO).unwrap();
        let cpu = CpuOnlyScheduler.plan(&g, &board, SimTime::ZERO).unwrap();
        assert!(
            dsf.makespan <= rr.makespan,
            "dsf {} rr {}",
            dsf.makespan,
            rr.makespan
        );
        assert!(
            dsf.makespan < cpu.makespan,
            "dsf {} cpu {}",
            dsf.makespan,
            cpu.makespan
        );
    }

    #[test]
    fn dsf_respects_dependencies() {
        let board = VcuBoard::reference_design();
        let g = pipeline_graph();
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        let order = g.topo_order().unwrap();
        for w in order.windows(2) {
            let a = plan.assignment(w[0]).unwrap();
            let b = plan.assignment(w[1]).unwrap();
            assert!(b.start >= a.finish, "{} must wait for {}", w[1], w[0]);
        }
    }

    #[test]
    fn dsf_sends_dense_work_to_accelerator() {
        let board = VcuBoard::reference_design();
        let g = pipeline_graph();
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        let infer = plan
            .assignments
            .iter()
            .find(|a| a.task == TaskId(1))
            .unwrap();
        let slot = board.slot(infer.slot).unwrap();
        assert_eq!(slot.unit.spec().name(), "jetson-tx2-max-p");
    }

    #[test]
    fn parallel_independent_tasks_spread_across_slots() {
        let board = VcuBoard::reference_design();
        let mut g = TaskGraph::new("fanout");
        // Enough independent work that even the fastest vision slot (the
        // ASIC, ~4x the next best) overflows and the EFT rule spills onto
        // other processors.
        for i in 0..8 {
            g.add_task(vision(&format!("v{i}"), 30.0));
        }
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        let slots: std::collections::HashSet<SlotId> =
            plan.assignments.iter().map(|a| a.slot).collect();
        assert!(slots.len() >= 2, "independent work should parallelize");
    }

    #[test]
    fn priority_tasks_queue_first() {
        let board = VcuBoard::reference_design();
        let mut g = TaskGraph::new("prio");
        // Two vision tasks with no dependencies; the safety-critical one
        // must be planned first and therefore start no later.
        let low =
            g.add(|id| Task::new(id, vision("low", 50.0)).with_priority(Priority::Background));
        let hot =
            g.add(|id| Task::new(id, vision("hot", 50.0)).with_priority(Priority::SafetyCritical));
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        let hot_a = plan.assignment(hot).unwrap();
        let low_a = plan.assignment(low).unwrap();
        assert!(hot_a.start <= low_a.start);
        assert_eq!(plan.assignments[0].task, hot);
    }

    #[test]
    fn busy_board_delays_start() {
        let mut board = VcuBoard::reference_design();
        // Saturate every slot until t = 100 s.
        let ids: Vec<SlotId> = board.slots().iter().map(|s| s.id).collect();
        for id in ids {
            let rate = board
                .slot(id)
                .unwrap()
                .unit
                .spec()
                .throughput_gflops(TaskClass::VisionKernel);
            let w = vision("hog", rate * 100.0);
            board.unit_mut(id).unwrap().enqueue(SimTime::ZERO, &w);
        }
        let g = pipeline_graph();
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        assert!(plan.assignments[0].start >= SimTime::from_secs(99));
    }

    #[test]
    fn commit_books_occupancy() {
        let mut board = VcuBoard::reference_design();
        let g = pipeline_graph();
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        commit(&plan, &g, &mut board);
        let jobs: u64 = board.slots().iter().map(|s| s.unit.jobs_done()).sum();
        assert_eq!(jobs, g.len() as u64);
        assert!(board.total_energy_joules() > 0.0);
        // Replanning now must start after the booked work.
        let plan2 = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        assert!(plan2.makespan >= plan.makespan);
    }

    #[test]
    fn deadline_checking() {
        let board = VcuBoard::reference_design();
        let mut g = TaskGraph::new("deadline");
        g.add(|id| Task::new(id, dense("fast", 1.0)).with_deadline(SimDuration::from_secs(10)));
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        assert!(plan.meets_deadlines(&g, SimTime::ZERO));

        let mut g2 = TaskGraph::new("impossible");
        g2.add(|id| {
            Task::new(id, dense("huge", 10_000.0)).with_deadline(SimDuration::from_millis(1))
        });
        let plan2 = DsfScheduler::new()
            .plan(&g2, &board, SimTime::ZERO)
            .unwrap();
        assert!(!plan2.meets_deadlines(&g2, SimTime::ZERO));
    }

    #[test]
    fn down_slot_is_never_planned() {
        let mut board = VcuBoard::reference_design();
        // Fail the accelerator the dense stage would otherwise pick.
        let gpu = board
            .slots()
            .iter()
            .find(|s| s.unit.spec().name() == "jetson-tx2-max-p")
            .unwrap()
            .id;
        board.unit_mut(gpu).unwrap().fail();
        let g = pipeline_graph();
        for policy in [
            &DsfScheduler::new() as &dyn SchedulePolicy,
            &RoundRobinScheduler,
            &CpuOnlyScheduler,
        ] {
            let plan = policy.plan(&g, &board, SimTime::ZERO).unwrap();
            assert!(
                plan.assignments.iter().all(|a| a.slot != gpu),
                "{} planned onto a down slot",
                policy.name()
            );
        }
    }

    #[test]
    fn all_slots_down_errors() {
        let mut board = VcuBoard::reference_design();
        let ids: Vec<SlotId> = board.slots().iter().map(|s| s.id).collect();
        for id in ids {
            board.unit_mut(id).unwrap().fail();
        }
        let g = pipeline_graph();
        assert!(matches!(
            DsfScheduler::new().plan(&g, &board, SimTime::ZERO),
            Err(ScheduleError::NoFeasibleSlot(_))
        ));
    }

    #[test]
    fn throttled_slot_stretches_plan() {
        let board = VcuBoard::reference_design();
        let g = pipeline_graph();
        let nominal = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        let mut slow = VcuBoard::reference_design();
        let ids: Vec<SlotId> = slow.slots().iter().map(|s| s.id).collect();
        for id in ids {
            slow.unit_mut(id).unwrap().throttle(0.25);
        }
        let throttled = DsfScheduler::new().plan(&g, &slow, SimTime::ZERO).unwrap();
        assert!(
            throttled.makespan > nominal.makespan,
            "throttling must slow the plan: {} vs {}",
            throttled.makespan,
            nominal.makespan
        );
    }

    #[test]
    fn empty_board_errors() {
        let board = VcuBoard::empty(vdap_hw::SsdModel::automotive(), 100.0);
        let g = pipeline_graph();
        assert!(matches!(
            DsfScheduler::new().plan(&g, &board, SimTime::ZERO),
            Err(ScheduleError::NoFeasibleSlot(_))
        ));
        assert!(RoundRobinScheduler.plan(&g, &board, SimTime::ZERO).is_err());
        assert!(CpuOnlyScheduler.plan(&g, &board, SimTime::ZERO).is_err());
    }

    #[test]
    fn empty_graph_is_trivially_scheduled() {
        let board = VcuBoard::reference_design();
        let g = TaskGraph::new("empty");
        let plan = DsfScheduler::new().plan(&g, &board, SimTime::ZERO).unwrap();
        assert!(plan.assignments.is_empty());
        assert_eq!(plan.makespan, SimDuration::ZERO);
        assert_eq!(plan.energy_joules, 0.0);
    }
}
