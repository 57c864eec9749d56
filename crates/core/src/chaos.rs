//! End-to-end chaos scenario: every fault class, every recovery path.
//!
//! OpenVDAP's robustness story (§IV) is spread across the substrates:
//! the DSF re-plans around failed compute slots, the offloading planner
//! degrades to onboard execution when a wireless link drops, DDI
//! uploads retry under a deadline budget, and EdgeOSv supervises
//! crashed services. This module drives *all* of those paths in one
//! seeded simulation: a vehicle submits a perception task graph every
//! couple of seconds while a [`FaultPlan`] takes out the GPU, throttles
//! the CPU, kills the LTE link mid-drive (the paper's Figure 2 outage),
//! corrupts the storage backend and crashes the foreground service.
//!
//! Every submitted graph ends in exactly one recorded [`TaskOutcome`] —
//! completed on the VCU, failed over to surviving slots, served by the
//! offload fallback, or dropped with an explicit reason. Nothing is
//! lost silently, and because all randomness flows from the scenario
//! seed, two runs with the same [`ChaosConfig`] produce bit-identical
//! [`ChaosReport`]s.

use vdap_ddi::{DdiService, DrivingSample, GeoPoint, Payload, Record};
use vdap_edgeos::{
    Objective, PolymorphicService, ServiceState, ServiceSupervisor, SupervisorDecision,
};
use vdap_fault::{
    ChaosProfile, FaultEdge, FaultInjector, FaultKind, FaultPlan, FaultSpec, RetryError,
    RetryPolicy,
};
use vdap_hw::{ComputeWorkload, SlotId, TaskClass, VcuBoard};
use vdap_net::Site;
use vdap_offload::place_degradable;
use vdap_sim::{Ctx, ReliabilityStats, RngStream, SeedFactory, SimDuration, SimTime, Simulation};
use vdap_vcu::{commit, fail_over, DsfScheduler, Schedule, SchedulePolicy, TaskGraph};

use crate::Infrastructure;

/// Compute slot taken hard-down mid-run (the board's GPU).
pub const GPU_SLOT: &str = "jetson-tx2-max-p";
/// Compute slot thermally throttled early in the run (the board's CPU).
pub const CPU_SLOT: &str = "intel-i7-6700";
/// Storage backend targeted by write-error injection.
pub const DDI_STORE: &str = "ddi-store";
/// The cellular vehicle↔cloud link (the paper's LTE drive-test link).
pub const LTE_LINK: &str = "vehicle-cloud";
/// The vehicle↔edge link (DSRC/Wi-Fi to the roadside cabinet).
pub const EDGE_LINK: &str = "vehicle-edge";

/// Parameters of the chaos scenario. [`Default`] is the reference
/// storm used by the integration tests; every field is tunable.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Scenario seed; all stochastic choices derive from it.
    pub seed: u64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Gap between perception-graph submissions.
    pub request_period: SimDuration,
    /// Deadline for routine perception graphs.
    pub normal_deadline: SimDuration,
    /// Deadline for urgent graphs (forces the offload fallback).
    pub urgent_deadline: SimDuration,
    /// Deadline for safety-critical graphs (infeasible anywhere:
    /// exercises the drop-with-reason path).
    pub critical_deadline: SimDuration,
    /// Gap between DDI telemetry uploads.
    pub upload_period: SimDuration,
    /// Deadline budget for one retried upload.
    pub upload_budget: SimDuration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            duration: SimDuration::from_secs(120),
            request_period: SimDuration::from_secs(2),
            normal_deadline: SimDuration::from_secs(60),
            urgent_deadline: SimDuration::from_secs(3),
            critical_deadline: SimDuration::from_millis(50),
            upload_period: SimDuration::from_secs(1),
            upload_budget: SimDuration::from_secs(3),
        }
    }
}

impl ChaosConfig {
    /// The fault storm: one window of every [`FaultKind`] the platform
    /// recovers from, overlapping so recoveries interact.
    #[must_use]
    pub fn fault_plan(&self, service: &str) -> FaultPlan {
        FaultPlan::new(self.duration)
            .with_fault(FaultSpec::new(
                FaultKind::SlotThrottle { factor: 0.5 },
                CPU_SLOT,
                SimTime::from_secs(15),
                SimDuration::from_secs(20),
            ))
            .with_fault(FaultSpec::new(
                FaultKind::SlotFailure,
                GPU_SLOT,
                SimTime::from_secs(30),
                SimDuration::from_secs(45),
            ))
            .with_fault(FaultSpec::new(
                FaultKind::StorageWriteError,
                DDI_STORE,
                SimTime::from_secs(40),
                SimDuration::from_secs(10),
            ))
            .with_fault(FaultSpec::new(
                FaultKind::LinkOutage,
                LTE_LINK,
                SimTime::from_secs(50),
                SimDuration::from_secs(30),
            ))
            .with_fault(FaultSpec::new(
                FaultKind::ServiceCrash,
                service,
                SimTime::from_secs(60),
                SimDuration::from_secs(5),
            ))
            .with_fault(FaultSpec::new(
                FaultKind::LinkOutage,
                EDGE_LINK,
                SimTime::from_secs(70),
                SimDuration::from_secs(8),
            ))
    }
}

/// How one submitted perception graph ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome {
    /// Ran to completion on the originally committed VCU schedule.
    Completed,
    /// Rescheduled onto surviving slots after a slot failure.
    Failover {
        /// Delay from the failure instant to the first recovered start.
        latency: SimDuration,
    },
    /// Served by the offloading planner instead of the VCU.
    OffloadFallback {
        /// Whether the placement degraded to fully-onboard execution
        /// because of a link outage.
        degraded: bool,
        /// Estimated end-to-end latency of the fallback pipeline.
        latency: SimDuration,
    },
    /// Dropped, with the reason recorded — never silently.
    Dropped {
        /// Why the task could not be served.
        reason: String,
    },
}

/// The outcome of one chaos run. Derives [`PartialEq`] so two same-seed
/// runs can be compared bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Number of perception graphs submitted.
    pub submissions: u64,
    /// Per-submission outcomes, in submission order.
    pub outcomes: Vec<TaskOutcome>,
    /// Graphs that completed on their original schedule.
    pub completed: u64,
    /// Graphs rescued by DSF failover.
    pub failovers: u64,
    /// Graphs served by the offload fallback.
    pub fallbacks: u64,
    /// Graphs dropped with a recorded reason.
    pub dropped: u64,
    /// DDI telemetry uploads attempted.
    pub uploads_attempted: u64,
    /// Uploads abandoned after retries.
    pub uploads_failed: u64,
    /// MTTR, failover latency, retry and availability metrics.
    pub reliability: ReliabilityStats,
    /// Simulated time of the last processed event.
    pub finished_at: SimTime,
}

struct Submission {
    at: SimTime,
    deadline: SimDuration,
    graph: TaskGraph,
    schedule: Option<Schedule>,
    outcome: Option<TaskOutcome>,
}

struct ChaosWorld {
    cfg: ChaosConfig,
    board: VcuBoard,
    infra: Infrastructure,
    ddi: DdiService,
    supervisor: ServiceSupervisor,
    service: PolymorphicService,
    policy: DsfScheduler,
    injector: FaultInjector,
    upload_rng: RngStream,
    upload_policy: RetryPolicy,
    stages: Vec<ComputeWorkload>,
    submissions: Vec<Submission>,
    stats: ReliabilityStats,
    uploads_attempted: u64,
    uploads_failed: u64,
}

/// The recurring perception workload: sensor fusion feeding track
/// prediction, sized so the GPU carries real backlog when it fails.
fn chaos_stages() -> Vec<ComputeWorkload> {
    vec![
        ComputeWorkload::new("chaos-sensor-fusion", TaskClass::DenseLinearAlgebra)
            .with_gflops(150.0)
            .with_memory_mb(192.0)
            .with_parallel_fraction(0.97)
            .with_input_bytes(512 * 1024)
            .with_output_bytes(128 * 1024),
        ComputeWorkload::new("chaos-track-predict", TaskClass::DenseLinearAlgebra)
            .with_gflops(100.0)
            .with_memory_mb(128.0)
            .with_parallel_fraction(0.97)
            .with_input_bytes(128 * 1024)
            .with_output_bytes(16 * 1024),
    ]
}

fn perception_graph(stages: &[ComputeWorkload], deadline: SimDuration) -> TaskGraph {
    let mut graph = TaskGraph::new("chaos-perception");
    let fusion = graph.add_task(stages[0].clone());
    let predict =
        graph.add(|id| vdap_vcu::Task::new(id, stages[1].clone()).with_deadline(deadline));
    graph
        .add_dependency(fusion, predict)
        .expect("two-stage chain is a DAG");
    graph
}

fn slot_id_by_name(board: &VcuBoard, name: &str) -> Option<SlotId> {
    board
        .slots()
        .iter()
        .find(|s| s.unit.spec().name() == name)
        .map(|s| s.id)
}

/// Re-derives a slot's health from the injector at `now`. Idempotent,
/// so overlapping windows and both transition edges share one path.
fn apply_slot_health(world: &mut ChaosWorld, target: &str, now: SimTime) {
    let Some(id) = slot_id_by_name(&world.board, target) else {
        return;
    };
    let down = world.injector.is_down(target, now);
    let factor = world.injector.throttle_factor(target, now);
    let Some(unit) = world.board.unit_mut(id) else {
        return;
    };
    if down {
        unit.fail();
    } else {
        unit.recover();
        if factor < 1.0 {
            unit.throttle(factor);
        }
    }
}

/// Re-derives a wireless link's state from the injector at `now`.
fn apply_link_state(world: &mut ChaosWorld, target: &str, now: SimTime) {
    let (a, b) = match target {
        EDGE_LINK => (Site::Vehicle, Site::Edge),
        LTE_LINK => (Site::Vehicle, Site::Cloud),
        "edge-cloud" => (Site::Edge, Site::Cloud),
        _ => return,
    };
    let down = world.injector.is_down(target, now);
    let factor = world.injector.throttle_factor(target, now);
    world.infra.net.set_link_up(a, b, !down);
    world.infra.net.set_link_factor(a, b, factor);
}

/// Serves one submission through the offload planner when the VCU
/// cannot (or can no longer) meet its deadline.
fn offload_or_drop(world: &ChaosWorld, deadline: SimDuration, now: SimTime) -> TaskOutcome {
    let env = world.infra.env(&world.board, now);
    match place_degradable(&world.stages, &env, Objective::MinLatency, Some(deadline)) {
        Ok(p) => TaskOutcome::OffloadFallback {
            degraded: p.degraded,
            latency: p.latency,
        },
        Err(e) => TaskOutcome::Dropped {
            reason: e.to_string(),
        },
    }
}

fn submit(ctx: &mut Ctx<'_, ChaosWorld>, deadline: SimDuration) {
    let now = ctx.now();
    let world = ctx.state_mut();
    let graph = perception_graph(&world.stages, deadline);
    let mut sub = Submission {
        at: now,
        deadline,
        graph,
        schedule: None,
        outcome: None,
    };
    match world.policy.plan(&sub.graph, &world.board, now) {
        Ok(schedule) if schedule.meets_deadlines(&sub.graph, now) => {
            commit(&schedule, &sub.graph, &mut world.board);
            sub.schedule = Some(schedule);
        }
        _ => sub.outcome = Some(offload_or_drop(world, deadline, now)),
    }
    world.submissions.push(sub);
}

/// Rescues every in-flight schedule touched by `target` going down:
/// re-plan onto survivors, else offload, else drop with reason.
fn sweep_failover(world: &mut ChaosWorld, target: &str, now: SimTime) {
    let Some(slot) = slot_id_by_name(&world.board, target) else {
        return;
    };
    for i in 0..world.submissions.len() {
        if world.submissions[i].outcome.is_some() {
            continue;
        }
        let Some(schedule) = world.submissions[i].schedule.clone() else {
            continue;
        };
        let graph = world.submissions[i].graph.clone();
        let submitted_at = world.submissions[i].at;
        let deadline = world.submissions[i].deadline;
        let outcome = match fail_over(
            &graph,
            &schedule,
            slot,
            &mut world.board,
            &world.policy,
            submitted_at,
            now,
        ) {
            Ok(report) if report.affected.is_empty() => continue,
            Ok(report) if report.admitted => {
                world.stats.record_failover(report.failover_latency);
                TaskOutcome::Failover {
                    latency: report.failover_latency,
                }
            }
            Ok(_) => {
                // Recovery plan misses the original deadline: degrade to
                // the offload path with whatever budget remains.
                let elapsed = now.duration_since(submitted_at);
                if deadline > elapsed {
                    offload_or_drop(world, deadline - elapsed, now)
                } else {
                    TaskOutcome::Dropped {
                        reason: format!("deadline exhausted during {target} failover"),
                    }
                }
            }
            Err(e) => TaskOutcome::Dropped {
                reason: format!("failover failed: {e}"),
            },
        };
        world.submissions[i].outcome = Some(outcome);
    }
}

fn handle_fault(ctx: &mut Ctx<'_, ChaosWorld>, edge: FaultEdge, kind: FaultKind, target: &str) {
    let now = ctx.now();
    match kind {
        FaultKind::SlotFailure => {
            let world = ctx.state_mut();
            apply_slot_health(world, target, now);
            match edge {
                FaultEdge::Start => {
                    world.stats.record_fault(target, now);
                    sweep_failover(world, target, now);
                }
                FaultEdge::End => world.stats.record_recovery(target, now),
            }
        }
        FaultKind::SlotThrottle { .. } => apply_slot_health(ctx.state_mut(), target, now),
        FaultKind::LinkOutage | FaultKind::BandwidthCollapse { .. } => {
            let world = ctx.state_mut();
            apply_link_state(world, target, now);
            if matches!(kind, FaultKind::LinkOutage) {
                match edge {
                    FaultEdge::Start => world.stats.record_fault(target, now),
                    FaultEdge::End => world.stats.record_recovery(target, now),
                }
            }
        }
        FaultKind::StorageWriteError => {
            // DDI consults the injector directly on every write; only the
            // availability accounting happens here.
            let world = ctx.state_mut();
            match edge {
                FaultEdge::Start => world.stats.record_fault(target, now),
                FaultEdge::End => world.stats.record_recovery(target, now),
            }
        }
        FaultKind::ServiceCrash => {
            if edge == FaultEdge::Start {
                let world = ctx.state_mut();
                world.stats.record_fault(target, now);
                let decision = world.supervisor.on_crash(&mut world.service, now);
                if let SupervisorDecision::Restart { at, .. } = decision {
                    let target = target.to_string();
                    ctx.schedule_at(at, "chaos-service-restart", move |ctx| {
                        let now = ctx.now();
                        let world = ctx.state_mut();
                        world.supervisor.restart(&mut world.service, 0, now);
                        if matches!(world.service.state(), ServiceState::Running) {
                            world.stats.record_recovery(&target, now);
                        }
                    });
                }
                // On GiveUp the outage stays open and availability shows it.
            }
        }
        FaultKind::EdgeNodeCrash
        | FaultKind::TenantQuotaFlap { .. }
        | FaultKind::RegionHandoffStorm
        | FaultKind::CollectorOutage
        | FaultKind::StorageBrownout { .. } => {
            // Edge- and ingestion-tier fleet faults have no
            // single-vehicle analogue; the fleet engine's barrier pass
            // handles them (see [`crate::scenario`]'s fleet-chaos sweep).
        }
        FaultKind::EngineCrash { .. }
        | FaultKind::SnapshotTornWrite
        | FaultKind::SnapshotCorruption => {
            // Checkpoint-harness faults: the fleet engine's supervised
            // run loop and snapshot store interpret these; a
            // single-vehicle chaos world has no snapshots to break.
        }
    }
}

fn upload_telemetry(ctx: &mut Ctx<'_, ChaosWorld>) {
    let now = ctx.now();
    let world = ctx.state_mut();
    world.uploads_attempted += 1;
    let record = Record::new(
        now,
        GeoPoint::new(42.33, -83.05),
        Payload::Driving(DrivingSample {
            speed_mph: 34.0,
            accel_mps2: 0.4,
            yaw_rate: 0.01,
            engine_rpm: 1900.0,
            throttle: 0.3,
            brake: 0.0,
        }),
    );
    let budget = world.cfg.upload_budget;
    let ChaosWorld {
        ddi,
        upload_rng,
        upload_policy,
        injector,
        stats,
        uploads_failed,
        ..
    } = world;
    match ddi.upload_with_retry(
        record,
        now,
        budget,
        upload_policy,
        upload_rng,
        injector,
        DDI_STORE,
    ) {
        Ok(report) => {
            let retries = report.attempts.saturating_sub(1);
            for _ in 0..retries {
                stats.record_retry();
            }
            if retries > 0 {
                stats.record_retry_success();
            }
        }
        Err(e) => {
            if let vdap_ddi::DdiError::UploadFailed { retry } = &e {
                let attempts = match retry {
                    RetryError::AttemptsExhausted { attempts }
                    | RetryError::DeadlineExceeded { attempts } => *attempts,
                };
                for _ in 0..attempts.saturating_sub(1) {
                    stats.record_retry();
                }
            }
            stats.record_retry_exhausted();
            *uploads_failed += 1;
        }
    }
}

/// Runs the chaos scenario to completion and reports every outcome.
///
/// Deterministic: two calls with equal configs return equal reports.
#[must_use]
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let factory = SeedFactory::new(cfg.seed);
    let mut service = crate::apps::amber_alert(SimDuration::from_millis(800));
    service.select(0);
    let service_name = service.name().to_string();
    let injector = cfg.fault_plan(&service_name).compile();
    let transitions: Vec<(SimTime, FaultEdge, FaultKind, String)> = injector
        .transitions()
        .into_iter()
        .map(|t| {
            let w = &injector.windows()[t.window];
            (t.at, t.edge, w.kind, w.target.clone())
        })
        .collect();

    let world = ChaosWorld {
        cfg: cfg.clone(),
        board: VcuBoard::reference_design(),
        infra: Infrastructure::reference(),
        ddi: DdiService::new(4096, SimDuration::from_secs(300)),
        supervisor: ServiceSupervisor::new(),
        service,
        policy: DsfScheduler::new(),
        injector,
        upload_rng: factory.stream("chaos-upload-retry"),
        upload_policy: RetryPolicy {
            max_attempts: 6,
            base_delay: SimDuration::from_millis(500),
            backoff_factor: 2.0,
            jitter: 0.2,
            attempt_timeout: Some(SimDuration::from_secs(1)),
        },
        stages: chaos_stages(),
        submissions: Vec::new(),
        stats: ReliabilityStats::new(),
        uploads_attempted: 0,
        uploads_failed: 0,
    };
    let mut sim = Simulation::new(world);

    // Insertion order at equal timestamps is execution order: submissions
    // land before the fault transition at the same instant, so a graph
    // committed at t=30 is immediately exposed to the GPU failure — the
    // scenario the failover path exists for.
    let mut k: u64 = 0;
    loop {
        let at = SimTime::ZERO + cfg.request_period.mul_f64(k as f64);
        if at.elapsed() >= cfg.duration {
            break;
        }
        let deadline = match k % 6 {
            2 => cfg.urgent_deadline,
            5 => cfg.critical_deadline,
            _ => cfg.normal_deadline,
        };
        sim.schedule_at(at, "chaos-submit", move |ctx| submit(ctx, deadline));
        k += 1;
    }
    let mut j: u64 = 0;
    loop {
        let at =
            SimTime::ZERO + SimDuration::from_millis(500) + cfg.upload_period.mul_f64(j as f64);
        if at.elapsed() >= cfg.duration {
            break;
        }
        sim.schedule_at(at, "chaos-upload", upload_telemetry);
        j += 1;
    }
    for (at, edge, kind, target) in transitions {
        sim.schedule_at(at, "chaos-fault", move |ctx| {
            handle_fault(ctx, edge, kind, &target);
        });
    }

    sim.run();
    let finished_at = sim.now();
    let world = sim.into_state();

    let outcomes: Vec<TaskOutcome> = world
        .submissions
        .iter()
        .map(|s| s.outcome.clone().unwrap_or(TaskOutcome::Completed))
        .collect();
    let count = |f: fn(&TaskOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count() as u64;
    ChaosReport {
        submissions: outcomes.len() as u64,
        completed: count(|o| matches!(o, TaskOutcome::Completed)),
        failovers: count(|o| matches!(o, TaskOutcome::Failover { .. })),
        fallbacks: count(|o| matches!(o, TaskOutcome::OffloadFallback { .. })),
        dropped: count(|o| matches!(o, TaskOutcome::Dropped { .. })),
        outcomes,
        uploads_attempted: world.uploads_attempted,
        uploads_failed: world.uploads_failed,
        reliability: world.stats,
        finished_at,
    }
}

/// Builds the fleet-scale chaos scenario (the repro binary's E15): a
/// 1,000-vehicle fleet for one simulated minute whose XEdge node 1
/// crashes mid-run, tenant 0's admission quota flaps to 30 % of
/// nominal, and region 2's cell rides a handoff storm. Every window
/// lives on the shared barrier clock, so any executor width or batch
/// size replays the same storm.
#[must_use]
pub fn fleet_chaos_config(seed: u64) -> vdap_fleet::FleetConfig {
    let mut cfg = vdap_fleet::FleetConfig::sized(1000);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(60);
    cfg.with_edge_node_crash(1, SimTime::from_secs(10), SimDuration::from_secs(8))
        .with_tenant_quota_flap(0, 0.3, SimTime::from_secs(20), SimDuration::from_secs(10))
        .with_handoff_storm(2, SimTime::from_secs(35), SimDuration::from_secs(6))
}

/// The [`ChaosProfile`] behind the randomized fleet storm: every XEdge
/// node, tenant quota, regional LTE cell and handoff plane in `cfg` is
/// an eligible target, with gaps short enough that windows overlap and
/// the recovery rungs interact.
#[must_use]
pub fn fleet_storm_profile(cfg: &vdap_fleet::FleetConfig) -> ChaosProfile {
    ChaosProfile {
        edge_nodes: (0..cfg.edge_nodes)
            .map(vdap_fleet::edge_node_label)
            .collect(),
        tenants: (0..cfg.tenants).map(vdap_fleet::tenant_label).collect(),
        links: (0..cfg.regions).map(vdap_fleet::region_label).collect(),
        regions: (0..cfg.regions).map(vdap_fleet::handoff_label).collect(),
        // The DDI ingestion tier: regional collectors and the shared
        // store. When the config doesn't run ingestion these windows
        // are harmless no-ops, so the storm vocabulary is uniform.
        collectors: (0..cfg.regions).map(vdap_fleet::collector_label).collect(),
        stores: vec![vdap_fleet::STORE_LABEL.to_string()],
        mean_gap: SimDuration::from_secs(5),
        mean_duration: SimDuration::from_secs(6),
        ..ChaosProfile::new()
    }
}

/// Builds the randomized fleet storm (the repro binary's E17
/// `fleet-storm` target): the same 1,000-vehicle fleet as
/// [`fleet_chaos_config`], but instead of three hand-placed windows the
/// fault plan is drawn from `seed`'s dedicated stream — Poisson
/// arrivals over the [`fleet_storm_profile`] targets, mixing edge-node
/// crashes, tenant quota flaps, regional LTE outages and handoff
/// storms. The compiled plan is a pure function of virtual time shared
/// by every vehicle, so even a randomized storm replays byte-identically
/// in any run layout; callers print the seed so a storm can be replayed
/// exactly.
#[must_use]
pub fn fleet_storm_config(seed: u64) -> vdap_fleet::FleetConfig {
    let mut cfg = vdap_fleet::FleetConfig::sized(1000);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(60);
    let profile = fleet_storm_profile(&cfg);
    let mut rng = SeedFactory::new(seed).stream("fleet-storm-plan");
    let plan = FaultPlan::randomized(&mut rng, cfg.duration, &profile);
    cfg.with_fault_plan(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summaries of `cfg` in the default run layout, with one
    /// worker and single-vehicle batches, and with two workers and an
    /// odd batch size. The determinism contract makes all three
    /// byte-identical.
    fn layout_summaries(cfg: &vdap_fleet::FleetConfig) -> [String; 3] {
        [
            cfg.clone(),
            cfg.clone().with_executor_threads(1).with_batch_size(1),
            cfg.clone().with_executor_threads(2).with_batch_size(7),
        ]
        .map(|c| vdap_fleet::FleetEngine::new(c).run().summary())
    }

    #[test]
    fn fleet_chaos_config_carries_all_edge_tier_kinds() {
        let cfg = fleet_chaos_config(42);
        let plan = cfg.chaos.as_ref().expect("chaos plan present");
        let labels: Vec<&str> = plan.faults().iter().map(|f| f.kind.label()).collect();
        assert!(labels.contains(&"edge-node-crash"), "{labels:?}");
        assert!(labels.contains(&"tenant-quota-flap"), "{labels:?}");
        assert!(labels.contains(&"region-handoff-storm"), "{labels:?}");
    }

    #[test]
    fn fleet_storm_is_seeded_and_replayable() {
        let a = fleet_storm_config(9);
        let b = fleet_storm_config(9);
        assert_eq!(a.chaos, b.chaos, "same seed must draw the same storm");
        let plan = a.chaos.as_ref().expect("storm plan present");
        assert!(!plan.faults().is_empty(), "storm drew no faults");
        let edge_tier = plan.faults().iter().any(|f| {
            matches!(
                f.kind,
                FaultKind::EdgeNodeCrash
                    | FaultKind::TenantQuotaFlap { .. }
                    | FaultKind::RegionHandoffStorm
                    | FaultKind::LinkOutage
            )
        });
        assert!(edge_tier, "storm has no edge-tier faults: {plan:?}");
        assert_ne!(
            a.chaos,
            fleet_storm_config(10).chaos,
            "different seeds should draw different storms"
        );
    }

    #[test]
    fn fleet_storm_sweep_is_shard_invariant() {
        // The randomized storm scaled down to test size.
        let mut cfg = fleet_storm_config(11);
        cfg.vehicles = 96;
        cfg.duration = SimDuration::from_secs(10);
        let [base, serial, wide] = layout_summaries(&cfg);
        assert_eq!(base, serial, "randomized storm diverged at one worker");
        assert_eq!(base, wide, "randomized storm diverged at two workers");
    }

    #[test]
    fn fleet_chaos_sweep_is_shard_invariant() {
        // The E15 storm scaled down to test size: same three fault
        // kinds, smaller fleet and horizon.
        let mut cfg = vdap_fleet::FleetConfig::sized(96);
        cfg.seed = 7;
        cfg.duration = SimDuration::from_secs(10);
        cfg.edge_nodes = 2;
        let cfg = cfg
            .with_edge_node_crash(0, SimTime::from_secs(2), SimDuration::from_secs(3))
            .with_tenant_quota_flap(0, 0.3, SimTime::from_secs(4), SimDuration::from_secs(3))
            .with_handoff_storm(1, SimTime::from_secs(5), SimDuration::from_secs(2));
        let [base, serial, wide] = layout_summaries(&cfg);
        assert_eq!(base, serial, "one-worker run diverged");
        assert_eq!(base, wide, "two-worker run diverged");
        assert!(base.contains("ladder:"), "{base}");
    }

    #[test]
    fn every_submission_gets_exactly_one_outcome() {
        let report = run_chaos(&ChaosConfig::default());
        assert_eq!(report.submissions, 60);
        assert_eq!(report.outcomes.len() as u64, report.submissions);
        assert_eq!(
            report.completed + report.failovers + report.fallbacks + report.dropped,
            report.submissions
        );
    }

    #[test]
    fn all_recovery_paths_fire() {
        let report = run_chaos(&ChaosConfig::default());
        assert!(report.failovers >= 1, "no failover: {report:?}");
        assert!(report.fallbacks >= 1, "no offload fallback: {report:?}");
        assert!(report.dropped >= 1, "no recorded drop: {report:?}");
        for outcome in &report.outcomes {
            if let TaskOutcome::Dropped { reason } = outcome {
                assert!(!reason.is_empty(), "drop without reason");
            }
        }
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_chaos(&ChaosConfig::default());
        let b = run_chaos(&ChaosConfig::default());
        assert_eq!(a, b);
    }
}
