//! Scenario harness: whole-system experiments.
//!
//! Assembles vehicles, infrastructure and workloads into reproducible
//! experiments: the §III strategy comparison (E6), the §IV-C elastic
//! adaptation timeline (E5), and the §III-C V2V collaboration study
//! (E10). A worker-pool [`sweep`] runs parameter points in parallel for
//! the benches, and [`ScenarioConfig::fleet`] lifts a scenario onto the
//! fleet engine (E14).

use serde::{Deserialize, Serialize};
use vdap_edgeos::{Objective, ServiceState};
use vdap_hw::ComputeWorkload;
use vdap_net::{DsrcRadio, Miles, Mph, Site};
use vdap_offload::{
    price, run_strategy, CloudOnly, CostReport, EdgeBased, InVehicleOnly, OffloadStrategy,
    ResultCache, ResultKey, SharedResult, Tile,
};
use vdap_sim::{SimDuration, SimTime, Simulation};

use crate::apps::amber_alert;
use crate::infra::Infrastructure;
use crate::platform::OpenVdap;

/// Parameters shared by the scenario experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Fleet size.
    pub vehicles: usize,
    /// Cruise speed (drives cellular degradation).
    pub speed: Mph,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Per-vehicle request spacing for the detection service.
    pub request_period: SimDuration,
    /// Edge service-time multiplier (shared tenancy).
    pub edge_load: f64,
    /// Seconds of standing ADAS-perception backlog on every vehicle
    /// board (the §I contention story). 0 = idle boards.
    pub board_busy_secs: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            vehicles: 4,
            speed: Mph(35.0),
            duration: SimDuration::from_secs(60),
            request_period: SimDuration::from_millis(500),
            edge_load: 1.0,
            board_busy_secs: 1.0,
        }
    }
}

impl ScenarioConfig {
    /// Number of requests each vehicle issues.
    #[must_use]
    pub fn requests_per_vehicle(&self) -> u64 {
        (self.duration.as_nanos() / self.request_period.as_nanos().max(1)).max(1)
    }

    /// The infrastructure this scenario runs against (mobility applied).
    #[must_use]
    pub fn infrastructure(&self) -> Infrastructure {
        let mut infra = Infrastructure::reference();
        infra.edge_load = self.edge_load;
        infra.apply_mobility(self.speed);
        infra
    }

    /// Builds the fleet-scale version of this scenario: same seed,
    /// fleet size, duration and request cadence, run on the
    /// [`vdap_fleet::FleetEngine`] instead of the per-vehicle loop.
    /// `edge_load > 1` carries over as a slower base XEdge service time
    /// (standing shared-tenancy load).
    #[must_use]
    pub fn fleet(&self) -> vdap_fleet::FleetConfig {
        let vehicles = self.vehicles.max(1) as u32;
        let mut cfg = vdap_fleet::FleetConfig::sized(vehicles);
        cfg.seed = self.seed;
        cfg.duration = self.duration;
        cfg.request_period = self.request_period;
        cfg.scale_edge_service(self.edge_load);
        cfg
    }
}

/// Queues `busy_secs` of ADAS perception work on every board slot (the
/// standing load real vehicles carry while driving).
pub fn preload_board(platform: &mut OpenVdap, busy_secs: f64) {
    if busy_secs <= 0.0 {
        return;
    }
    let ids: Vec<_> = platform
        .vcu()
        .board()
        .slots()
        .iter()
        .map(|s| s.id)
        .collect();
    for id in ids {
        let board = platform.vcu_mut().board_mut();
        let unit = board.unit_mut(id).expect("listed slot");
        let rate = unit
            .spec()
            .throughput_gflops(vdap_hw::TaskClass::VisionKernel);
        let filler = ComputeWorkload::new("adas-perception", vdap_hw::TaskClass::VisionKernel)
            .with_gflops(rate * busy_secs)
            .with_parallel_fraction(1.0);
        unit.enqueue(SimTime::ZERO, &filler);
    }
}

/// The detection stage list used by the strategy comparison (the AMBER
/// search workload, §IV-C).
#[must_use]
pub fn detection_stages() -> Vec<ComputeWorkload> {
    amber_alert(SimDuration::from_secs(2))
        .pipelines()
        .iter()
        .find(|p| p.label == "all-onboard")
        .expect("amber service has an onboard pipeline")
        .stages
        .iter()
        .map(|s| s.workload.clone())
        .collect()
}

/// One strategy's outcome in the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyOutcome {
    /// Strategy name.
    pub strategy: String,
    /// Accumulated fleet cost.
    pub cost: CostReport,
}

/// E6: prices the three §III architectures on an identical fleet-wide
/// request stream.
#[must_use]
pub fn compare_strategies(config: &ScenarioConfig) -> Vec<StrategyOutcome> {
    let infra = config.infrastructure();
    let strategies: Vec<Box<dyn OffloadStrategy>> = vec![
        Box::new(CloudOnly),
        Box::new(InVehicleOnly),
        Box::new(EdgeBased::default()),
    ];
    let stages = detection_stages();
    let requests = config.requests_per_vehicle();
    strategies
        .into_iter()
        .map(|strategy| {
            let mut fleet_cost = CostReport::default();
            for v in 0..config.vehicles {
                let mut platform = OpenVdap::builder()
                    .seed(config.seed.wrapping_add(v as u64))
                    .build();
                preload_board(&mut platform, config.board_busy_secs);
                let env = infra.env(platform.vcu().board(), SimTime::ZERO);
                let cost = run_strategy(strategy.as_ref(), &stages, &env, requests)
                    .expect("undeadlined strategies always place");
                fleet_cost.absorb(&cost);
            }
            StrategyOutcome {
                strategy: strategy.name().to_string(),
                cost: fleet_cost,
            }
        })
        .collect()
}

/// One sample of the elastic-adaptation timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptSample {
    /// Sample time.
    pub at: SimTime,
    /// Vehicle speed at the sample.
    pub speed_mph: f64,
    /// Selected pipeline label (`None` = hung).
    pub pipeline: Option<String>,
    /// Estimated end-to-end latency of the selection.
    pub latency: Option<SimDuration>,
}

/// E5: drives one vehicle through a speed profile (parked → city →
/// highway → parked) and records which AMBER-search pipeline the elastic
/// manager selects each second.
#[must_use]
pub fn elastic_adaptation_timeline(config: &ScenarioConfig) -> Vec<AdaptSample> {
    struct World {
        platform: OpenVdap,
        handle: crate::platform::ServiceHandle,
        samples: Vec<AdaptSample>,
    }
    let mut platform = OpenVdap::builder().seed(config.seed).build();
    let handle = platform.register_service(amber_alert(SimDuration::from_millis(800)));
    let mut sim = Simulation::new(World {
        platform,
        handle,
        samples: Vec::new(),
    });
    let total_secs = config.duration.as_secs().max(4);
    let phase = total_secs / 4;
    for s in 0..total_secs {
        let speed = match s / phase.max(1) {
            0 => Mph(0.0),
            1 => Mph(35.0),
            2 => Mph(70.0),
            _ => Mph(0.0),
        };
        sim.schedule_at(SimTime::from_secs(s), "adapt-tick", move |ctx| {
            let now = ctx.now();
            let world = ctx.state_mut();
            // While the vehicle moves, its ADAS perception stack keeps the
            // board busy (§I's contention story): the faster the vehicle,
            // the deeper the standing queues the AMBER service competes
            // with. Only the legacy on-board controller stays free for
            // third-party work.
            if speed.0 > 0.0 {
                let horizon = now + SimDuration::from_secs_f64(2.0 * speed.0 / 35.0);
                let slots: Vec<_> = world
                    .platform
                    .vcu()
                    .board()
                    .slots()
                    .iter()
                    .filter(|s| s.unit.spec().name() != "onboard-controller")
                    .map(|s| s.id)
                    .collect();
                for id in slots {
                    let board = world.platform.vcu_mut().board_mut();
                    let unit = board.unit_mut(id).expect("listed slot");
                    if unit.busy_until() < horizon {
                        let gap = horizon - unit.busy_until().max(now);
                        let rate = unit
                            .spec()
                            .throughput_gflops(vdap_hw::TaskClass::VisionKernel);
                        let filler = ComputeWorkload::new(
                            "adas-perception",
                            vdap_hw::TaskClass::VisionKernel,
                        )
                        .with_gflops(rate * gap.as_secs_f64())
                        .with_parallel_fraction(1.0);
                        unit.enqueue(now, &filler);
                    }
                }
            }
            let mut infra = Infrastructure::reference();
            infra.apply_mobility(speed);
            let decision = world
                .platform
                .adapt(world.handle, &infra, now, Objective::MinLatency)
                .expect("registered service");
            let service = world.platform.service(world.handle).expect("registered");
            let pipeline = match service.state() {
                ServiceState::Running => service.selected_pipeline().map(|p| p.label.clone()),
                _ => None,
            };
            world.samples.push(AdaptSample {
                at: now,
                speed_mph: speed.0,
                pipeline,
                latency: decision.selected_estimate().map(|e| e.latency),
            });
        });
    }
    sim.run();
    sim.into_state().samples
}

/// How vehicles share scan results (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollabMode {
    /// No sharing: every vehicle computes every tile.
    Off,
    /// Results relayed through an always-reachable RSU cache.
    RsuRelay,
    /// Direct DSRC gossip: caches merge only while vehicles are within
    /// radio range of each other.
    DsrcGossip,
}

/// Outcome of the collaboration experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollabOutcome {
    /// Scans actually computed.
    pub computations: u64,
    /// Scans served from shared results.
    pub reused: u64,
    /// Compute time saved by reuse.
    pub saved: SimDuration,
    /// Share of lookups that hit.
    pub hit_rate: f64,
}

/// E10: a convoy scans road tiles for a target plate. With `RsuRelay`
/// every fresh result is instantly visible to the fleet; with
/// `DsrcGossip` results spread only through real radio contacts
/// ([`vdap_net::DsrcRadio`] geometry); with `Off` everyone recomputes.
#[must_use]
pub fn collaboration_experiment(config: &ScenarioConfig, mode: CollabMode) -> CollabOutcome {
    let infra = config.infrastructure();
    let scan_stages = detection_stages();
    // Per-scan on-board compute time (priced once; identical vehicles).
    let probe = OpenVdap::builder().seed(config.seed).build();
    let env = infra.env(probe.vcu().board(), SimTime::ZERO);
    let scan_cost = price(
        &vdap_edgeos::Pipeline::new(
            "scan",
            scan_stages
                .iter()
                .map(|w| vdap_edgeos::PipelineStage {
                    workload: w.clone(),
                    site: Site::Vehicle,
                })
                .collect(),
        ),
        &env,
    );

    let n = config.vehicles;
    let freshness = SimDuration::from_secs(120);
    let mut rsu = ResultCache::new(freshness);
    let mut locals: Vec<ResultCache> = (0..n).map(|_| ResultCache::new(freshness)).collect();
    let radio = DsrcRadio::default();
    let speed = config.speed.0.max(1.0);
    let entry_gap = 15u64; // seconds between convoy members
    let total_secs = config.duration.as_secs() + entry_gap * n as u64;
    let mut computations = 0u64;
    let mut reused = 0u64;
    let mut lookups = 0u64;
    let mut scanned_tiles: Vec<i64> = vec![-1; n];

    for sec in 0..total_secs {
        let now = SimTime::from_secs(sec);
        // Positions (miles from corridor start); not yet entered = -1.
        let positions: Vec<f64> = (0..n)
            .map(|v| {
                let entry = v as u64 * entry_gap;
                if sec < entry {
                    -1.0
                } else {
                    speed * (sec - entry) as f64 / 3600.0
                }
            })
            .collect();
        // DSRC gossip pass: merge caches of in-range pairs.
        if mode == CollabMode::DsrcGossip {
            let miles: Vec<Miles> = positions.iter().map(|&p| Miles(p)).collect();
            for (a, b) in radio.contact_pairs(&miles) {
                if positions[a] < 0.0 || positions[b] < 0.0 {
                    continue;
                }
                let snapshot = locals[b].clone();
                locals[a].merge_from(&snapshot);
                let snapshot = locals[a].clone();
                locals[b].merge_from(&snapshot);
            }
        }
        // Each active vehicle scans the tile it just entered.
        for v in 0..n {
            if positions[v] < 0.0 {
                continue;
            }
            let tile = Tile::containing(positions[v]);
            if tile.0 == scanned_tiles[v] {
                continue;
            }
            scanned_tiles[v] = tile.0;
            let key = ResultKey {
                task: "amber-plate-scan".into(),
                tile,
            };
            let hit = match mode {
                CollabMode::Off => false,
                CollabMode::RsuRelay => {
                    lookups += 1;
                    rsu.lookup(&key, now).is_some()
                }
                CollabMode::DsrcGossip => {
                    lookups += 1;
                    locals[v].lookup(&key, now).is_some()
                }
            };
            if hit {
                reused += 1;
                continue;
            }
            computations += 1;
            let result = SharedResult {
                producer: v as u64,
                produced_at: now,
                payload: Vec::new(),
            };
            match mode {
                CollabMode::Off => {}
                CollabMode::RsuRelay => rsu.publish(key, result),
                CollabMode::DsrcGossip => locals[v].publish(key, result),
            }
        }
    }
    CollabOutcome {
        computations,
        reused,
        saved: scan_cost.latency * reused,
        hit_rate: if lookups == 0 {
            0.0
        } else {
            reused as f64 / lookups as f64
        },
    }
}

/// Runs `f` over parameter points in parallel (order-preserving).
///
/// Concurrency is capped at `std::thread::available_parallelism()` by
/// routing through the fleet's persistent work-stealing pool: each
/// worker takes points from its own share and idle workers steal from
/// busy siblings' shares, so an uneven sweep (one slow point) no longer
/// idles every other core — and a 500-point sweep still never spawns
/// 500 OS threads.
pub fn sweep<P, T, F>(points: Vec<P>, f: F) -> Vec<T>
where
    P: Send,
    T: Send,
    F: Fn(P) -> T + Sync,
{
    vdap_fleet::WorkerPool::with_default_size().map(points, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ScenarioConfig {
        ScenarioConfig {
            duration: SimDuration::from_secs(20),
            vehicles: 2,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn strategy_comparison_shapes() {
        let outcomes = compare_strategies(&quick());
        assert_eq!(outcomes.len(), 3);
        let get = |name: &str| outcomes.iter().find(|o| o.strategy == name).unwrap().cost;
        let cloud = get("cloud-only");
        let vehicle = get("in-vehicle");
        let edge = get("edge-based");
        // The paper's core claims: edge wins latency (strictly, on a
        // contended board); the cloud pays at least as much uplink;
        // in-vehicle pays at least as much energy.
        assert!(edge.mean_latency() <= cloud.mean_latency());
        assert!(
            edge.mean_latency() < vehicle.mean_latency(),
            "edge {} vs vehicle {}",
            edge.mean_latency(),
            vehicle.mean_latency()
        );
        assert!(cloud.bytes_up >= edge.bytes_up);
        assert!(vehicle.mean_energy_j() >= edge.mean_energy_j());
    }

    #[test]
    fn adaptation_timeline_reacts_to_speed() {
        let cfg = ScenarioConfig {
            duration: SimDuration::from_secs(40),
            ..quick()
        };
        let samples = elastic_adaptation_timeline(&cfg);
        assert_eq!(samples.len(), 40);
        // Distinct speeds appear, and the pipeline choice is not constant
        // across the whole run.
        let speeds: std::collections::HashSet<u64> =
            samples.iter().map(|s| s.speed_mph as u64).collect();
        assert!(speeds.len() >= 3);
        let pipelines: std::collections::HashSet<&Option<String>> =
            samples.iter().map(|s| &s.pipeline).collect();
        assert!(
            pipelines.len() >= 2,
            "adaptation never changed: {pipelines:?}"
        );
    }

    #[test]
    fn collaboration_saves_compute() {
        let cfg = ScenarioConfig {
            vehicles: 4,
            duration: SimDuration::from_secs(120),
            ..quick()
        };
        let rsu = collaboration_experiment(&cfg, CollabMode::RsuRelay);
        let gossip = collaboration_experiment(&cfg, CollabMode::DsrcGossip);
        let off = collaboration_experiment(&cfg, CollabMode::Off);
        assert!(rsu.computations < off.computations);
        assert_eq!(rsu.reused + rsu.computations, off.computations);
        assert!(rsu.saved > SimDuration::ZERO);
        assert_eq!(off.reused, 0);
        assert!(rsu.hit_rate > 0.5);
        // Gossip helps too, but never more than the always-on relay.
        assert!(gossip.computations < off.computations);
        assert!(gossip.hit_rate <= rsu.hit_rate + 1e-9);
    }

    #[test]
    fn sweep_preserves_order() {
        let out = sweep(vec![1u64, 2, 3, 4], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn sweep_handles_more_points_than_cores() {
        // 500 points used to mean 500 OS threads; the pool caps at
        // available_parallelism and must still preserve order.
        let points: Vec<u64> = (0..500).collect();
        let out = sweep(points.clone(), |x| x + 1);
        assert_eq!(out, points.iter().map(|x| x + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn fleet_builder_carries_scenario_knobs() {
        let cfg = ScenarioConfig {
            seed: 7,
            vehicles: 200,
            edge_load: 2.0,
            ..ScenarioConfig::default()
        };
        let fleet = cfg.fleet();
        assert_eq!(fleet.seed, 7);
        assert_eq!(fleet.vehicles, 200);
        assert_eq!(fleet.duration, cfg.duration);
        assert_eq!(fleet.request_period, cfg.request_period);
        // edge_load doubles every class's base XEdge service time.
        let nominal = vdap_fleet::FleetConfig::default();
        for class in vdap_fleet::WorkloadClass::ALL {
            assert_eq!(
                fleet.class(class).edge_service,
                nominal.class(class).edge_service.mul_f64(2.0),
                "{class}"
            );
        }
        let report = vdap_fleet::FleetEngine::new({
            let mut f = ScenarioConfig {
                vehicles: 32,
                duration: SimDuration::from_secs(4),
                ..ScenarioConfig::default()
            }
            .fleet();
            f.request_period = SimDuration::from_secs(1);
            f
        })
        .run();
        assert!(report.metrics.requests > 0);
    }

    #[test]
    fn detection_stages_nonempty() {
        let stages = detection_stages();
        assert_eq!(stages.len(), 2);
    }
}
