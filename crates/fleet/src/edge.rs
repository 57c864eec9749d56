//! The shared XEdge deployment served at epoch barriers.
//!
//! All cross-vehicle coupling funnels through this single-threaded
//! server: at each barrier the engine hands it the canonical-sorted
//! global batch of requests, and the server applies per-tenant admission
//! control, per-(tenant, class) deficit round-robin fair queueing, a
//! load-dependent service time (the [`ContentionModel`] priced per
//! class), and per-region LTE bandwidth sharing. Because serving
//! consumes only globally-determined data in a canonical order, its
//! outputs are independent of how the fleet was sharded.
//!
//! ## Workload classes
//!
//! Every request carries a [`WorkloadClass`], and every stage of the
//! serving pass reads the class's [`ClassSpec`]: bytes on the wire,
//! work units charged in the fair queue (against a per-class quantum),
//! base service time (each class's queued share contributes its own
//! fraction to the contention load), deadline budget, and what rung 3
//! of the degradation ladder means for it.
//!
//! ## Elastic lane scaling
//!
//! When the config carries a [`vdap_edgeos::LanePolicy`], a
//! [`LaneScaler`] resizes the lane pool and the per-tenant admission
//! caps from the queue depth observed at the *previous* barrier —
//! observe at barrier `k`, actuate at barrier `k + 1`. Decisions are
//! integer functions of (lane count, queue depth), both of which are
//! globally determined, so elasticity composes with the engine's
//! byte-identity across run layouts. Grown lanes join round-robin
//! (`node = index % edge_nodes`, preserving the homing rule); shrinks
//! remove only *idle* tail lanes and never drop a node's last lane, so
//! a busy pool defers its shrink to a later barrier instead of
//! cancelling in-flight work.
//!
//! ## Edge-tier chaos and the degradation ladder
//!
//! The lane pool is partitioned across `edge_nodes` physical XEdge
//! nodes; each region is homed on node `region % edge_nodes`. Fault
//! state ([`vdap_fault::FaultKind::EdgeNodeCrash`],
//! [`vdap_fault::FaultKind::TenantQuotaFlap`],
//! [`vdap_fault::FaultKind::RegionHandoffStorm`]) is sampled only at
//! epoch barriers — the injector is a pure function of time — so chaos
//! lives entirely in this deterministic serving pass.
//!
//! A request hitting a fault walks a graceful-degradation ladder:
//!
//! 1. **Deadline-aware retry** ([`vdap_fault::retry_until_deadline`]):
//!    probe the crashed home node once per epoch until the request's
//!    *class* deadline budget runs out (a pBEAM round can ride out a
//!    crash a pedestrian-alert frame cannot).
//! 2. **Neighbor-region handoff**: re-register through the nearest
//!    region whose home node is healthy, paying the mobility handoff
//!    cost from [`vdap_net::CellularChannel`].
//! 3. **Local degraded execution, per class**: detection re-runs on the
//!    VCU at reduced accuracy, infotainment falls back to a lower-
//!    bitrate on-board decode (both charge degraded-mode seconds to the
//!    tenant), and a pBEAM training round is *skipped* — the vehicle
//!    pays only the re-planning penalty and training converges a round
//!    later.
//!
//! A node that crashes more than [`vdap_edgeos::CrashLoopPolicy`]
//! allows inside its window is declared crash-looping and stays down
//! for the rest of the run.

use std::collections::BTreeMap;

use vdap_edgeos::{
    ClassQueueKey, CrashLoopPolicy, FairQueue, LaneDecision, LaneScaler, TenantAdmission, TenantId,
    WorkloadClass,
};
use vdap_fault::{retry_until_deadline, AttemptOutcome, FaultInjector, RetryPolicy};
use vdap_net::{CellularChannel, Direction, LinkSpec, Mph};
use vdap_obs::SpanOutcome;
use vdap_offload::ContentionModel;
use vdap_sim::{RngStream, SimDuration, SimTime};

use crate::config::{
    edge_node_label, handoff_label, region_label, tenant_label, ClassSpec, FleetConfig,
};
use crate::metrics::RequestOutcome;
use crate::vehicle::{BOARD_W, DEGRADED_BOARD_W, RADIO_W, SPEED_MPH};

/// One vehicle request bound for the shared edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EdgeRequest {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    pub region: u32,
    pub class: WorkloadClass,
    pub arrival: SimTime,
    /// Serving attempts so far (0 = never assigned a lane). Bumped when
    /// a node crash re-queues the request.
    pub attempts: u32,
    /// Mobility handoff debt the vehicle accrued at region crossings
    /// since its last request, charged as extra latency and radio
    /// energy when this request is served (zero with mobility off).
    pub handoff: SimDuration,
}

impl EdgeRequest {
    /// The outcome of a request resolved without a lane: no admit or
    /// lane stamps and no ladder detours besides its requeues.
    fn outcome(&self, kind: SpanOutcome, e2e: SimDuration, energy_j: f64) -> RequestOutcome {
        RequestOutcome {
            vehicle: self.vehicle,
            seq: self.seq,
            tenant: self.tenant,
            region: self.region,
            class: self.class,
            kind,
            generated: self.arrival,
            admitted: None,
            serve_start: None,
            e2e,
            energy_j,
            cost: SimDuration::ZERO,
            retries: 0,
            requeues: self.attempts,
            handoff: false,
        }
    }
}

/// A request occupying an XEdge lane, with the vehicle-side accounting
/// and lifecycle stamps its outcome is built from once it completes.
#[derive(Debug, Clone)]
pub(crate) struct ServedRequest {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    pub region: u32,
    pub class: WorkloadClass,
    /// Work units charged in the fair queue (the tenant ledger entry).
    pub work: u64,
    pub arrival: SimTime,
    /// The barrier whose serving pass placed the request (admit stamp).
    pub admitted: SimTime,
    /// When the request began occupying a lane (or the reconstructed
    /// start of a successful rung-1 retry).
    pub serve_start: SimTime,
    pub e2e: SimDuration,
    pub energy_j: f64,
    /// Rung-1 retry probes spent before this request was served.
    pub retries: u32,
    /// Times the request was re-queued off a crashed lane.
    pub requeues: u32,
    /// Whether rung 2 served it through a neighbor region's node.
    pub handoff: bool,
}

impl ServedRequest {
    /// The completed request's outcome.
    pub fn outcome(&self) -> RequestOutcome {
        RequestOutcome {
            vehicle: self.vehicle,
            seq: self.seq,
            tenant: self.tenant,
            region: self.region,
            class: self.class,
            kind: SpanOutcome::EdgeServed,
            generated: self.arrival,
            admitted: Some(self.admitted),
            serve_start: Some(self.serve_start),
            e2e: self.e2e,
            energy_j: self.energy_j,
            cost: SimDuration::ZERO,
            retries: self.retries,
            requeues: self.requeues,
            handoff: self.handoff,
        }
    }
}

/// What one barrier's serving pass produced.
#[derive(Debug, Default)]
pub(crate) struct EpochOutcome {
    pub served: Vec<ServedRequest>,
    /// Requests bounced at the admission gate under nominal quotas.
    pub rejected: Vec<RequestOutcome>,
    /// Requests that fell to the bottom ladder rung: local fallbacks and
    /// skipped pBEAM rounds.
    pub local_fallbacks: Vec<RequestOutcome>,
    pub queue_depth: usize,
    /// Lane-pool size after this barrier's elastic step.
    pub lanes: u32,
    /// Whether the elastic step grew the pool at this barrier.
    pub scaled_up: bool,
    /// Whether the elastic step shrank the pool at this barrier.
    pub scaled_down: bool,
    /// In-flight requests re-queued off crashed lanes this barrier.
    pub requeued: u64,
    /// Retry attempts spent on ladder rung 1.
    pub retry_attempts: u64,
    /// Requests rescued by rung-1 retry (sub-count of `served`).
    pub retry_rescued: u64,
    /// Rung-1 retries that exhausted their deadline budget.
    pub retry_exhausted: u64,
    /// Requests served through a neighbor region's node (rung 2,
    /// sub-count of `served`).
    pub handoffs: u64,
}

/// One lane of one physical XEdge node.
#[derive(Debug, Clone)]
struct Lane {
    node: u32,
    free: SimTime,
}

/// A request occupying a lane until `finish`.
#[derive(Debug, Clone)]
struct InFlight {
    finish: SimTime,
    node: u32,
    served: ServedRequest,
    req: EdgeRequest,
}

/// The shared multi-tenant XEdge deployment.
#[derive(Debug)]
pub(crate) struct XEdgeServer {
    /// Lanes persist across epochs so backlog carries over; lane `i`
    /// belongs to node `i % edge_nodes` (grown lanes keep the rule by
    /// joining round-robin).
    lanes: Vec<Lane>,
    /// Requests currently occupying lanes, completion-pending.
    in_flight: Vec<InFlight>,
    /// Requests stripped off crashed lanes, awaiting the next pass.
    requeued: Vec<EdgeRequest>,
    /// Whether each node was down at the previous barrier.
    node_down: Vec<bool>,
    /// Barrier instants at which each node crashed (windowed).
    crash_history: Vec<Vec<SimTime>>,
    /// Nodes declared crash-looping: down for the rest of the run.
    crash_looped: Vec<bool>,
    crash_policy: CrashLoopPolicy,
    contention: ContentionModel,
    admission: TenantAdmission,
    /// Per-region admission gates, `Some` iff geo-mobility is on: a
    /// request admits through its *current* region's gate and crossings
    /// re-register the vehicle's tenant at the destination, so rush-hour
    /// convergence on downtown regions produces organic admission
    /// pressure with zero injected faults. `None` keeps the single
    /// global gate and byte-identical legacy behavior.
    region_admission: Option<Vec<TenantAdmission>>,
    lte: LinkSpec,
    /// Per-handoff connectivity gap at fleet cruising speed.
    handoff_cost: SimDuration,
    epoch: SimDuration,
    /// Per-class cost models, indexed by [`WorkloadClass::index`].
    classes: [ClassSpec; 3],
    /// Pre-built (flow key, quantum) table applied to each epoch's
    /// fair queue (only classes with a non-zero weight serve).
    class_quanta: Vec<(ClassQueueKey, u64)>,
    /// Elastic lane controller; `None` keeps the pool statically sized.
    scaler: Option<LaneScaler>,
    /// Queue depth observed at the previous barrier (the elastic
    /// controller's input — observe at `k`, actuate at `k + 1`).
    last_depth: usize,
    nominal_lanes: u32,
    edge_nodes: u32,
    regions: u32,
    tenants: u32,
    nominal_cap: usize,
    failover_penalty: SimDuration,
    /// Cached fault-target labels, indexed by id.
    node_labels: Vec<String>,
    region_labels: Vec<String>,
    handoff_labels: Vec<String>,
    tenant_labels: Vec<String>,
}

impl XEdgeServer {
    pub fn new(cfg: &FleetConfig) -> Self {
        let nodes = cfg.edge_nodes.max(1);
        let capacity = cfg.edge_capacity.max(1);
        let lanes = (0..capacity)
            .map(|i| Lane {
                node: i % nodes,
                free: SimTime::ZERO,
            })
            .collect();
        let mut class_quanta = Vec::new();
        for t in 0..cfg.tenants {
            for class in WorkloadClass::ALL {
                let spec = cfg.class(class);
                if spec.weight > 0 && spec.drr_quantum > 0 {
                    class_quanta.push((
                        ClassQueueKey::new(TenantId::new(t), class),
                        spec.drr_quantum,
                    ));
                }
            }
        }
        XEdgeServer {
            lanes,
            in_flight: Vec::new(),
            requeued: Vec::new(),
            node_down: vec![false; nodes as usize],
            crash_history: vec![Vec::new(); nodes as usize],
            crash_looped: vec![false; nodes as usize],
            crash_policy: CrashLoopPolicy::new(SimDuration::from_secs(30), 3),
            contention: ContentionModel::new(capacity),
            admission: TenantAdmission::new(cfg.tenant_queue_cap),
            region_admission: cfg.mobility.as_ref().map(|_| {
                let mut gates: Vec<TenantAdmission> = (0..cfg.regions)
                    .map(|_| TenantAdmission::new(cfg.tenant_queue_cap))
                    .collect();
                for id in 0..cfg.vehicles {
                    gates[cfg.region_of(id) as usize].register(TenantId::new(cfg.tenant_of(id)));
                }
                gates
            }),
            lte: LinkSpec::lte(),
            handoff_cost: CellularChannel::calibrated().handoff_cost(Mph(SPEED_MPH)),
            epoch: cfg.epoch,
            classes: cfg.classes.clone(),
            class_quanta,
            scaler: cfg.elastic.map(LaneScaler::new),
            last_depth: 0,
            nominal_lanes: capacity,
            edge_nodes: nodes,
            regions: cfg.regions,
            tenants: cfg.tenants,
            nominal_cap: cfg.tenant_queue_cap,
            failover_penalty: cfg.failover_penalty,
            node_labels: (0..nodes).map(edge_node_label).collect(),
            region_labels: (0..cfg.regions).map(region_label).collect(),
            handoff_labels: (0..cfg.regions).map(handoff_label).collect(),
            tenant_labels: (0..cfg.tenants).map(tenant_label).collect(),
        }
    }

    /// Requests offered to the admission gate(s) so far.
    pub fn offered(&self) -> u64 {
        match &self.region_admission {
            Some(gates) => gates.iter().map(|g| g.admitted() + g.rejected()).sum(),
            None => self.admission.admitted() + self.admission.rejected(),
        }
    }

    /// Requests rejected by the admission gate(s) so far.
    pub fn rejected(&self) -> u64 {
        match &self.region_admission {
            Some(gates) => gates.iter().map(TenantAdmission::rejected).sum(),
            None => self.admission.rejected(),
        }
    }

    /// Re-registers a migrating vehicle's tenant: deregistered at the
    /// source region's gate, registered at the destination's. No-op
    /// with mobility off.
    pub fn reregister(&mut self, tenant: u32, from: u32, to: u32) {
        if let Some(gates) = &mut self.region_admission {
            let t = TenantId::new(tenant);
            gates[from as usize].deregister(t);
            gates[to as usize].register(t);
        }
    }

    /// The per-region admission table for the run report: one
    /// [`RegionAdmission`] per region (`None` with mobility off).
    pub fn region_admission_table(&self) -> Option<Vec<crate::metrics::RegionAdmission>> {
        let gates = self.region_admission.as_ref()?;
        Some(
            gates
                .iter()
                .map(|gate| crate::metrics::RegionAdmission {
                    registered: gate.registered_total(),
                    offered: gate.admitted() + gate.rejected(),
                    rejected: gate.rejected(),
                })
                .collect(),
        )
    }

    /// The physical node serving `region`'s traffic.
    fn home_node(&self, region: u32) -> u32 {
        region % self.edge_nodes
    }

    /// Whether `node` is unusable at `barrier` (crashed or looping).
    fn node_unavailable(
        &self,
        injector: Option<&FaultInjector>,
        node: u32,
        barrier: SimTime,
    ) -> bool {
        self.crash_looped[node as usize]
            || injector.is_some_and(|inj| inj.is_down(&self.node_labels[node as usize], barrier))
    }

    /// The per-vehicle share of a region's LTE cell given the average
    /// uplink concurrency (in transfer-seconds) this epoch's batch
    /// implies for the region.
    fn region_link(&self, uplink_secs: f64) -> LinkSpec {
        let concurrency = (uplink_secs / self.epoch.as_secs_f64()).ceil();
        self.lte.shared_among(concurrency.max(1.0) as u32)
    }

    /// Earliest-free lane of `node` (lowest index breaks ties).
    fn best_lane(&self, node: u32) -> usize {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.node == node)
            .min_by_key(|(i, l)| (l.free, *i))
            .map(|(i, _)| i)
            .expect("every node owns at least one lane")
    }

    /// Runs the elastic step at `barrier`: one [`LaneScaler`] decision
    /// from the previous barrier's queue depth, applied to the lane
    /// pool, the contention capacity, and the per-tenant admission cap.
    /// Records what happened into `outcome`.
    fn scale_capacity(&mut self, barrier: SimTime, outcome: &mut EpochOutcome) {
        let Some(mut scaler) = self.scaler.take() else {
            return;
        };
        let decision = scaler.decide(self.lanes.len() as u32, self.last_depth);
        // Never drop below one lane per node: the homing rule (and
        // `best_lane`) requires every node to keep a lane.
        let target = decision.lanes().max(self.edge_nodes) as usize;
        match decision {
            LaneDecision::Grow(_) => {
                while self.lanes.len() < target {
                    let node = (self.lanes.len() as u32) % self.edge_nodes;
                    self.lanes.push(Lane {
                        node,
                        free: barrier,
                    });
                }
                outcome.scaled_up = true;
            }
            LaneDecision::Shrink(_) => {
                // Remove idle tail lanes only; a busy tail defers the
                // shrink to a later barrier rather than cancelling
                // in-flight work.
                let mut removed = false;
                while self.lanes.len() > target
                    && self.lanes.last().is_some_and(|l| l.free <= barrier)
                {
                    self.lanes.pop();
                    removed = true;
                }
                outcome.scaled_down = removed;
            }
            LaneDecision::Hold(_) => {}
        }
        let lanes = self.lanes.len() as u32;
        self.contention = self.contention.resized(lanes);
        let cap = scaler.tenant_cap(self.nominal_cap, self.nominal_lanes, lanes);
        self.admission.set_queue_cap(cap);
        if let Some(gates) = &mut self.region_admission {
            for gate in gates {
                gate.set_queue_cap(cap);
            }
        }
        self.scaler = Some(scaler);
    }

    /// Refreshes node health at `barrier`: detects up→down edges,
    /// strips in-flight work off crashed lanes into the requeue buffer,
    /// and applies the crash-loop policy.
    fn refresh_nodes(&mut self, injector: Option<&FaultInjector>, barrier: SimTime) -> u64 {
        let mut requeued = 0u64;
        for node in 0..self.edge_nodes {
            let idx = node as usize;
            let down = self.node_unavailable(injector, node, barrier);
            if down && !self.node_down[idx] {
                // Fresh crash at this barrier: in-flight work on the
                // node's lanes is lost and must be re-queued; the lane
                // pool restarts cold on recovery.
                let mut kept = Vec::with_capacity(self.in_flight.len());
                for inf in self.in_flight.drain(..) {
                    if inf.node == node && inf.finish > barrier {
                        let mut req = inf.req;
                        req.attempts += 1;
                        requeued += 1;
                        self.requeued.push(req);
                    } else {
                        kept.push(inf);
                    }
                }
                self.in_flight = kept;
                for lane in self.lanes.iter_mut().filter(|l| l.node == node) {
                    lane.free = barrier;
                }
                if !self.crash_looped[idx] {
                    let (_, looping) = self
                        .crash_policy
                        .observe(&mut self.crash_history[idx], barrier);
                    if looping {
                        self.crash_looped[idx] = true;
                    }
                }
            }
            self.node_down[idx] = down;
        }
        requeued
    }

    /// Pops completions (`finish <= barrier`) into `outcome.served`.
    /// The list is filtered in place, so its buffer — megabytes under a
    /// backlog — is reused across barriers instead of re-grown.
    fn emit_completions(&mut self, barrier: SimTime, outcome: &mut EpochOutcome) {
        outcome.served.extend(
            self.in_flight
                .extract_if(.., |inf| inf.finish <= barrier)
                .map(|inf| inf.served),
        );
    }

    /// Syncs per-tenant admission caps with the quota-flap state at
    /// `barrier`: an active flap shrinks the cap to
    /// `max(1, floor(current × factor))` of the (possibly elastically
    /// scaled) base cap.
    fn refresh_quotas(&mut self, injector: Option<&FaultInjector>, barrier: SimTime) {
        let Some(inj) = injector else { return };
        let base_cap = self.admission.queue_cap();
        for t in 0..self.tenants {
            let factor = inj.quota_factor(&self.tenant_labels[t as usize], barrier);
            let tenant = TenantId::new(t);
            let flap_cap =
                (factor < 1.0).then(|| ((base_cap as f64 * factor).floor() as usize).max(1));
            // The global gate mirrors the override even under mobility
            // so `tenant_flapped` has one place to look.
            match flap_cap {
                Some(cap) => self.admission.set_cap_override(tenant, cap),
                None => self.admission.clear_cap_override(tenant),
            }
            if let Some(gates) = &mut self.region_admission {
                for gate in gates.iter_mut() {
                    match flap_cap {
                        Some(cap) => gate.set_cap_override(tenant, cap),
                        None => gate.clear_cap_override(tenant),
                    }
                }
            }
        }
    }

    /// Whether `tenant`'s quota is currently flapped (a cap override is
    /// in force — the elastic base cap is not a flap).
    fn tenant_flapped(&self, tenant: u32) -> bool {
        let t = TenantId::new(tenant);
        self.admission.effective_cap(t) != self.admission.queue_cap()
    }

    /// Rung 3, per class: degraded on-VCU execution for detection, a
    /// lower-bitrate local decode for infotainment, a *skipped round*
    /// for pBEAM training (only the re-planning penalty is paid; no
    /// degraded seconds accrue, the round just doesn't happen).
    /// `decided` is the barrier (or run horizon) at which the ladder
    /// resolved the request.
    fn local_fallback(&self, req: &EdgeRequest, decided: SimTime, retries: u32) -> RequestOutcome {
        let spec = &self.classes[req.class.index()];
        let (kind, e2e, energy_j, degraded) = match req.class {
            WorkloadClass::PbeamTraining => (
                SpanOutcome::Skipped,
                self.failover_penalty,
                0.0,
                SimDuration::ZERO,
            ),
            _ => {
                let service = spec.vehicle_service.mul_f64(spec.degraded_service_factor);
                (
                    SpanOutcome::LocalFallback,
                    self.failover_penalty + service,
                    service.as_secs_f64() * DEGRADED_BOARD_W,
                    service,
                )
            }
        };
        RequestOutcome {
            admitted: Some(decided),
            cost: degraded,
            retries,
            ..req.outcome(
                kind,
                e2e + req.handoff,
                energy_j + req.handoff.as_secs_f64() * RADIO_W,
            )
        }
    }

    /// Rung 1: probe the crashed home node once per epoch under the
    /// request's remaining *class* deadline budget. Returns the rescued
    /// [`ServedRequest`] and the attempt count, or the attempts spent
    /// when the budget ran dry.
    #[allow(clippy::too_many_arguments)]
    fn retry_rescue(
        &self,
        injector: &FaultInjector,
        req: &EdgeRequest,
        node: u32,
        barrier: SimTime,
        up: SimDuration,
        down: SimDuration,
        service: SimDuration,
        rng: &mut RngStream,
    ) -> Result<(ServedRequest, u32), u32> {
        let spec = &self.classes[req.class.index()];
        let elapsed = barrier.duration_since(req.arrival);
        if elapsed >= spec.deadline {
            return Err(0);
        }
        let budget = spec.deadline - elapsed;
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: self.epoch,
            backoff_factor: 1.0,
            jitter: 0.0,
            attempt_timeout: None,
        };
        let label = &self.node_labels[node as usize];
        let report = retry_until_deadline(&policy, barrier, budget, rng, |_, at| {
            if self.crash_looped[node as usize] || injector.is_down(label, at) {
                // The probe burns an epoch discovering the node is
                // still gone.
                AttemptOutcome::Failure(self.epoch)
            } else {
                AttemptOutcome::Success(up + service + down)
            }
        });
        if report.succeeded() {
            let e2e = report.finished_at.duration_since(req.arrival) + req.handoff;
            let energy_j =
                (up.as_secs_f64() + down.as_secs_f64() + req.handoff.as_secs_f64()) * RADIO_W;
            Ok((
                ServedRequest {
                    vehicle: req.vehicle,
                    seq: req.seq,
                    tenant: req.tenant,
                    region: req.region,
                    class: req.class,
                    work: spec.work_units,
                    arrival: req.arrival,
                    admitted: barrier,
                    // The successful probe finished at `finished_at`;
                    // service began one downlink + service time before.
                    serve_start: report.finished_at - (service + down),
                    e2e,
                    energy_j,
                    retries: report.attempts,
                    requeues: req.attempts,
                    handoff: false,
                },
                report.attempts,
            ))
        } else {
            Err(report.attempts)
        }
    }

    /// Rung 2: the nearest region whose home node is healthy and whose
    /// cell is neither storming nor in LTE outage at `barrier`.
    fn failover_region(
        &self,
        injector: Option<&FaultInjector>,
        region: u32,
        barrier: SimTime,
    ) -> Option<u32> {
        // With mobility on, storms price crossings instead of gating
        // the serving path (see `serve_epoch`).
        let storms_gate_serving = self.region_admission.is_none();
        (1..self.regions)
            .map(|d| (region + d) % self.regions)
            .find(|&nr| {
                let node = self.home_node(nr);
                !self.node_unavailable(injector, node, barrier)
                    && !injector.is_some_and(|inj| {
                        (storms_gate_serving
                            && inj.handoff_storm(&self.handoff_labels[nr as usize], barrier))
                            || inj.is_down(&self.region_labels[nr as usize], barrier)
                    })
            })
    }

    /// Assigns `req` to the earliest-free lane of `node`; the request
    /// occupies the lane until `finish` and completes at a later
    /// barrier. `extra_latency` is added to the end-to-end latency
    /// (handoff cost on rung 2). `barrier` stamps the span's admit
    /// time; `retries`/`handoff` record the ladder detours taken before
    /// the lane was found.
    #[allow(clippy::too_many_arguments)]
    fn assign_lane(
        &mut self,
        req: EdgeRequest,
        node: u32,
        up: SimDuration,
        down: SimDuration,
        service: SimDuration,
        extra_latency: SimDuration,
        extra_energy: f64,
        barrier: SimTime,
        retries: u32,
        handoff: bool,
    ) {
        let ready = req.arrival + up + extra_latency;
        let lane = self.best_lane(node);
        let free = self.lanes[lane].free;
        let start = if ready > free { ready } else { free };
        let finish = start + service;
        self.lanes[lane].free = finish;
        let e2e = finish.duration_since(req.arrival) + down;
        let energy_j = (up.as_secs_f64() + down.as_secs_f64()) * RADIO_W + extra_energy;
        let work = self.classes[req.class.index()].work_units;
        self.in_flight.push(InFlight {
            finish,
            node,
            served: ServedRequest {
                vehicle: req.vehicle,
                seq: req.seq,
                tenant: req.tenant,
                region: req.region,
                class: req.class,
                work,
                arrival: req.arrival,
                admitted: barrier,
                serve_start: start,
                e2e,
                energy_j,
                retries,
                requeues: req.attempts,
                handoff,
            },
            req,
        });
    }

    /// Serves one barrier's batch. The engine passes requests from all
    /// vehicle batches; this method sorts them canonically, so input
    /// order cannot influence the outcome. `barrier` is the global
    /// epoch-boundary instant — the only time at which fault state and
    /// elastic decisions are sampled — and `rng` is the engine-owned
    /// ladder stream, consumed in canonical order.
    pub fn serve_epoch(
        &mut self,
        mut batch: Vec<EdgeRequest>,
        barrier: SimTime,
        injector: Option<&FaultInjector>,
        rng: &mut RngStream,
    ) -> EpochOutcome {
        batch.sort_unstable_by_key(|r| (r.arrival, r.vehicle, r.seq));

        let mut outcome = EpochOutcome {
            requeued: self.refresh_nodes(injector, barrier),
            ..EpochOutcome::default()
        };
        self.emit_completions(barrier, &mut outcome);
        self.scale_capacity(barrier, &mut outcome);
        self.refresh_quotas(injector, barrier);

        // Per-region LTE sharing from this batch's uplink demand
        // (class-sized: a pBEAM gradient weighs more than a detection
        // frame). Summed in canonical batch order.
        let mut region_secs: BTreeMap<u32, f64> = BTreeMap::new();
        for r in &batch {
            let bytes = self.classes[r.class.index()].upload_bytes;
            let t = self.lte.transfer_time(Direction::Uplink, bytes);
            *region_secs.entry(r.region).or_insert(0.0) += t.as_secs_f64();
        }
        let region_links: BTreeMap<u32, LinkSpec> = region_secs
            .iter()
            .map(|(&r, &secs)| (r, self.region_link(secs)))
            .collect();
        let unshared = self.lte.clone();
        let link_for = move |region: u32| -> LinkSpec {
            region_links
                .get(&region)
                .cloned()
                .unwrap_or_else(|| unshared.clone())
        };

        // Admission (arrival order), then per-(tenant, class) DRR fair
        // queueing with class-sized quanta. Requests re-queued off
        // crashed lanes were admitted in an earlier epoch and re-enter
        // the queue without a second admission charge.
        let mut queue: FairQueue<EdgeRequest, ClassQueueKey> =
            FairQueue::new(self.classes[0].drr_quantum.max(1));
        for &(key, quantum) in &self.class_quanta {
            queue.set_quantum(key, quantum);
        }
        let mut queued_by_class = [0u64; 3];
        let mut admitted: Vec<(u32, TenantId)> = Vec::new();
        for req in std::mem::take(&mut self.requeued) {
            let spec = &self.classes[req.class.index()];
            if barrier.duration_since(req.arrival) >= spec.deadline {
                // Too stale to re-serve: straight to the bottom rung.
                outcome
                    .local_fallbacks
                    .push(self.local_fallback(&req, barrier, 0));
            } else {
                let key = ClassQueueKey::new(TenantId::new(req.tenant), req.class);
                queued_by_class[req.class.index()] += 1;
                queue.enqueue(key, spec.work_units, req);
            }
        }
        for req in batch {
            let tenant = TenantId::new(req.tenant);
            // With mobility on, the request admits through its current
            // region's gate — crossings concentrate vehicles, so the
            // destination gate feels the pressure.
            let admit = match &mut self.region_admission {
                Some(gates) => gates[req.region as usize].try_admit(tenant),
                None => self.admission.try_admit(tenant),
            };
            if admit {
                admitted.push((req.region, tenant));
                let spec = &self.classes[req.class.index()];
                queued_by_class[req.class.index()] += 1;
                queue.enqueue(ClassQueueKey::new(tenant, req.class), spec.work_units, req);
            } else if self.tenant_flapped(req.tenant) {
                // Quota flap: a fault, not load — bounced into the
                // degradation ladder's bottom rung.
                outcome
                    .local_fallbacks
                    .push(self.local_fallback(&req, barrier, 0));
            } else {
                // The vehicle pays its crossing handoff debt and the
                // wasted uplink discovering the bounce, then the class's
                // full on-board fallback.
                let spec = &self.classes[req.class.index()];
                let uplink = link_for(req.region)
                    .transfer_time(Direction::Uplink, spec.upload_bytes)
                    + req.handoff;
                outcome.rejected.push(req.outcome(
                    SpanOutcome::Rejected,
                    uplink + self.failover_penalty + spec.vehicle_service,
                    uplink.as_secs_f64() * RADIO_W + spec.vehicle_service.as_secs_f64() * BOARD_W,
                ));
            }
        }
        outcome.queue_depth = queue.len();
        self.last_depth = outcome.queue_depth;
        // Every in-flight push below pops from `queue`. The list
        // outlives the barrier, so an amortized doubling would leave up
        // to half its buffer never written, and whether those pages end
        // up resident depends on where later allocations land.
        self.in_flight.reserve_exact(queue.len());

        // Load-dependent service time: each class's queued share
        // contributes its own fractional concurrency
        // (`depth × service / epoch`), the shares sum into one load
        // figure, and the resulting multiplier stretches every class's
        // base service time.
        let implied: f64 = WorkloadClass::ALL
            .iter()
            .map(|c| {
                queued_by_class[c.index()] as f64
                    * self.classes[c.index()].edge_service.as_secs_f64()
            })
            .sum::<f64>()
            / self.epoch.as_secs_f64();
        let multiplier = self.contention.service_multiplier_f64(implied);
        let service_by_class: [SimDuration; 3] = [
            self.classes[0].edge_service.mul_f64(multiplier),
            self.classes[1].edge_service.mul_f64(multiplier),
            self.classes[2].edge_service.mul_f64(multiplier),
        ];

        // Serve in DRR order on the home node's earliest-free lane,
        // walking the degradation ladder when the home path is faulted.
        while let Some((_, req)) = queue.pop() {
            let ci = req.class.index();
            let link = link_for(req.region);
            let up = link.transfer_time(Direction::Uplink, self.classes[ci].upload_bytes);
            let down = link.transfer_time(Direction::Downlink, self.classes[ci].download_bytes);
            let service = service_by_class[ci];
            let home = self.home_node(req.region);
            let home_down = self.node_unavailable(injector, home, barrier);
            // With mobility on, a handoff storm prices the vehicle's
            // *crossings* (the engine's mobility pass multiplies the
            // handoff cost) instead of rerouting the serving path —
            // one accounting path, no double-counted handoff seconds.
            let storming = self.region_admission.is_none()
                && injector.is_some_and(|inj| {
                    inj.handoff_storm(&self.handoff_labels[req.region as usize], barrier)
                });

            if !home_down && !storming {
                let debt = req.handoff;
                let debt_energy = debt.as_secs_f64() * RADIO_W;
                self.assign_lane(
                    req,
                    home,
                    up,
                    down,
                    service,
                    debt,
                    debt_energy,
                    barrier,
                    0,
                    false,
                );
                continue;
            }

            // Rung 1 — deadline-aware retry (crashed home node only;
            // waiting out a handoff storm has unbounded cost).
            let mut retries_spent = 0u32;
            if home_down {
                if let Some(inj) = injector {
                    match self.retry_rescue(inj, &req, home, barrier, up, down, service, rng) {
                        Ok((served, attempts)) => {
                            outcome.retry_attempts += u64::from(attempts);
                            outcome.retry_rescued += 1;
                            outcome.served.push(served);
                            continue;
                        }
                        Err(attempts) => {
                            outcome.retry_attempts += u64::from(attempts);
                            outcome.retry_exhausted += 1;
                            retries_spent = attempts;
                        }
                    }
                }
            }

            // Rung 2 — hand off to the nearest healthy region's node.
            if let Some(neighbor) = self.failover_region(injector, req.region, barrier) {
                let node = self.home_node(neighbor);
                let handoff = self.handoff_cost + req.handoff;
                let handoff_energy = handoff.as_secs_f64() * RADIO_W;
                self.assign_lane(
                    req,
                    node,
                    up,
                    down,
                    service,
                    handoff,
                    handoff_energy,
                    barrier,
                    retries_spent,
                    true,
                );
                outcome.handoffs += 1;
                continue;
            }

            // Rung 3 — class-specific local fallback.
            outcome
                .local_fallbacks
                .push(self.local_fallback(&req, barrier, retries_spent));
        }

        // Served requests leave the admission gate before the next epoch.
        for (region, tenant) in admitted {
            match &mut self.region_admission {
                Some(gates) => gates[region as usize].release(tenant),
                None => self.admission.release(tenant),
            }
        }
        outcome.lanes = self.lanes.len() as u32;
        outcome
    }

    /// Drains everything still pending at the end of the run: in-flight
    /// work completes past the horizon (its latency is already fixed),
    /// and requests stranded in the requeue buffer take the class-
    /// specific local fallback, decided at `horizon`.
    pub fn flush(&mut self, horizon: SimTime) -> EpochOutcome {
        let mut outcome = EpochOutcome {
            lanes: self.lanes.len() as u32,
            served: self.in_flight.drain(..).map(|inf| inf.served).collect(),
            ..EpochOutcome::default()
        };
        for req in std::mem::take(&mut self.requeued) {
            outcome
                .local_fallbacks
                .push(self.local_fallback(&req, horizon, 0));
        }
        outcome
    }
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{dur_field, enc_opt, time_field, val_array, val_bool, val_u64_hex};
use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{get, get_array, get_bool, get_f64_bits, get_u32, get_u64_hex, CkptError};

/// Decodes a workload class stored as its dense `ALL` index.
fn class_field(v: &Value, key: &str) -> Result<WorkloadClass, CkptError> {
    let idx = get_u32(v, key)? as usize;
    WorkloadClass::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| CkptError::new(format!("workload class index {idx} out of range")))
}

fn enc_req(w: &mut JsonWriter, r: &EdgeRequest) {
    w.begin_object();
    w.key("arrival").hex(r.arrival.as_nanos());
    w.key("attempts").u32(r.attempts);
    w.key("class").u64(r.class.index() as u64);
    w.key("handoff").hex(r.handoff.as_nanos());
    w.key("region").u32(r.region);
    w.key("seq").u32(r.seq);
    w.key("tenant").u32(r.tenant);
    w.key("vehicle").u32(r.vehicle);
    w.end_object();
}

fn dec_req(v: &Value) -> Result<EdgeRequest, CkptError> {
    Ok(EdgeRequest {
        vehicle: get_u32(v, "vehicle")?,
        seq: get_u32(v, "seq")?,
        tenant: get_u32(v, "tenant")?,
        region: get_u32(v, "region")?,
        class: class_field(v, "class")?,
        arrival: time_field(v, "arrival")?,
        attempts: get_u32(v, "attempts")?,
        handoff: dur_field(v, "handoff")?,
    })
}

fn enc_served(w: &mut JsonWriter, s: &ServedRequest) {
    w.begin_object();
    w.key("admitted").hex(s.admitted.as_nanos());
    w.key("arrival").hex(s.arrival.as_nanos());
    w.key("class").u64(s.class.index() as u64);
    w.key("e2e").hex(s.e2e.as_nanos());
    w.key("energy_j").hex(s.energy_j.to_bits());
    w.key("handoff").bool(s.handoff);
    w.key("region").u32(s.region);
    w.key("requeues").u32(s.requeues);
    w.key("retries").u32(s.retries);
    w.key("seq").u32(s.seq);
    w.key("serve_start").hex(s.serve_start.as_nanos());
    w.key("tenant").u32(s.tenant);
    w.key("vehicle").u32(s.vehicle);
    w.key("work").hex(s.work);
    w.end_object();
}

fn dec_served(v: &Value) -> Result<ServedRequest, CkptError> {
    Ok(ServedRequest {
        vehicle: get_u32(v, "vehicle")?,
        seq: get_u32(v, "seq")?,
        tenant: get_u32(v, "tenant")?,
        region: get_u32(v, "region")?,
        class: class_field(v, "class")?,
        work: get_u64_hex(v, "work")?,
        arrival: time_field(v, "arrival")?,
        admitted: time_field(v, "admitted")?,
        serve_start: time_field(v, "serve_start")?,
        e2e: dur_field(v, "e2e")?,
        energy_j: get_f64_bits(v, "energy_j")?,
        retries: get_u32(v, "retries")?,
        requeues: get_u32(v, "requeues")?,
        handoff: get_bool(v, "handoff")?,
    })
}

/// Refuses an in-flight entry that no serving pass could have placed.
fn check_in_flight(cfg: &FleetConfig, nodes: u32, f: &InFlight) -> Result<(), CkptError> {
    let (r, s) = (&f.req, &f.served);
    let problem = if f.node >= nodes {
        format!("sits on node {}", f.node)
    } else if (s.vehicle, s.seq, s.tenant, s.region, s.class, s.arrival)
        != (r.vehicle, r.seq, r.tenant, r.region, r.class, r.arrival)
    {
        "serves another request than it holds".to_string()
    } else if r.vehicle >= cfg.vehicles {
        "names no vehicle of the fleet".to_string()
    } else if r.tenant != cfg.tenant_of(r.vehicle) {
        format!("names tenant {}, not its vehicle's", r.tenant)
    } else if r.region >= cfg.regions {
        format!("names region {}", r.region)
    } else {
        return Ok(());
    };
    Err(CkptError::new(format!(
        "in-flight request (vehicle {}, seq {}) {problem}",
        r.vehicle, r.seq
    )))
}

/// Writes `(tenant, count)` pairs as `[tenant, "hex count"]`.
fn enc_pairs(w: &mut JsonWriter, entries: impl IntoIterator<Item = (u32, u64)>) {
    w.begin_array();
    for (t, n) in entries {
        w.begin_array().u32(t).hex(n).end_array();
    }
    w.end_array();
}

fn enc_admission(w: &mut JsonWriter, a: &TenantAdmission) {
    let s = a.state();
    w.begin_object();
    w.key("admitted").hex(s.admitted);
    w.key("cap_overrides");
    enc_pairs(w, s.cap_overrides.iter().map(|&(t, c)| (t, c as u64)));
    w.key("depth");
    enc_pairs(w, s.depth.iter().map(|&(t, d)| (t, d as u64)));
    w.key("queue_cap").hex(s.queue_cap as u64);
    w.key("registrations");
    enc_pairs(w, s.registrations.iter().map(|&(t, n)| (t, u64::from(n))));
    w.key("rejected").hex(s.rejected);
    w.key("rejected_by_tenant");
    enc_pairs(w, s.rejected_by_tenant.iter().copied());
    w.end_object();
}

fn dec_admission(v: &Value) -> Result<TenantAdmission, CkptError> {
    let pairs = |key: &str| -> Result<Vec<(u32, u64)>, CkptError> {
        let mut out = Vec::new();
        for p in get_array(v, key)? {
            let (t, n) = crate::ckpt::val_pair(p)?;
            out.push((crate::ckpt::val_u32(t)?, val_u64_hex(n)?));
        }
        Ok(out)
    };
    Ok(TenantAdmission::from_state(vdap_edgeos::AdmissionState {
        queue_cap: get_u64_hex(v, "queue_cap")? as usize,
        cap_overrides: pairs("cap_overrides")?
            .into_iter()
            .map(|(t, c)| (t, c as usize))
            .collect(),
        depth: pairs("depth")?
            .into_iter()
            .map(|(t, d)| (t, d as usize))
            .collect(),
        admitted: get_u64_hex(v, "admitted")?,
        rejected: get_u64_hex(v, "rejected")?,
        rejected_by_tenant: pairs("rejected_by_tenant")?,
        registrations: pairs("registrations")?
            .into_iter()
            .map(|(t, n)| {
                u32::try_from(n)
                    .map(|n| (t, n))
                    .map_err(|e| CkptError::new(format!("registration count: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?,
    }))
}

impl XEdgeServer {
    /// Serializes everything the serving pass carries across barriers:
    /// the (possibly elastically resized) lane pool, in-flight work,
    /// crash-requeued requests, node health and crash history, the
    /// admission gates, the elastic controller's counters, and the
    /// observe-at-`k`/actuate-at-`k+1` queue-depth latch. The rest of
    /// the server is a pure function of `FleetConfig` and is rebuilt on
    /// restore.
    pub(crate) fn ckpt(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("admission");
        enc_admission(w, &self.admission);
        w.key("crash_history").begin_array();
        for history in &self.crash_history {
            w.begin_array();
            for t in history {
                w.hex(t.as_nanos());
            }
            w.end_array();
        }
        w.end_array();
        w.key("crash_looped").begin_array();
        for &b in &self.crash_looped {
            w.bool(b);
        }
        w.end_array();
        w.key("in_flight").begin_array();
        for f in &self.in_flight {
            w.begin_object();
            w.key("finish").hex(f.finish.as_nanos());
            w.key("node").u32(f.node);
            w.key("req");
            enc_req(w, &f.req);
            w.key("served");
            enc_served(w, &f.served);
            w.end_object();
        }
        w.end_array();
        w.key("lanes").begin_array();
        for l in &self.lanes {
            w.begin_object();
            w.key("free").hex(l.free.as_nanos());
            w.key("node").u32(l.node);
            w.end_object();
        }
        w.end_array();
        w.key("last_depth").hex(self.last_depth as u64);
        w.key("node_down").begin_array();
        for &b in &self.node_down {
            w.bool(b);
        }
        w.end_array();
        w.key("region_admission");
        enc_opt(w, self.region_admission.as_ref(), |w, gates| {
            w.begin_array();
            for gate in gates {
                enc_admission(w, gate);
            }
            w.end_array();
        });
        w.key("requeued").begin_array();
        for r in &self.requeued {
            enc_req(w, r);
        }
        w.end_array();
        w.key("scaler");
        enc_opt(w, self.scaler.as_ref(), |w, scaler| {
            let (ups, downs) = scaler.counters();
            w.begin_object();
            w.key("scale_downs").hex(downs);
            w.key("scale_ups").hex(ups);
            w.end_object();
        });
        w.end_object();
    }

    /// Rebuilds the server from config (everything derivable) plus the
    /// serialized cross-barrier state.
    pub(crate) fn restore_ckpt(cfg: &FleetConfig, v: &Value) -> Result<XEdgeServer, CkptError> {
        let mut edge = XEdgeServer::new(cfg);
        let nodes = edge.edge_nodes;
        // `new`, grow and shrink all keep lane `i` on node `i % nodes`
        // and at least one lane per node.
        let mut lanes = Vec::new();
        for (i, l) in (0u32..).zip(get_array(v, "lanes")?) {
            let node = get_u32(l, "node")?;
            if node != i % nodes {
                return Err(CkptError::new(format!("lane {i} sits on node {node}")));
            }
            lanes.push(Lane {
                node,
                free: time_field(l, "free")?,
            });
        }
        if lanes.len() < nodes as usize {
            return Err(CkptError::new(format!(
                "snapshot has {} lanes for {nodes} edge nodes",
                lanes.len()
            )));
        }
        edge.contention = edge.contention.resized(lanes.len() as u32);
        edge.lanes = lanes;
        edge.in_flight = get_array(v, "in_flight")?
            .iter()
            .map(|f| {
                let entry = InFlight {
                    finish: time_field(f, "finish")?,
                    node: get_u32(f, "node")?,
                    served: dec_served(get(f, "served")?)?,
                    req: dec_req(get(f, "req")?)?,
                };
                check_in_flight(cfg, nodes, &entry)?;
                Ok(entry)
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        // `serve_epoch` drains the requeue buffer at every barrier.
        if !get_array(v, "requeued")?.is_empty() {
            return Err(CkptError::new(
                "snapshot holds requeued requests, which every barrier drains",
            ));
        }
        let node_down = get_array(v, "node_down")?
            .iter()
            .map(val_bool)
            .collect::<Result<Vec<_>, _>>()?;
        if node_down.len() != edge.node_down.len() {
            return Err(CkptError::new(format!(
                "snapshot has {} edge nodes, config has {}",
                node_down.len(),
                edge.node_down.len()
            )));
        }
        edge.node_down = node_down;
        let mut crash_history = Vec::new();
        for h in get_array(v, "crash_history")? {
            crash_history.push(
                val_array(h)?
                    .iter()
                    .map(|t| Ok(vdap_sim::SimTime::from_nanos(val_u64_hex(t)?)))
                    .collect::<Result<Vec<_>, CkptError>>()?,
            );
        }
        if crash_history.len() != edge.crash_history.len() {
            return Err(CkptError::new("crash history length mismatch"));
        }
        edge.crash_history = crash_history;
        let crash_looped = get_array(v, "crash_looped")?
            .iter()
            .map(val_bool)
            .collect::<Result<Vec<_>, _>>()?;
        if crash_looped.len() != edge.crash_looped.len() {
            return Err(CkptError::new("crash-loop table length mismatch"));
        }
        edge.crash_looped = crash_looped;
        edge.admission = dec_admission(get(v, "admission")?)?;
        edge.region_admission = match (get(v, "region_admission")?, cfg.mobility.as_ref()) {
            (Value::Null, None) => None,
            (Value::Array(gates), Some(_)) => Some(
                gates
                    .iter()
                    .map(dec_admission)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            _ => {
                return Err(CkptError::new(
                    "snapshot and config disagree on per-region admission",
                ))
            }
        };
        edge.scaler = match (get(v, "scaler")?, cfg.elastic) {
            (Value::Null, None) => None,
            (s, Some(policy)) => Some(LaneScaler::from_counters(
                policy,
                get_u64_hex(s, "scale_ups")?,
                get_u64_hex(s, "scale_downs")?,
            )),
            _ => {
                return Err(CkptError::new(
                    "snapshot and config disagree on elastic capacity",
                ))
            }
        };
        edge.last_depth = get_u64_hex(v, "last_depth")? as usize;
        Ok(edge)
    }
}
