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
//! Admission runs through one list of gates: one per region under
//! geo-mobility (a request admits through its vehicle's current
//! region's gate), else one global gate. Every gate carries the same
//! cap and the same quota-flap overrides, which each barrier sets again
//! before it admits.
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
//! When the config carries a [`LanePolicy`], its decisions resize the
//! lane pool and the per-tenant admission caps from the queue depth
//! observed at the *previous* barrier —
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
//! A node that crashes more than [`CrashLoopPolicy`] allows inside its
//! window is declared crash-looping and stays down for the rest of the
//! run. Node health is therefore a pure function of the fault plan:
//! [`crash_loops`] replays the policy over the run's barriers once per
//! run, and each barrier reads a node's state there, and at the barrier
//! before, from that table and the injector. A crash (down here, up at
//! the barrier before) strips the node's unfinished work back into the
//! same barrier's queue.
//!
//! ## In-flight work
//!
//! A request placed on a lane stays in flight until the first barrier
//! at or after its `finish`. Entries sit in a slot vector whose vacated
//! slots are reused, and a calendar files each slot under the first
//! epoch multiple at or after its `finish`, so a barrier touches only
//! the entries due at it, not the backlog. The calendar is a ring of
//! per-epoch buckets that starts at the first epoch whose barrier has
//! not completed its work: a barrier pops the buckets up to its own
//! epoch from the front, and at a barrier between epoch multiples (the
//! horizon) takes what finished by then from the front bucket. A
//! request can finish before the barrier that placed it (it arrived
//! early in the epoch on an idle lane). Its epoch has already been
//! popped, so it files into the front bucket and completes at the next
//! barrier, the one that would have taken it from its own epoch's
//! bucket. Work due after the last barrier completes in the end-of-run
//! drain, which walks the slot vector, so it is not filed at all:
//! however deep the backlog, or whatever finish a restored snapshot
//! holds, the ring keeps at most one bucket per barrier of the run.
//! Completions, a crash's requeue, the end-of-run drain and the
//! snapshot all walk entries in assignment order (`InFlight::seq`), the
//! order of the single list this storage replaced.
//!
//! The fair queue is built once: each barrier restarts the drained
//! queue of the barrier before, whose flow table and per-class quanta
//! stay.

use std::collections::VecDeque;

use vdap_edgeos::{
    ClassQueueKey, CrashLoopPolicy, FairQueue, LaneDecision, LanePolicy, TenantAdmission, TenantId,
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
use crate::vehicle::{VehicleState, BOARD_W, DEGRADED_BOARD_W, RADIO_W, SPEED_MPH};

/// The barrier at which each XEdge node is declared crash-looping, if
/// any, indexed by node. A node crashes at a barrier where the plan has
/// it down and the barrier before had it up (every node is up before
/// the first barrier). More than 3 crashes inside 30 s break the node's
/// [`CrashLoopPolicy`]: from the barrier of that crash on, the node
/// stays down for the rest of the run. Until then its health is the
/// plan's, so the first loop is the only one that matters.
pub(crate) fn crash_loops(
    cfg: &FleetConfig,
    injector: Option<&FaultInjector>,
) -> Vec<Option<SimTime>> {
    let nodes = cfg.edge_nodes.max(1);
    let Some(inj) = injector else {
        return vec![None; nodes as usize];
    };
    let policy = CrashLoopPolicy::new(SimDuration::from_secs(30), 3);
    let horizon = cfg.horizon();
    (0..nodes)
        .map(|node| {
            let label = edge_node_label(node);
            let (mut crashes, mut down_before) = (Vec::new(), false);
            (1..=cfg.total_epochs()).find_map(|k| {
                let barrier = (SimTime::ZERO + cfg.epoch * k).min(horizon);
                let down = inj.is_down(&label, barrier);
                let crashed = down && !down_before;
                down_before = down;
                (crashed && policy.observe(&mut crashes, barrier).1).then_some(barrier)
            })
        })
        .collect()
}

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

/// A request occupying a lane until `finish`.
#[derive(Debug, Clone)]
struct InFlight {
    /// Assignment order. Completions, crash requeues, the end-of-run
    /// drain and snapshots walk in-flight work in this order.
    seq: u64,
    finish: SimTime,
    node: u32,
    /// The request's mobility handoff debt; with `served` it rebuilds
    /// the request a crash requeues.
    debt: SimDuration,
    served: ServedRequest,
}

impl InFlight {
    /// The request as it was queued: a crash requeue serves it again.
    fn request(&self) -> EdgeRequest {
        let s = &self.served;
        EdgeRequest {
            vehicle: s.vehicle,
            seq: s.seq,
            tenant: s.tenant,
            region: s.region,
            class: s.class,
            arrival: s.arrival,
            attempts: s.requeues,
            handoff: self.debt,
        }
    }
}

/// The shared multi-tenant XEdge deployment.
#[derive(Debug)]
pub(crate) struct XEdgeServer {
    /// When each lane is next free. Lanes persist across epochs so
    /// backlog carries over; lane `i` belongs to node `i % edge_nodes`
    /// (grown lanes keep the rule by joining round-robin).
    lanes: Vec<SimTime>,
    /// Requests occupying lanes, completion-pending, one per occupied
    /// slot. A completed or requeued entry leaves a vacant slot on
    /// `free`, which the next assignment fills before the vector grows.
    in_flight: Vec<Option<InFlight>>,
    /// The vacant `in_flight` slots.
    free: Vec<u32>,
    /// The occupied `in_flight` slots due by the last barrier, filed by
    /// due barrier: a ring whose bucket `i` holds, in `seq` order, the
    /// entries with `finish` in `((k - 1) × epoch, k × epoch]` for
    /// `k = due_base + i`, and the front bucket also those due earlier
    /// (see the module docs). A barrier takes only its due buckets
    /// instead of scanning the backlog.
    due: VecDeque<Vec<u32>>,
    /// The epoch of the front `due` bucket: the first whose barrier has
    /// not completed its work.
    due_base: u64,
    /// The last barrier's calendar epoch. Work due after it is not
    /// filed: only the end-of-run drain completes it.
    last_due: u64,
    /// The next assignment's `InFlight::seq`.
    next_seq: u64,
    contention: ContentionModel,
    /// The admission gates: one per region under geo-mobility, where a
    /// request admits through its *current* region's gate, so rush-hour
    /// convergence on downtown regions produces organic admission
    /// pressure with zero injected faults; otherwise one global gate.
    /// Every gate carries the same cap and the same quota-flap
    /// overrides.
    gates: Vec<TenantAdmission>,
    lte: LinkSpec,
    /// Per-handoff connectivity gap at fleet cruising speed.
    handoff_cost: SimDuration,
    epoch: SimDuration,
    /// Per-class cost models, indexed by [`WorkloadClass::index`].
    classes: [ClassSpec; 3],
    /// The per-(tenant, class) DRR queue, drained by every barrier and
    /// restarted by the next, with class-sized quanta (only classes
    /// with a non-zero weight serve).
    queue: FairQueue<EdgeRequest, ClassQueueKey>,
    /// Elastic lane policy; `None` keeps the pool statically sized.
    elastic: Option<LanePolicy>,
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
        let mut queue = FairQueue::new(cfg.classes[0].drr_quantum.max(1));
        for t in 0..cfg.tenants {
            for class in WorkloadClass::ALL {
                let spec = cfg.class(class);
                if spec.weight > 0 && spec.drr_quantum > 0 {
                    queue.set_quantum(
                        ClassQueueKey::new(TenantId::new(t), class),
                        spec.drr_quantum,
                    );
                }
            }
        }
        XEdgeServer {
            lanes: vec![SimTime::ZERO; capacity as usize],
            in_flight: Vec::new(),
            free: Vec::new(),
            due: VecDeque::new(),
            // The first barrier is at one epoch.
            due_base: 1,
            last_due: cfg.total_epochs(),
            next_seq: 0,
            contention: ContentionModel::new(capacity),
            gates: vec![
                TenantAdmission::new(cfg.tenant_queue_cap);
                if cfg.mobility.is_some() {
                    cfg.regions as usize
                } else {
                    1
                }
            ],
            lte: LinkSpec::lte(),
            handoff_cost: CellularChannel::calibrated().handoff_cost(Mph(SPEED_MPH)),
            epoch: cfg.epoch,
            classes: cfg.classes.clone(),
            queue,
            elastic: cfg.elastic,
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

    /// Requests offered to the admission gates so far.
    pub fn offered(&self) -> u64 {
        self.gates.iter().map(|g| g.admitted() + g.rejected()).sum()
    }

    /// Requests rejected by the admission gates so far.
    pub fn rejected(&self) -> u64 {
        self.gates.iter().map(TenantAdmission::rejected).sum()
    }

    /// The per-region admission table for the run report: one
    /// [`RegionAdmission`] per region, counting the `vehicles` in it
    /// (`None` with mobility off).
    pub fn region_admission_table(
        &self,
        vehicles: &[VehicleState],
    ) -> Option<Vec<crate::metrics::RegionAdmission>> {
        if self.gates.len() == 1 {
            return None;
        }
        let mut registered = vec![0u32; self.gates.len()];
        for v in vehicles {
            registered[v.region as usize] += 1;
        }
        Some(
            self.gates
                .iter()
                .zip(registered)
                .map(|(gate, registered)| crate::metrics::RegionAdmission {
                    registered,
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

    /// Whether each node is unusable at barrier `at`: down in the plan
    /// there, or declared crash-looping at or before it. Every node is
    /// up before the first barrier (`at` is `None`).
    fn nodes_down(
        &self,
        injector: Option<&FaultInjector>,
        loops: &[Option<SimTime>],
        at: Option<SimTime>,
    ) -> Vec<bool> {
        let down = |label: &String, looped: &Option<SimTime>, at: SimTime| {
            looped.is_some_and(|l| l <= at) || injector.is_some_and(|inj| inj.is_down(label, at))
        };
        (self.node_labels.iter().zip(loops))
            .map(|(label, looped)| at.is_some_and(|at| down(label, looped, at)))
            .collect()
    }

    /// The barrier before `barrier`: the last epoch multiple before it,
    /// or `None` at the run's first barrier.
    fn previous_barrier(&self, barrier: SimTime) -> Option<SimTime> {
        let k = self.due_key(barrier);
        (k > 1).then(|| SimTime::ZERO + self.epoch * (k - 1))
    }

    /// The per-vehicle share of a region's LTE cell given the average
    /// uplink concurrency (in transfer-seconds) this epoch's batch
    /// implies for the region.
    fn region_link(&self, uplink_secs: f64) -> LinkSpec {
        let concurrency = (uplink_secs / self.epoch.as_secs_f64()).ceil();
        self.lte.shared_among(concurrency.max(1.0) as u32)
    }

    /// Earliest-free lane of `node` (lowest index breaks ties). Every
    /// node owns at least one lane.
    fn best_lane(&self, node: u32) -> usize {
        let stride = self.edge_nodes as usize;
        let mut best = node as usize;
        let mut i = best + stride;
        while i < self.lanes.len() {
            if self.lanes[i] < self.lanes[best] {
                best = i;
            }
            i += stride;
        }
        best
    }

    /// The calendar key of an entry finishing at `finish`: the first
    /// epoch multiple at or after it, counted in epochs.
    fn due_key(&self, finish: SimTime) -> u64 {
        let (t, epoch) = (finish.as_nanos(), self.epoch.as_nanos());
        t / epoch + u64::from(t % epoch != 0)
    }

    /// Files `entry` in a vacant slot and under its due barrier, or in
    /// the front bucket when that barrier has passed; work due after
    /// the last barrier gets only the slot.
    fn file(&mut self, entry: InFlight) {
        let due = self.due_key(entry.finish);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.in_flight[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.in_flight.push(Some(entry));
                (self.in_flight.len() - 1) as u32
            }
        };
        if due <= self.last_due {
            let bucket = due.saturating_sub(self.due_base) as usize;
            if bucket >= self.due.len() {
                self.due.resize_with(bucket + 1, Vec::new);
            }
            self.due[bucket].push(slot);
        }
    }

    /// The entry in occupied slot `slot`.
    fn entry(&self, slot: u32) -> &InFlight {
        self.in_flight[slot as usize]
            .as_ref()
            .expect("filed slots are occupied")
    }

    /// Empties occupied slot `slot` onto the free list.
    fn vacate(&mut self, slot: u32) -> InFlight {
        self.free.push(slot);
        self.in_flight[slot as usize]
            .take()
            .expect("filed slots are occupied")
    }

    /// The occupied slots whose entry passes `keep`, in `seq` order.
    fn slots_in_order(&self, keep: impl Fn(&InFlight) -> bool) -> Vec<u32> {
        let mut slots: Vec<u32> = (0u32..)
            .zip(&self.in_flight)
            .filter(|(_, f)| f.as_ref().is_some_and(&keep))
            .map(|(slot, _)| slot)
            .collect();
        slots.sort_unstable_by_key(|&slot| self.entry(slot).seq);
        slots
    }

    /// Runs the elastic step at `barrier`: one [`LanePolicy`] decision
    /// from the previous barrier's queue depth, applied to the lane
    /// pool, the contention capacity, and the per-tenant admission cap.
    /// Records what happened into `outcome`.
    fn scale_capacity(&mut self, barrier: SimTime, outcome: &mut EpochOutcome) {
        let Some(policy) = self.elastic else {
            return;
        };
        let decision = policy.decide(self.lanes.len() as u32, self.last_depth);
        // Never drop below one lane per node: the homing rule (and
        // `best_lane`) requires every node to keep a lane.
        let target = decision.lanes().max(self.edge_nodes) as usize;
        match decision {
            LaneDecision::Grow(_) => {
                // Lane `i` joins node `i % edge_nodes`.
                self.lanes.resize(self.lanes.len().max(target), barrier);
                outcome.scaled_up = true;
            }
            LaneDecision::Shrink(_) => {
                // Remove idle tail lanes only; a busy tail defers the
                // shrink to a later barrier rather than cancelling
                // in-flight work.
                let mut removed = false;
                while self.lanes.len() > target && self.lanes.last().is_some_and(|&f| f <= barrier)
                {
                    self.lanes.pop();
                    removed = true;
                }
                outcome.scaled_down = removed;
            }
            LaneDecision::Hold(_) => {}
        }
        self.fit_to_lanes();
    }

    /// Sizes the contention model and, under elastic capacity, every
    /// gate's per-tenant cap to the lane pool.
    fn fit_to_lanes(&mut self) {
        let lanes = self.lanes.len() as u32;
        self.contention = self.contention.resized(lanes);
        let Some(policy) = &self.elastic else {
            return;
        };
        let cap = policy.tenant_cap(self.nominal_cap, self.nominal_lanes, lanes);
        for gate in &mut self.gates {
            gate.set_queue_cap(cap);
        }
    }

    /// Strips the nodes that crashed at `barrier` (`down_nodes` there,
    /// not `down_before` at the barrier before): their in-flight work is
    /// lost and returns, node by node and in assignment order within a
    /// node, for this barrier's queue, and their lanes restart cold.
    fn strip_crashed(
        &mut self,
        down_nodes: &[bool],
        down_before: &[bool],
        barrier: SimTime,
    ) -> Vec<EdgeRequest> {
        let mut requeued = Vec::new();
        for node in 0..self.edge_nodes {
            let idx = node as usize;
            if down_nodes[idx] && !down_before[idx] {
                let stripped = self.slots_in_order(|f| f.node == node && f.finish > barrier);
                if !stripped.is_empty() {
                    for &slot in &stripped {
                        let mut req = self.vacate(slot).request();
                        req.attempts += 1;
                        requeued.push(req);
                    }
                    let in_flight = &self.in_flight;
                    for bucket in &mut self.due {
                        bucket.retain(|&slot| in_flight[slot as usize].is_some());
                    }
                }
                let nodes = self.edge_nodes as usize;
                for free in self.lanes.iter_mut().skip(idx).step_by(nodes) {
                    *free = barrier;
                }
            }
        }
        requeued
    }

    /// Moves completions (`finish <= barrier`) into `outcome.served`,
    /// in assignment order. Only the due buckets are touched: every
    /// bucket up to the barrier's epoch, and at a barrier between epoch
    /// multiples (the run's horizon) the part of the next bucket, now
    /// the front one, that finished by then.
    fn emit_completions(&mut self, barrier: SimTime, outcome: &mut EpochOutcome) {
        let (t, epoch) = (barrier.as_nanos(), self.epoch.as_nanos());
        let mut done: Vec<u32> = Vec::new();
        while self.due_base <= t / epoch {
            let Some(mut taken) = self.due.pop_front() else {
                self.due_base = t / epoch + 1;
                break;
            };
            self.due_base += 1;
            if done.is_empty() {
                done = taken;
            } else {
                done.append(&mut taken);
            }
        }
        if t % epoch != 0 {
            if let Some(bucket) = self.due.front_mut() {
                let in_flight = &self.in_flight;
                bucket.retain(|&slot| {
                    let finished = in_flight[slot as usize]
                        .as_ref()
                        .is_some_and(|f| f.finish <= barrier);
                    if finished {
                        done.push(slot);
                    }
                    !finished
                });
            }
        }
        // Each bucket is in `seq` order already, so the stable sort
        // only merges the runs.
        done.sort_by_key(|&slot| self.entry(slot).seq);
        outcome.served.reserve_exact(done.len());
        for slot in done {
            outcome.served.push(self.vacate(slot).served);
        }
    }

    /// Syncs per-tenant admission caps with the quota-flap state at
    /// `barrier`: an active flap shrinks the cap to
    /// `max(1, floor(current × factor))` of the (possibly elastically
    /// scaled) base cap. Every tenant's override is set or cleared in
    /// every gate, so the overrides are a function of the barrier alone
    /// and a snapshot need not carry them.
    fn refresh_quotas(&mut self, injector: Option<&FaultInjector>, barrier: SimTime) {
        let Some(inj) = injector else { return };
        let base_cap = self.gates[0].queue_cap();
        for t in 0..self.tenants {
            let factor = inj.quota_factor(&self.tenant_labels[t as usize], barrier);
            let tenant = TenantId::new(t);
            let flap_cap =
                (factor < 1.0).then(|| ((base_cap as f64 * factor).floor() as usize).max(1));
            for gate in &mut self.gates {
                match flap_cap {
                    Some(cap) => gate.set_cap_override(tenant, cap),
                    None => gate.clear_cap_override(tenant),
                }
            }
        }
    }

    /// Whether `tenant`'s quota is currently flapped at `gate` (a cap
    /// override is in force — the elastic base cap is not a flap). At a
    /// base cap of 1 the flapped cap is 1 too, so only the gate knows.
    fn tenant_flapped(&self, gate: usize, tenant: TenantId) -> bool {
        self.gates[gate].cap_override(tenant).is_some()
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
    /// request's remaining *class* deadline budget. A node `looped`
    /// (crash-looping by this barrier) fails every probe. Returns the
    /// rescued [`ServedRequest`] and the attempt count, or the attempts
    /// spent when the budget ran dry.
    #[allow(clippy::too_many_arguments)]
    fn retry_rescue(
        &self,
        injector: &FaultInjector,
        req: &EdgeRequest,
        node: u32,
        looped: bool,
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
            if looped || injector.is_down(label, at) {
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

    /// Rung 2: the nearest region whose home node is not `down` and
    /// whose cell is not `blocked` (storming or in LTE outage) at this
    /// barrier.
    fn failover_region(&self, region: u32, down: &[bool], blocked: &[bool]) -> Option<u32> {
        (1..self.regions)
            .map(|d| (region + d) % self.regions)
            .find(|&nr| !down[self.home_node(nr) as usize] && !blocked[nr as usize])
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
        let free = self.lanes[lane];
        let start = if ready > free { ready } else { free };
        let finish = start + service;
        self.lanes[lane] = finish;
        let e2e = finish.duration_since(req.arrival) + down;
        let energy_j = (up.as_secs_f64() + down.as_secs_f64()) * RADIO_W + extra_energy;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.file(InFlight {
            seq,
            finish,
            node,
            debt: req.handoff,
            served: ServedRequest {
                vehicle: req.vehicle,
                seq: req.seq,
                tenant: req.tenant,
                region: req.region,
                class: req.class,
                arrival: req.arrival,
                admitted: barrier,
                serve_start: start,
                e2e,
                energy_j,
                retries,
                requeues: req.attempts,
                handoff,
            },
        });
    }

    /// Serves one barrier's batch. The engine passes requests from all
    /// vehicle batches; this method sorts them canonically, so input
    /// order cannot influence the outcome. `barrier` is the global
    /// epoch-boundary instant — the only time at which fault state and
    /// elastic decisions are sampled — `loops` the barrier at which
    /// each node is declared crash-looping ([`crash_loops`]), and `rng`
    /// the engine-owned ladder stream, consumed in canonical order.
    pub fn serve_epoch(
        &mut self,
        mut batch: Vec<EdgeRequest>,
        barrier: SimTime,
        injector: Option<&FaultInjector>,
        loops: &[Option<SimTime>],
        rng: &mut RngStream,
    ) -> EpochOutcome {
        batch.sort_unstable_by_key(|r| (r.arrival, r.vehicle, r.seq));

        let down_nodes = self.nodes_down(injector, loops, Some(barrier));
        let down_before = self.nodes_down(injector, loops, self.previous_barrier(barrier));
        let requeued = self.strip_crashed(&down_nodes, &down_before, barrier);
        let mut outcome = EpochOutcome {
            requeued: requeued.len() as u64,
            ..EpochOutcome::default()
        };
        self.emit_completions(barrier, &mut outcome);
        self.scale_capacity(barrier, &mut outcome);
        self.refresh_quotas(injector, barrier);

        // Per-region LTE sharing from this batch's uplink demand
        // (class-sized: a pBEAM gradient weighs more than a detection
        // frame), summed per region in canonical batch order. Each
        // region's share then prices every class's uplink and downlink
        // once for the whole barrier.
        let unshared_up: [f64; 3] = std::array::from_fn(|c| {
            self.lte
                .transfer_time(Direction::Uplink, self.classes[c].upload_bytes)
                .as_secs_f64()
        });
        let mut uplink_secs = vec![0.0; self.regions as usize];
        for r in &batch {
            uplink_secs[r.region as usize] += unshared_up[r.class.index()];
        }
        let transfer: Vec<[(SimDuration, SimDuration); 3]> = uplink_secs
            .iter()
            .map(|&secs| {
                let link = self.region_link(secs);
                std::array::from_fn(|c| {
                    let spec = &self.classes[c];
                    (
                        link.transfer_time(Direction::Uplink, spec.upload_bytes),
                        link.transfer_time(Direction::Downlink, spec.download_bytes),
                    )
                })
            })
            .collect();

        // Each region's fault state at this barrier. With mobility on,
        // a handoff storm prices the vehicle's *crossings* (the
        // engine's mobility pass multiplies the handoff cost) instead
        // of rerouting the serving path — one accounting path, no
        // double-counted handoff seconds. A rung-2 target must be
        // neither storming nor in LTE outage.
        let storms_gate_serving = self.gates.len() == 1;
        let storms: Vec<bool> = self
            .handoff_labels
            .iter()
            .map(|label| {
                storms_gate_serving && injector.is_some_and(|inj| inj.handoff_storm(label, barrier))
            })
            .collect();
        let blocked: Vec<bool> = self
            .region_labels
            .iter()
            .zip(&storms)
            .map(|(label, &storm)| storm || injector.is_some_and(|inj| inj.is_down(label, barrier)))
            .collect();

        // Admission (arrival order), then per-(tenant, class) DRR fair
        // queueing with class-sized quanta. Requests re-queued off
        // crashed lanes were admitted in an earlier epoch and re-enter
        // the queue without a second admission charge.
        self.queue.restart();
        let mut queued_by_class = [0u64; 3];
        let mut admitted: Vec<(usize, TenantId)> = Vec::new();
        for req in requeued {
            let spec = &self.classes[req.class.index()];
            if barrier.duration_since(req.arrival) >= spec.deadline {
                // Too stale to re-serve: straight to the bottom rung.
                outcome
                    .local_fallbacks
                    .push(self.local_fallback(&req, barrier, 0));
            } else {
                let key = ClassQueueKey::new(TenantId::new(req.tenant), req.class);
                queued_by_class[req.class.index()] += 1;
                self.queue.enqueue(key, spec.work_units, req);
            }
        }
        for req in batch {
            let tenant = TenantId::new(req.tenant);
            // With mobility on, the request admits through its current
            // region's gate — crossings concentrate vehicles, so the
            // destination gate feels the pressure.
            let gate = if self.gates.len() > 1 {
                req.region as usize
            } else {
                0
            };
            if self.gates[gate].try_admit(tenant) {
                admitted.push((gate, tenant));
                let spec = &self.classes[req.class.index()];
                queued_by_class[req.class.index()] += 1;
                self.queue
                    .enqueue(ClassQueueKey::new(tenant, req.class), spec.work_units, req);
            } else if self.tenant_flapped(gate, tenant) {
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
                let uplink = transfer[req.region as usize][req.class.index()].0 + req.handoff;
                outcome.rejected.push(req.outcome(
                    SpanOutcome::Rejected,
                    uplink + self.failover_penalty + spec.vehicle_service,
                    uplink.as_secs_f64() * RADIO_W + spec.vehicle_service.as_secs_f64() * BOARD_W,
                ));
            }
        }
        outcome.queue_depth = self.queue.len();
        self.last_depth = outcome.queue_depth;
        // Every slot filled below pops from `queue`, and vacant slots
        // are filled first. The slots outlive the barrier, so an
        // amortized doubling would leave up to half the buffer never
        // written, and whether those pages end up resident depends on
        // where later allocations land.
        self.in_flight
            .reserve_exact(self.queue.len().saturating_sub(self.free.len()));

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
        while let Some((_, req)) = self.queue.pop() {
            let ci = req.class.index();
            let (up, down) = transfer[req.region as usize][ci];
            let service = service_by_class[ci];
            let home = self.home_node(req.region);
            let home_down = down_nodes[home as usize];
            let storming = storms[req.region as usize];

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
                    let looped = loops[home as usize].is_some_and(|l| l <= barrier);
                    match self
                        .retry_rescue(inj, &req, home, looped, barrier, up, down, service, rng)
                    {
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
            if let Some(neighbor) = self.failover_region(req.region, &down_nodes, &blocked) {
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
        for (gate, tenant) in admitted {
            self.gates[gate].release(tenant);
        }
        outcome.lanes = self.lanes.len() as u32;
        outcome
    }

    /// Drains the in-flight work still pending at the end of the run, in
    /// assignment order: it completes past the horizon, and its latency
    /// is already fixed.
    pub fn flush(&mut self) -> EpochOutcome {
        let slots = self.slots_in_order(|_| true);
        let served = slots.iter().map(|&slot| self.vacate(slot).served).collect();
        self.due.clear();
        EpochOutcome {
            lanes: self.lanes.len() as u32,
            served,
            ..EpochOutcome::default()
        }
    }
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{dur_field, time_field};
use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{
    get, get_array, get_bool, get_f64_bits, get_u32, get_u64_hex, val_u64_hex, CkptError,
};
use vdap_edgeos::AdmissionState;

/// Writes what a lane made of a request. Its tenant is not written:
/// the vehicle's tenant is the config's.
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
    w.key("vehicle").u32(s.vehicle);
    w.end_object();
}

fn dec_served(cfg: &FleetConfig, v: &Value) -> Result<ServedRequest, CkptError> {
    let vehicle = get_u32(v, "vehicle")?;
    let class = get_u32(v, "class")? as usize;
    Ok(ServedRequest {
        vehicle,
        seq: get_u32(v, "seq")?,
        tenant: cfg.tenant_of(vehicle),
        region: get_u32(v, "region")?,
        class: *WorkloadClass::ALL
            .get(class)
            .ok_or_else(|| CkptError::new(format!("workload class index {class} out of range")))?,
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
    let s = &f.served;
    let problem = if f.node >= nodes {
        format!("sits on node {}", f.node)
    } else if s.vehicle >= cfg.vehicles {
        "names no vehicle of the fleet".to_string()
    } else if s.region >= cfg.regions {
        format!("names region {}", s.region)
    } else if !s.handoff && f.node != s.region % nodes {
        // Only a rung-2 handoff serves a request off its home node.
        format!(
            "sits on node {} without a handoff, off its region's node {}",
            f.node,
            s.region % nodes
        )
    } else if s.serve_start < s.arrival {
        "starts serving before it arrived".to_string()
    } else if f.finish < s.serve_start {
        "finishes before it starts serving".to_string()
    } else {
        return Ok(());
    };
    Err(CkptError::new(format!(
        "in-flight request (vehicle {}, seq {}) {problem}",
        s.vehicle, s.seq
    )))
}

impl XEdgeServer {
    /// Serializes everything the serving pass carries across barriers:
    /// each lane's free time, in-flight work in assignment order, the
    /// admission gates' counters, and the observe-at-`k`/actuate-at-
    /// `k+1` queue-depth latch. The rest of the server is a pure
    /// function of `FleetConfig` and is rebuilt on restore: node health
    /// follows from the fault plan ([`crash_loops`]), and the next
    /// barrier sets the gates' quota-flap overrides before it admits.
    pub(crate) fn ckpt(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("gates").begin_array();
        for gate in &self.gates {
            let s = gate.state();
            w.begin_object();
            w.key("admitted").hex(s.admitted);
            w.key("rejected").hex(s.rejected);
            w.end_object();
        }
        w.end_array();
        w.key("in_flight").begin_array();
        for slot in self.slots_in_order(|_| true) {
            let f = self.entry(slot);
            w.begin_object();
            w.key("debt").hex(f.debt.as_nanos());
            w.key("finish").hex(f.finish.as_nanos());
            w.key("node").u32(f.node);
            w.key("served");
            enc_served(w, &f.served);
            w.end_object();
        }
        w.end_array();
        w.key("lanes").begin_array();
        for free in &self.lanes {
            w.hex(free.as_nanos());
        }
        w.end_array();
        w.key("last_depth").hex(self.last_depth as u64);
        w.end_object();
    }

    /// Rebuilds the server from config (everything derivable) and the
    /// serialized cross-barrier state of a snapshot taken at barrier
    /// `at`. Between barriers no request holds a gate slot, and every
    /// gate's cap is the one the config sets for the restored lane pool.
    /// `requests` is the restored count of issued requests, which bounds
    /// the gates' offers: each offer is a distinct issued request.
    pub(crate) fn restore_ckpt(
        cfg: &FleetConfig,
        v: &Value,
        requests: u64,
        at: SimTime,
    ) -> Result<XEdgeServer, CkptError> {
        let mut edge = XEdgeServer::new(cfg);
        // The barrier at `at` completed the work due by then.
        edge.due_base = edge.due_key(at) + 1;
        let nodes = edge.edge_nodes;
        let lanes = get_array(v, "lanes")?
            .iter()
            .map(|t| Ok(SimTime::from_nanos(val_u64_hex(t)?)))
            .collect::<Result<Vec<_>, CkptError>>()?;
        // The pool sizes `new`, grow and shrink can produce: the nominal
        // pool, or under elastic capacity from the policy's floor (never
        // below one lane per node) to its ceiling.
        let nominal = edge.lanes.len() as u32;
        let (least, most) = cfg.elastic.map_or((nominal, nominal), |p| {
            (
                nominal.min(p.min_lanes.max(nodes)),
                nominal.max(p.max_lanes),
            )
        });
        let n = lanes.len();
        if n < least as usize || n > most as usize {
            return Err(CkptError::new(format!(
                "snapshot has {n} lanes for {nodes} edge nodes, the run keeps {least} to {most}"
            )));
        }
        edge.lanes = lanes;
        // Entries are written in assignment order, so their position
        // is their `seq`.
        let in_flight = get_array(v, "in_flight")?;
        edge.in_flight.reserve_exact(in_flight.len());
        for (seq, f) in (0u64..).zip(in_flight) {
            let entry = InFlight {
                seq,
                finish: time_field(f, "finish")?,
                node: get_u32(f, "node")?,
                debt: dur_field(f, "debt")?,
                served: dec_served(cfg, get(f, "served")?)?,
            };
            check_in_flight(cfg, nodes, &entry)?;
            edge.file(entry);
            edge.next_seq = seq + 1;
        }
        edge.fit_to_lanes();
        let states = get_array(v, "gates")?;
        if states.len() != edge.gates.len() {
            return Err(CkptError::new(format!(
                "snapshot has {} admission gates, config has {}",
                states.len(),
                edge.gates.len()
            )));
        }
        let mut offered = 0u64;
        for (gate, state) in edge.gates.iter_mut().zip(states) {
            let state = AdmissionState {
                admitted: get_u64_hex(state, "admitted")?,
                rejected: get_u64_hex(state, "rejected")?,
            };
            offered = [state.admitted, state.rejected]
                .into_iter()
                .try_fold(offered, u64::checked_add)
                .filter(|&n| n <= requests)
                .ok_or_else(|| {
                    CkptError::new(format!(
                        "admission gates count more offers than the {requests} requests issued"
                    ))
                })?;
            gate.restore(state);
        }
        edge.last_depth = get_u64_hex(v, "last_depth")? as usize;
        Ok(edge)
    }
}

#[cfg(test)]
mod tests {
    use vdap_sim::SeedFactory;

    use super::*;

    /// `(due key, vehicle, request seq)` of every in-flight entry
    /// finished by `barrier`, in assignment order: what a barrier at
    /// `barrier` must complete.
    fn finished_by(edge: &XEdgeServer, barrier: SimTime) -> Vec<(u64, u32, u32)> {
        let mut done: Vec<(u64, u64, u32, u32)> = edge
            .in_flight
            .iter()
            .flatten()
            .filter(|f| f.finish <= barrier)
            .map(|f| {
                (
                    f.seq,
                    edge.due_key(f.finish),
                    f.served.vehicle,
                    f.served.seq,
                )
            })
            .collect();
        done.sort_unstable();
        done.into_iter().map(|(_, key, v, s)| (key, v, s)).collect()
    }

    /// Every occupied slot due by the last barrier is filed once, in
    /// the bucket of its due epoch, or in the front bucket when that
    /// epoch's barrier has passed; each bucket lists its slots in
    /// assignment order, and every other slot is on the free list.
    fn assert_filed(edge: &XEdgeServer) {
        let mut filed = 0;
        for (key, bucket) in (edge.due_base..).zip(&edge.due) {
            for pair in bucket.windows(2) {
                assert!(edge.entry(pair[0]).seq < edge.entry(pair[1]).seq);
            }
            for &slot in bucket {
                let due = edge.due_key(edge.entry(slot).finish);
                assert!(
                    due == key || (key == edge.due_base && due < key),
                    "slot due at epoch {due} filed under {key}"
                );
            }
            filed += bucket.len();
        }
        let occupied = (edge.in_flight.iter().flatten())
            .filter(|f| edge.due_key(f.finish) <= edge.last_due)
            .count();
        assert_eq!(filed, occupied);
        let vacant = edge.in_flight.iter().filter(|f| f.is_none()).count();
        assert_eq!(vacant, edge.free.len());
    }

    #[test]
    fn the_fourth_crash_inside_the_window_declares_the_loop() {
        use vdap_fault::{FaultKind, FaultPlan, FaultSpec};
        let recurring = |node: u32, period: u64| {
            FaultSpec::new(
                FaultKind::EdgeNodeCrash,
                edge_node_label(node),
                SimTime::from_secs(2),
                SimDuration::from_millis(1500),
            )
            .recurring_every(SimDuration::from_secs(period))
        };
        let mut cfg = FleetConfig::sized(64);
        cfg.duration = SimDuration::from_secs(30);
        // Node 0 crashes at 2, 5, 8 and 11 s; node 1 only at 2, 12 and
        // 22 s, three crashes in 30 s, which the policy tolerates.
        let plan = FaultPlan::new(cfg.duration)
            .with_fault(recurring(0, 3))
            .with_fault(recurring(1, 10));
        let cfg = cfg.with_fault_plan(plan);
        let inj = cfg.chaos.as_ref().expect("plan").compile();
        let loops = crash_loops(&cfg, Some(&inj));
        assert_eq!(loops, [Some(SimTime::from_secs(11)), None, None, None]);
        assert_eq!(crash_loops(&cfg, None), [None; 4]);
    }

    #[test]
    fn barriers_complete_exactly_the_work_finished_by_them() {
        // 512 vehicles keep work in flight past the horizon, which is
        // the last barrier below.
        let mut cfg = FleetConfig::sized(512);
        cfg.duration = cfg.epoch * 9;
        let mut edge = XEdgeServer::new(&cfg);
        let mut rng = SeedFactory::new(1).stream("edge-test");
        // Epoch multiples and barriers between them, as a horizon is;
        // one burst per barrier keeps a backlog on every lane.
        let barriers = [1.0, 2.0, 2.5, 3.0, 4.2, 5.0, 5.9, 7.0, 7.1, 9.0];
        let (mut prev, mut partial, mut early) = (SimTime::ZERO, 0, 0);
        for (i, at) in (0u32..).zip(barriers) {
            let barrier = SimTime::ZERO + cfg.epoch.mul_f64(at);
            let gap = barrier.duration_since(prev);
            let batch = (0..cfg.vehicles)
                .map(|v| EdgeRequest {
                    vehicle: v,
                    seq: i,
                    tenant: cfg.tenant_of(v),
                    region: cfg.region_of(v),
                    class: WorkloadClass::ALL[v as usize % 3],
                    arrival: prev + gap.mul_f64(f64::from(v) / f64::from(cfg.vehicles)),
                    attempts: 0,
                    handoff: SimDuration::ZERO,
                })
                .collect();
            let due = finished_by(&edge, barrier);
            let whole = barrier.as_nanos() / cfg.epoch.as_nanos();
            partial += due.iter().filter(|(key, _, _)| *key > whole).count();
            let outcome =
                edge.serve_epoch(batch, barrier, None, &crash_loops(&cfg, None), &mut rng);
            let got: Vec<(u32, u32)> = outcome.served.iter().map(|s| (s.vehicle, s.seq)).collect();
            let want: Vec<(u32, u32)> = due.iter().map(|&(_, v, s)| (v, s)).collect();
            assert_eq!(got, want, "barrier at {at} epochs");
            assert_filed(&edge);
            early += edge.due.front().map_or(0, |bucket| {
                (bucket.iter())
                    .filter(|&&slot| edge.due_key(edge.entry(slot).finish) < edge.due_base)
                    .count()
            });
            prev = barrier;
        }
        assert!(
            partial > 0,
            "a barrier between multiples takes part of a bucket"
        );
        assert!(
            early > 0,
            "work finished before the barrier that placed it files at the front"
        );
        let rest = finished_by(&edge, SimTime::from_nanos(u64::MAX));
        assert!(!rest.is_empty(), "work is still in flight at the horizon");
        assert!(
            rest.iter().any(|&(key, _, _)| key > edge.last_due),
            "some work is due after the last barrier, off the calendar"
        );
        let tail = edge.flush();
        let got: Vec<(u32, u32)> = tail.served.iter().map(|s| (s.vehicle, s.seq)).collect();
        let want: Vec<(u32, u32)> = rest.iter().map(|&(_, v, s)| (v, s)).collect();
        assert_eq!(got, want, "the drain takes the rest in assignment order");
    }

    /// Three tenant-0 requests meet a quota flap to half the base cap:
    /// one admits, and the two bounced are a fault, not load, so they
    /// fall to rung 3. At a base cap of 1 the flapped cap is 1 too.
    #[test]
    fn a_flap_bounces_to_the_bottom_rung_at_any_base_cap() {
        for cap in [1, 2] {
            let mut cfg = FleetConfig::sized(64).with_tenant_quota_flap(
                0,
                0.5,
                SimTime::ZERO,
                SimDuration::from_secs(10),
            );
            cfg.tenant_queue_cap = cap;
            let inj = cfg.chaos.as_ref().expect("plan").compile();
            let mut edge = XEdgeServer::new(&cfg);
            let mut rng = SeedFactory::new(1).stream("edge-test");
            let batch = (0..cfg.vehicles)
                .filter(|&v| cfg.tenant_of(v) == 0)
                .take(3)
                .map(|v| EdgeRequest {
                    vehicle: v,
                    seq: 0,
                    tenant: 0,
                    region: cfg.region_of(v),
                    class: WorkloadClass::Detection,
                    arrival: SimTime::ZERO,
                    attempts: 0,
                    handoff: SimDuration::ZERO,
                })
                .collect();
            let barrier = SimTime::ZERO + cfg.epoch;
            let loops = crash_loops(&cfg, Some(&inj));
            let outcome = edge.serve_epoch(batch, barrier, Some(&inj), &loops, &mut rng);
            let bounced = (outcome.rejected.len(), outcome.local_fallbacks.len());
            assert_eq!(bounced, (0, 2), "(rejected, fallbacks) at base cap {cap}");
            assert_eq!(outcome.queue_depth, 1, "one admitted at base cap {cap}");
        }
    }
}
