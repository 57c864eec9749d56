//! Per-vehicle state and the vehicle tick.
//!
//! Vehicles are open-loop request sources: each issues a perception
//! request every `request_period` (±10% deterministic jitter from its
//! own RNG stream) regardless of how earlier requests fared. All
//! per-vehicle randomness comes from `SeedFactory::indexed_stream`
//! keyed by the vehicle id, so the same vehicle replays the same
//! decisions no matter which worker thread advances it.
//!
//! There is no central event queue: each vehicle stores its own next
//! request-tick and next ingest-upload time, and an epoch advance just
//! replays each vehicle's private timeline up to the epoch boundary.
//! That makes the vehicle the unit of work. The engine keeps the fleet
//! in one id-indexed array, cuts it into fixed-size chunks, and hands
//! each chunk to the work-stealing executor as a [`VehicleBatch`].
//! During an epoch a batch only *reads* globally-deterministic inputs
//! (virtual time, the compiled fault timeline, the previous barrier's
//! V2V snapshot) and *buffers* its outputs (edge requests, result
//! publications, the requests it resolved on its own, per-class request
//! counts) in its private [`BatchOut`], which the engine folds back in
//! chunk order at the barrier. A batch records no metrics and builds no
//! span: the barrier prices and records every [`VehicleOutcome`]. Which
//! worker ran a batch, or when it was stolen, can never reach any
//! report.
//!
//! Each request tick draws its [`vdap_edgeos::WorkloadClass`] from the
//! config's weighted mix using the vehicle's private RNG stream, so the
//! same vehicle issues the same class sequence at any batch size or
//! executor width, and every vehicle-side cost (fallback service, V2V
//! fetch bytes) is priced by the drawn class's [`crate::ClassSpec`].

use std::collections::BTreeMap;

use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{get_array, get_bool, get_u32, val_array, val_u32, val_u64_hex, CkptError};
use vdap_ddi::UploadBatch;
use vdap_edgeos::WorkloadClass;
use vdap_fault::FaultInjector;
use vdap_net::{Direction, LinkSpec};
use vdap_obs::SpanOutcome;
use vdap_offload::Tile;
use vdap_sim::{RngStream, SeedFactory, SimDuration, SimTime};

use crate::ckpt::{dur_field, enc_opt, enc_opt_time, enc_rng, opt_time_field, rng_field, section};
use crate::config::FleetConfig;
use crate::edge::EdgeRequest;
use crate::metrics::RequestOutcome;

/// Nominal fleet cruising speed used by the mobility model.
pub(crate) const SPEED_MPH: f64 = 30.0;

/// Number of route cohorts: vehicles in the same cohort drive the same
/// route (offset only in id), so their road tiles coincide and V2V
/// result sharing can hit.
pub(crate) const ROUTE_COHORTS: u32 = 8;

/// Vehicle radio power draw while transmitting over cellular (W).
pub(crate) const RADIO_W: f64 = 2.5;

/// Vehicle compute-board power draw while running fallback inference (W).
pub(crate) const BOARD_W: f64 = 35.0;

/// Board power draw for rung-3 degraded local inference (W): the
/// reduced-accuracy pipeline clocks the accelerator lower than the full
/// on-board fallback.
pub(crate) const DEGRADED_BOARD_W: f64 = 28.0;

/// DSRC radio power draw during a V2V exchange (W).
pub(crate) const DSRC_W: f64 = 1.0;

/// The V2V snapshot published at the previous barrier: tile → producer.
pub(crate) type CollabSnapshot = BTreeMap<Tile, u32>;

/// One vehicle's DDI uplink state: a private RNG stream (separate from
/// the request stream, so enabling ingestion cannot perturb the
/// request timeline) and a batch sequence counter.
#[derive(Debug)]
pub(crate) struct DdiUplink {
    /// Private DDI random stream.
    pub rng: RngStream,
    /// Next upload-batch sequence number.
    pub seq: u32,
}

/// One simulated vehicle: its complete private state. The engine keeps
/// it at index `id` of the fleet array for the whole run; a region
/// crossing under mobility rewrites `region`, handoff debt and the
/// stale-cache flag in place.
#[derive(Debug)]
pub(crate) struct VehicleState {
    /// Fleet-wide vehicle id (its index in the fleet array).
    pub id: u32,
    /// Tenant the vehicle's services bill to.
    pub tenant: u32,
    /// LTE region the vehicle currently drives in (fixed for the run
    /// unless mobility is on).
    pub region: u32,
    /// Private random stream (seeded by vehicle id).
    pub rng: RngStream,
    /// Next request sequence number.
    pub seq: u32,
    /// DDI uplink state (`Some` iff ingestion is enabled).
    pub ddi: Option<DdiUplink>,
    /// When the next request tick is due (`None` once past the
    /// horizon).
    pub next_tick: Option<SimTime>,
    /// When the next ingest upload is due (`None` when ingestion is off
    /// or past the horizon).
    pub next_ingest: Option<SimTime>,
    /// Cellular handoff cost accrued at barrier crossings, charged as
    /// extra latency on the vehicle's next request.
    pub pending_handoff: SimDuration,
    /// Set at a region crossing: the vehicle's V2V collaboration cache
    /// is stale for the following epoch (lookups suppressed, would-be
    /// hits counted).
    pub cache_stale: bool,
}

impl VehicleState {
    /// Vehicle `id` at the start of a run. The first request-tick (and
    /// ingest-upload) phase is a deterministic offset in `[0, period)`,
    /// drawn from the vehicle's private streams in a fixed order.
    pub fn new(id: u32, cfg: &FleetConfig, seeds: &SeedFactory) -> Self {
        let mut v = VehicleState {
            id,
            tenant: cfg.tenant_of(id),
            region: cfg.region_of(id),
            rng: seeds.indexed_stream("fleet-vehicle", u64::from(id)),
            seq: 0,
            ddi: cfg.ingest.is_some().then(|| DdiUplink {
                rng: seeds.indexed_stream("fleet-ddi", u64::from(id)),
                seq: 0,
            }),
            next_tick: None,
            next_ingest: None,
            pending_handoff: SimDuration::ZERO,
            cache_stale: false,
        };
        let offset = v.rng.uniform_range(0.0, cfg.request_period.as_secs_f64());
        v.next_tick = Some(SimTime::ZERO + SimDuration::from_secs_f64(offset));
        if let (Some(ingest), Some(ddi)) = (cfg.ingest.as_ref(), v.ddi.as_mut()) {
            let offset = ddi
                .rng
                .uniform_range(0.0, ingest.upload_period.as_secs_f64());
            v.next_ingest = Some(SimTime::ZERO + SimDuration::from_secs_f64(offset));
        }
        v
    }
}

/// A request the vehicle resolved on its own — a V2V collab hit or a
/// regional-outage failover — as its tick decided it. Only the tick's
/// inputs travel; the barrier prices the outcome
/// ([`VehicleOutcome::resolve`]) and records it. It must stay within 40
/// bytes: [`BatchOut`] pre-sizes one per vehicle, and peak RSS follows
/// those buffers.
#[derive(Debug)]
pub(crate) struct VehicleOutcome {
    pub vehicle: u32,
    pub seq: u32,
    /// The region the vehicle was driving in at the tick.
    pub region: u32,
    pub class: WorkloadClass,
    /// [`SpanOutcome::CollabHit`] or [`SpanOutcome::Failover`].
    pub kind: SpanOutcome,
    pub generated: SimTime,
    /// Handoff debt the request pays.
    pub handoff: SimDuration,
    /// The request's cost-jitter draw.
    pub jitter: f64,
}

impl VehicleOutcome {
    /// Prices the outcome at the drawn class's costs. A failover pays
    /// the re-planning penalty and runs the pipeline on board (a pBEAM
    /// round continues training locally at its own cost); a collab hit
    /// fetches the neighbour's result over DSRC instead of recomputing.
    pub fn resolve(&self, cfg: &FleetConfig) -> RequestOutcome {
        let spec = cfg.class(self.class);
        let (e2e, energy_j, cost) = if self.kind == SpanOutcome::Failover {
            let failover = cfg.failover_penalty.mul_f64(1.0 + 0.2 * self.jitter);
            let service = spec.vehicle_service.mul_f64(1.0 + 0.1 * self.jitter);
            (
                self.handoff + failover + service,
                service.as_secs_f64() * BOARD_W,
                failover,
            )
        } else {
            let dsrc = LinkSpec::dsrc();
            let fetch = dsrc.transfer_time(Direction::Downlink, spec.download_bytes);
            let merge = SimDuration::from_millis_f64(2.0 + self.jitter);
            (
                self.handoff + dsrc.latency() + fetch + merge,
                fetch.as_secs_f64() * DSRC_W,
                SimDuration::ZERO,
            )
        };
        RequestOutcome {
            vehicle: self.vehicle,
            seq: self.seq,
            tenant: cfg.tenant_of(self.vehicle),
            region: self.region,
            class: self.class,
            kind: self.kind,
            generated: self.generated,
            admitted: None,
            serve_start: None,
            e2e,
            energy_j,
            cost,
            retries: 0,
            requeues: 0,
            handoff: false,
        }
    }
}

/// Output buffers one batch fills while advancing its vehicles, folded
/// into the barrier in chunk order.
pub(crate) struct BatchOut {
    /// Requests bound for the edge.
    pub outbox: Vec<EdgeRequest>,
    /// Telemetry upload batches bound for the regional DDI collectors.
    pub ingest_outbox: Vec<UploadBatch>,
    /// Cacheable results produced this epoch: (tile, producer).
    pub publications: Vec<(Tile, u32)>,
    /// Requests resolved on the vehicle side, in `(vehicle, seq)`
    /// order. Workers never allocate histogram buckets: when they did,
    /// peak RSS varied with the thread interleaving (the rush-4k
    /// benchmark on a 2-vCPU Linux host: 43–56 MiB across identical
    /// runs).
    pub resolved: Vec<VehicleOutcome>,
    /// V2V lookups that *would* have hit but were suppressed because
    /// the vehicle's collab cache went stale at its last crossing.
    pub stale_hits: u64,
    /// Requests issued, per class (indexed by [`WorkloadClass::index`]).
    pub requests: [u64; 3],
}

impl BatchOut {
    /// Empty buffers for a batch of `vehicles`. The per-vehicle outputs
    /// start with room for one entry per vehicle, the common case for an
    /// epoch. Growing them from empty on the worker threads instead
    /// raised the telemetry-25k benchmark's peak RSS from 75 to 89 MiB
    /// on a 2-vCPU Linux host.
    fn new(vehicles: usize) -> Self {
        BatchOut {
            outbox: Vec::with_capacity(vehicles),
            ingest_outbox: Vec::with_capacity(vehicles),
            publications: Vec::with_capacity(vehicles),
            resolved: Vec::with_capacity(vehicles),
            stale_hits: 0,
            requests: [0; 3],
        }
    }
}

/// One chunk of the fleet array, advanced independently on any
/// executor worker. Batches are order-free by construction: every RNG
/// draw comes from a stream owned by one vehicle, every branch reads
/// only time-determined inputs (the fault timeline, the previous
/// barrier's snapshot), and every output lands in the batch's private
/// [`BatchOut`].
pub(crate) struct VehicleBatch<'a> {
    vehicles: &'a mut [VehicleState],
    /// What the batch produced this epoch.
    pub out: BatchOut,
}

impl<'a> VehicleBatch<'a> {
    /// A batch over one chunk of the fleet array, with empty outputs.
    pub fn new(vehicles: &'a mut [VehicleState]) -> Self {
        let out = BatchOut::new(vehicles.len());
        VehicleBatch { vehicles, out }
    }

    /// Advances every vehicle in the batch to the epoch boundary
    /// `end` (inclusive), replaying each vehicle's private timeline of
    /// request ticks and ingest uploads against the previous barrier's
    /// `collab` snapshot.
    pub fn advance(
        &mut self,
        cfg: &FleetConfig,
        injector: Option<&FaultInjector>,
        region_labels: &[String],
        collab: &CollabSnapshot,
        end: SimTime,
    ) {
        for v in self.vehicles.iter_mut() {
            loop {
                let next_tick = v.next_tick.filter(|&t| t <= end);
                let next_ingest = v.next_ingest.filter(|&t| t <= end);
                // Tick-before-ingest on equal timestamps is arbitrary
                // but fixed: the two event kinds draw from separate
                // streams and write disjoint buffers, so either order
                // yields the same outputs.
                match (next_tick, next_ingest) {
                    (Some(t), Some(g)) if g < t => {
                        ingest_tick(cfg, v, &mut self.out, g);
                    }
                    (Some(t), _) => {
                        tick(cfg, injector, region_labels, collab, v, &mut self.out, t);
                    }
                    (None, Some(g)) => {
                        ingest_tick(cfg, v, &mut self.out, g);
                    }
                    (None, None) => break,
                }
            }
        }
    }
}

/// One vehicle request tick at time `now`. All branching depends only
/// on virtual time, the fault timeline, the previous barrier's
/// snapshot, and the vehicle's private RNG — inputs independent of
/// batch size and steal schedule alike.
fn tick(
    cfg: &FleetConfig,
    injector: Option<&FaultInjector>,
    region_labels: &[String],
    snapshot: &CollabSnapshot,
    v: &mut VehicleState,
    out: &mut BatchOut,
    now: SimTime,
) {
    let horizon = cfg.horizon();

    // Per-request draws, in a fixed order so the stream replays
    // identically: class pick, cache eligibility, cost jitter.
    let seq = v.seq;
    v.seq += 1;
    let pick = v.rng.below(u64::from(cfg.total_class_weight()));
    let class = cfg.class_for_draw(pick);
    let cache_draw = v.rng.chance(cfg.cacheable_fraction);
    let jitter = v.rng.uniform();
    let cacheable = cache_draw && cfg.class(class).cacheable;
    let handoff = std::mem::take(&mut v.pending_handoff);
    let stale = v.cache_stale;

    let region_down =
        injector.is_some_and(|inj| inj.is_down(&region_labels[v.region as usize], now));
    let resolved_as = |kind| VehicleOutcome {
        vehicle: v.id,
        seq,
        region: v.region,
        class,
        kind,
        generated: now,
        handoff,
        jitter,
    };

    out.requests[class.index()] += 1;
    if region_down {
        // Regional LTE outage: re-plan and run the pipeline on board.
        out.resolved.push(resolved_as(SpanOutcome::Failover));
    } else {
        let tile = tile_at(v.id, now);
        let lookup = if cacheable {
            snapshot.get(&tile).copied().filter(|p| *p != v.id)
        } else {
            None
        };
        // A vehicle that just crossed a region boundary cannot trust
        // its collab cache: the would-be hit is counted, then dropped.
        let shared_by = if stale {
            if lookup.is_some() {
                out.stale_hits += 1;
            }
            None
        } else {
            lookup
        };
        if shared_by.is_some() {
            // V2V collaboration hit: the neighbour's result comes over
            // DSRC.
            out.resolved.push(resolved_as(SpanOutcome::CollabHit));
        } else {
            out.outbox.push(EdgeRequest {
                vehicle: v.id,
                seq,
                tenant: v.tenant,
                region: v.region,
                class,
                arrival: now,
                attempts: 0,
                handoff,
            });
            if cacheable {
                out.publications.push((tile, v.id));
            }
        }
    }

    // Open-loop reschedule with ±10% deterministic jitter.
    let next_jitter = v.rng.uniform();
    let delay = cfg.request_period.mul_f64(0.9 + 0.2 * next_jitter);
    v.next_tick = (now + delay <= horizon).then(|| now + delay);
}

/// One vehicle telemetry-upload tick at time `now`: batch the records
/// accumulated since the last upload and address them to the region's
/// collector. The batch is only *buffered* here — pricing, collector
/// admission and the storage drain all happen in the engine's barrier
/// ingest pass, so everything a vehicle does is a pure function of its
/// private DDI stream.
fn ingest_tick(cfg: &FleetConfig, v: &mut VehicleState, out: &mut BatchOut, now: SimTime) {
    let ingest = cfg.ingest.as_ref().expect("ingest ticks imply config");
    let horizon = cfg.horizon();
    let region = v.region;
    // Fixed draw order on the DDI stream: priority, then reschedule
    // jitter — the stream replays identically however the fleet is
    // batched.
    let d = v.ddi.as_mut().expect("ingest ticks imply uplink state");
    let seq = d.seq;
    d.seq += 1;
    let priority = d.rng.below(4) as u8;
    let next_jitter = d.rng.uniform();
    let delay = ingest.upload_period.mul_f64(0.9 + 0.2 * next_jitter);
    v.next_ingest = (now + delay <= horizon).then(|| now + delay);
    out.ingest_outbox.push(UploadBatch {
        vehicle: u64::from(v.id),
        region,
        seq,
        records: ingest.records_per_batch,
        bytes: ingest.batch_bytes(),
        sent_at: now,
        deadline: now + ingest.deadline,
        priority,
    });
}

// --- snapshot codec --------------------------------------------------

/// Writes one vehicle's private run-time state: both RNG stream
/// positions, sequence counters, the stored next-event times (which
/// the next epoch advance resumes from on restore), handoff debt, and
/// the stale collab-cache flag. Its id, tenant and region are not
/// written: the slot, the config and the mobility track give them.
pub(crate) fn enc_vehicle(w: &mut JsonWriter, v: &VehicleState) {
    w.begin_object();
    w.key("cache_stale").bool(v.cache_stale);
    w.key("ddi");
    enc_opt(w, v.ddi.as_ref(), |w, ddi| {
        w.begin_object().key("rng");
        enc_rng(w, &ddi.rng);
        w.key("seq").u32(ddi.seq).end_object();
    });
    w.key("next_ingest");
    enc_opt_time(w, v.next_ingest);
    w.key("next_tick");
    enc_opt_time(w, v.next_tick);
    w.key("pending_handoff").hex(v.pending_handoff.as_nanos());
    w.key("rng");
    enc_rng(w, &v.rng);
    w.key("seq").u32(v.seq);
    w.end_object();
}

/// Decodes vehicle `id`, driving in `region`, from a snapshot taken at
/// barrier `t_snap`, rejecting state no run could have reached: a DDI
/// uplink the config disagrees with, a next event outside
/// `(t_snap, horizon]`, or more sequence numbers than ticks by
/// `t_snap`.
pub(crate) fn dec_vehicle(
    cfg: &FleetConfig,
    v: &Value,
    id: u32,
    region: u32,
    t_snap: SimTime,
) -> Result<VehicleState, CkptError> {
    let ddi = section(v, "ddi", cfg.ingest.as_ref(), "DDI ingestion", |enc, _| {
        Ok(DdiUplink {
            rng: rng_field(enc, "rng")?,
            seq: get_u32(enc, "seq")?,
        })
    })?;
    let vehicle = VehicleState {
        id,
        tenant: cfg.tenant_of(id),
        region,
        rng: rng_field(v, "rng")?,
        seq: get_u32(v, "seq")?,
        ddi,
        next_tick: opt_time_field(v, "next_tick")?,
        next_ingest: opt_time_field(v, "next_ingest")?,
        pending_handoff: dur_field(v, "pending_handoff")?,
        cache_stale: get_bool(v, "cache_stale")?,
    };
    let reject = |what: String| Err(CkptError::new(format!("vehicle slot {id}: {what}")));
    if vehicle.ddi.is_none() && vehicle.next_ingest.is_some() {
        return reject("ingest upload scheduled without ingestion".into());
    }
    let horizon = cfg.horizon();
    for (name, at) in [
        ("next_tick", vehicle.next_tick),
        ("next_ingest", vehicle.next_ingest),
    ] {
        if at.is_some_and(|t| t <= t_snap || t > horizon) {
            return reject(format!("{name} outside (barrier, horizon]"));
        }
    }
    // Ticks come at least 0.9 periods apart after a first one inside
    // the first period; twice the period's rate bounds them with room
    // to spare and keeps a restored `seq` far from `u32::MAX`.
    let most =
        |period: SimDuration| t_snap.elapsed().as_nanos().saturating_mul(2) / period.as_nanos() + 1;
    let uplink = vehicle.ddi.as_ref().zip(cfg.ingest.as_ref());
    for (name, seq, period) in [("seq", vehicle.seq, cfg.request_period)]
        .into_iter()
        .chain(uplink.map(|(d, ing)| ("ddi seq", d.seq, ing.upload_period)))
    {
        if u64::from(seq) > most(period) {
            return reject(format!(
                "{name} {seq} past the ticks a run reaches by the barrier"
            ));
        }
    }
    Ok(vehicle)
}

/// Writes the shared V2V snapshot (tile → producer). Tile coordinates
/// travel as the hex of their two's-complement bits, so negative
/// tiles survive the `f64`-backed number parser.
pub(crate) fn enc_collab(w: &mut JsonWriter, snapshot: &CollabSnapshot) {
    w.begin_array();
    for (tile, &producer) in snapshot {
        w.begin_array().hex(tile.0 as u64).u32(producer).end_array();
    }
    w.end_array();
}

/// Decodes the shared V2V snapshot.
pub(crate) fn dec_collab(v: &Value, key: &str) -> Result<CollabSnapshot, CkptError> {
    let mut snapshot = CollabSnapshot::new();
    for pair in get_array(v, key)? {
        let entry = val_array(pair)?;
        let [tile, producer] = entry else {
            return Err(CkptError::new("collab entry must be a pair"));
        };
        snapshot.insert(Tile(val_u64_hex(tile)? as i64), val_u32(producer)?);
    }
    Ok(snapshot)
}

/// The route cohort a vehicle belongs to.
pub(crate) fn cohort_of(id: u32) -> u32 {
    (id / 16) % ROUTE_COHORTS
}

/// The road tile a vehicle occupies at `now`. Cohorts drive parallel
/// offsets of the same route at [`SPEED_MPH`], so two cohort-mates
/// always share a tile while vehicles of different cohorts never do.
pub(crate) fn tile_at(id: u32, now: SimTime) -> Tile {
    let hours = now.elapsed().as_secs_f64() / 3600.0;
    let miles = f64::from(cohort_of(id)) * 0.5 + SPEED_MPH * hours;
    Tile::containing(miles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SimDuration;

    #[test]
    fn cohort_mates_share_tiles_strangers_do_not() {
        let t = SimTime::from_secs(30);
        // Vehicles 0 and 5 share cohort 0; vehicle 16 is cohort 1.
        assert_eq!(cohort_of(0), cohort_of(5));
        assert_ne!(cohort_of(0), cohort_of(16));
        assert_eq!(tile_at(0, t), tile_at(5, t));
        assert_ne!(tile_at(0, t), tile_at(16, t));
    }

    #[test]
    fn a_vehicle_outcome_stays_within_forty_bytes() {
        assert!(std::mem::size_of::<VehicleOutcome>() <= 40);
    }

    #[test]
    fn vehicles_move_across_tiles_over_time() {
        let start = tile_at(3, SimTime::ZERO);
        let later = tile_at(3, SimTime::ZERO + SimDuration::from_secs(60));
        assert_ne!(start, later, "30 mph for 60 s crosses a 0.1-mile tile");
    }
}
