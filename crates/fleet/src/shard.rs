//! One fleet shard: a set of vehicles advanced epoch-by-epoch as
//! stealable batches.
//!
//! Shards never communicate directly. During an epoch a shard only
//! *reads* globally-deterministic inputs (virtual time, the compiled
//! fault timeline, the previous barrier's V2V snapshot) and *buffers*
//! its outputs (edge requests, result publications, failover samples)
//! for the engine to exchange at the barrier. Vehicles inside the same
//! shard are isolated from each other exactly as strictly as vehicles
//! in different shards — that symmetry is what makes an N-shard run
//! reproduce a 1-shard run bit-for-bit.
//!
//! There is no central event queue: each vehicle stores its own next
//! request-tick and next ingest-upload time, and an epoch advance just
//! replays each vehicle's private timeline up to the epoch boundary.
//! That makes the vehicle the unit of work — [`Shard::batches`] splits
//! the hosted fleet (in canonical id order) into fixed-size
//! [`VehicleBatch`]es that the engine fans out across its work-stealing
//! executor, and [`Shard::merge`] folds the results back in the same
//! canonical order, so which worker ran a batch (or when it was
//! stolen) can never reach any report.
//!
//! Without mobility a shard owns a contiguous id block for the whole
//! run. With mobility ([`crate::FleetConfig::with_mobility`]) vehicles
//! are keyed by id and the engine *migrates* them between shards at
//! epoch barriers as they cross region boundaries: the whole
//! [`VehicleState`] (RNG streams, sequence counters, DDI uplink,
//! pending handoff debt, stored next-event times) moves, and the
//! destination shard simply resumes the vehicle's timeline — there is
//! no queue to leave stale events behind in.
//!
//! Each request tick draws its [`vdap_edgeos::WorkloadClass`] from the
//! config's weighted mix using the vehicle's private RNG stream, so the
//! same vehicle issues the same class sequence no matter how the fleet
//! is sharded or batched, and every vehicle-side cost (fallback
//! service, V2V fetch bytes) is priced by the drawn class's
//! [`crate::ClassSpec`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vdap_ddi::UploadBatch;
use vdap_edgeos::WorkloadClass;
use vdap_fault::FaultInjector;
use vdap_net::{Direction, LinkSpec};
use vdap_obs::{RequestSpan, SpanOutcome};
use vdap_offload::Tile;
use vdap_sim::{SeedFactory, SimDuration, SimTime};

use crate::config::{region_label, FleetConfig};
use crate::edge::EdgeRequest;
use crate::metrics::FleetMetrics;
use crate::vehicle::{tile_at, DdiUplink, VehicleState, BOARD_W, DSRC_W};

/// The V2V snapshot published at the previous barrier: tile → producer.
pub(crate) type CollabSnapshot = BTreeMap<Tile, u32>;

/// One fleet shard: its hosted vehicles plus the output buffers the
/// engine drains at each barrier.
pub(crate) struct Shard {
    /// Vehicles this shard currently hosts, keyed by fleet id.
    pub vehicles: BTreeMap<u32, VehicleState>,
    /// Requests bound for the edge, drained at the barrier.
    pub outbox: Vec<EdgeRequest>,
    /// Telemetry upload batches bound for the regional DDI collectors,
    /// drained at the barrier.
    pub ingest_outbox: Vec<UploadBatch>,
    /// Cacheable results produced this epoch: (tile, producer).
    pub publications: Vec<(Tile, u32)>,
    /// Failover latency samples `(vehicle, seq, ms)`, drained at the
    /// barrier and recorded fleet-wide in canonical order.
    pub failover_samples: Vec<(u32, u32, f64)>,
    /// Previous barrier's V2V snapshot (read-only during the epoch).
    pub snapshot: Arc<CollabSnapshot>,
    /// Spans for requests resolved on the vehicle side (collab hits,
    /// regional-outage failovers), drained at the barrier. Empty unless
    /// the config enables telemetry.
    pub spans: Vec<RequestSpan>,
    /// V2V lookups that *would* have hit but were suppressed because
    /// the vehicle's collab cache went stale at its last crossing,
    /// drained into `MobilityMetrics` at the barrier.
    pub stale_hits: u64,
    /// Shard-local mergeable metrics.
    pub metrics: FleetMetrics,
    /// Per-vehicle events (request ticks + ingest uploads) processed by
    /// this shard's batches, for the deterministic event ledger.
    pub events: u64,
    /// Cumulative wall-clock attributed to this shard's batches,
    /// wherever they ran (diagnostics only, never feeds the
    /// deterministic report).
    pub busy: Duration,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("vehicles", &self.vehicles.len())
            .field("outbox", &self.outbox.len())
            .field("events", &self.events)
            .finish()
    }
}

impl Shard {
    fn empty(snapshot: Arc<CollabSnapshot>) -> Self {
        Shard {
            vehicles: BTreeMap::new(),
            outbox: Vec::new(),
            ingest_outbox: Vec::new(),
            publications: Vec::new(),
            failover_samples: Vec::new(),
            snapshot,
            spans: Vec::new(),
            stale_hits: 0,
            metrics: FleetMetrics::new(),
            events: 0,
            busy: Duration::ZERO,
        }
    }

    /// Builds shard `index` over the vehicles it initially hosts and
    /// draws every vehicle's first request-tick (and ingest-upload)
    /// phase, in canonical id order.
    pub fn new(index: u32, cfg: &Arc<FleetConfig>, seeds: &SeedFactory) -> Self {
        // Without mobility the initial assignment is the contiguous id
        // range; with mobility it is the contiguous *region* block, so
        // a vehicle starts on the shard that owns its starting region.
        let mut shard = Shard::empty(Arc::new(CollabSnapshot::new()));
        // First ticks: deterministic per-vehicle phase in [0, period),
        // drawn from each vehicle's private streams in a fixed order
        // (tick phase, then ingest phase).
        let period = cfg.request_period.as_secs_f64();
        let upload_period = cfg.ingest.as_ref().map(|i| i.upload_period.as_secs_f64());
        for id in (0..cfg.vehicles).filter(|&id| cfg.initial_shard_of(id) == index) {
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
                generation: 0,
                next_tick: None,
                next_ingest: None,
                pending_handoff: SimDuration::ZERO,
                cache_stale: false,
            };
            let offset = v.rng.uniform_range(0.0, period);
            v.next_tick = Some(SimTime::ZERO + SimDuration::from_secs_f64(offset));
            if let Some(period) = upload_period {
                let offset = v
                    .ddi
                    .as_mut()
                    .expect("ingest on")
                    .rng
                    .uniform_range(0.0, period);
                v.next_ingest = Some(SimTime::ZERO + SimDuration::from_secs_f64(offset));
            }
            shard.vehicles.insert(id, v);
        }
        shard
    }

    /// Rebuilds shard `index` mid-run from restored vehicles. Every
    /// stored next-event time is strictly after the snapshot barrier by
    /// construction, so the next epoch advance resumes each vehicle's
    /// timeline exactly where the writer left it.
    pub fn restore(
        index: u32,
        cfg: &Arc<FleetConfig>,
        vehicles: Vec<VehicleState>,
        snapshot: Arc<CollabSnapshot>,
    ) -> Self {
        debug_assert!(vehicles
            .iter()
            .all(|v| cfg.mobility.is_some() || cfg.initial_shard_of(v.id) == index));
        let _ = index;
        let mut shard = Shard::empty(snapshot);
        for v in vehicles {
            shard.vehicles.insert(v.id, v);
        }
        shard
    }

    /// Removes a vehicle for migration, bumping its migration
    /// generation (carried in snapshots so a restored run replays the
    /// same residency history).
    pub fn evict(&mut self, id: u32) -> Option<VehicleState> {
        self.vehicles.remove(&id).map(|mut v| {
            v.generation = v.generation.wrapping_add(1);
            v
        })
    }

    /// Adopts a migrated vehicle: its stored next-event times resume on
    /// this shard's next epoch advance.
    pub fn adopt(&mut self, v: VehicleState) {
        self.vehicles.insert(v.id, v);
    }

    /// Drains the hosted fleet (in canonical id order) into stealable
    /// batches of at most `batch_size` vehicles for the epoch's tick
    /// phase. Counterpart of [`Shard::merge`].
    pub fn batches(&mut self, shard: usize, batch_size: usize) -> Vec<VehicleBatch> {
        debug_assert!(batch_size > 0, "validated by FleetConfig");
        let vehicles = std::mem::take(&mut self.vehicles);
        let mut batches = Vec::with_capacity(vehicles.len().div_ceil(batch_size.max(1)));
        let mut iter = vehicles.into_values().peekable();
        while iter.peek().is_some() {
            batches.push(VehicleBatch {
                shard,
                vehicles: iter.by_ref().take(batch_size).collect(),
                snapshot: Arc::clone(&self.snapshot),
                out: BatchOut::new(),
                busy: Duration::ZERO,
            });
        }
        batches
    }

    /// Folds one advanced batch back into the shard. The engine calls
    /// this in canonical submission order (shards ascending, batches in
    /// id order), and every buffer append and metrics merge below is
    /// order-free across batches anyway — the steal schedule cannot
    /// reach any report.
    pub fn merge(&mut self, batch: VehicleBatch) {
        debug_assert!(std::ptr::eq(
            Arc::as_ptr(&batch.snapshot),
            Arc::as_ptr(&self.snapshot)
        ));
        for v in batch.vehicles {
            self.vehicles.insert(v.id, v);
        }
        let out = batch.out;
        self.outbox.extend(out.outbox);
        self.ingest_outbox.extend(out.ingest_outbox);
        self.publications.extend(out.publications);
        self.failover_samples.extend(out.failover_samples);
        self.spans.extend(out.spans);
        self.stale_hits += out.stale_hits;
        self.events += out.events;
        self.metrics.merge(&out.metrics);
        self.busy += batch.busy;
    }
}

/// Output buffers one batch fills while advancing its vehicles: the
/// batch-private slice of what used to be shard state, merged back in
/// canonical order at the barrier.
struct BatchOut {
    outbox: Vec<EdgeRequest>,
    ingest_outbox: Vec<UploadBatch>,
    publications: Vec<(Tile, u32)>,
    failover_samples: Vec<(u32, u32, f64)>,
    spans: Vec<RequestSpan>,
    stale_hits: u64,
    events: u64,
    metrics: FleetMetrics,
}

impl BatchOut {
    fn new() -> Self {
        BatchOut {
            outbox: Vec::new(),
            ingest_outbox: Vec::new(),
            publications: Vec::new(),
            failover_samples: Vec::new(),
            spans: Vec::new(),
            stale_hits: 0,
            events: 0,
            metrics: FleetMetrics::new(),
        }
    }
}

/// A fixed-size slice of one shard's vehicles, advanced independently
/// on any executor worker. Batches are order-free by construction:
/// every RNG draw comes from a stream owned by one vehicle, every
/// branch reads only time-determined inputs (the fault timeline, the
/// previous barrier's snapshot), and every output lands in the batch's
/// private buffers.
pub(crate) struct VehicleBatch {
    /// Owning shard index, for the canonical merge.
    pub shard: usize,
    vehicles: Vec<VehicleState>,
    snapshot: Arc<CollabSnapshot>,
    out: BatchOut,
    /// Wall-clock this batch's advance took on whichever worker ran it
    /// (diagnostics only).
    pub busy: Duration,
}

impl VehicleBatch {
    /// Advances every vehicle in the batch to the epoch boundary
    /// `end` (inclusive), replaying each vehicle's private timeline of
    /// request ticks and ingest uploads.
    pub fn advance(
        &mut self,
        cfg: &FleetConfig,
        injector: Option<&FaultInjector>,
        region_labels: &[String],
        end: SimTime,
    ) {
        let started = Instant::now();
        for v in &mut self.vehicles {
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
                        tick(
                            cfg,
                            injector,
                            region_labels,
                            &self.snapshot,
                            v,
                            &mut self.out,
                            t,
                        );
                    }
                    (None, Some(g)) => {
                        ingest_tick(cfg, v, &mut self.out, g);
                    }
                    (None, None) => break,
                }
                self.out.events += 1;
            }
        }
        self.busy = started.elapsed();
    }
}

/// One vehicle request tick at time `now`. All branching depends only
/// on virtual time, the fault timeline, the previous barrier's
/// snapshot, and the vehicle's private RNG — inputs independent of
/// shard count, batch size, and steal schedule alike.
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
    let spec = cfg.class(class);

    let region_down =
        injector.is_some_and(|inj| inj.is_down(&region_labels[v.region as usize], now));

    out.metrics.record_request(class);
    if region_down {
        // Regional LTE outage: re-plan and run the pipeline on board
        // (a pBEAM round continues training locally at its own cost).
        let failover = cfg.failover_penalty.mul_f64(1.0 + 0.2 * jitter);
        let service = spec.vehicle_service.mul_f64(1.0 + 0.1 * jitter);
        let e2e = handoff + failover + service;
        out.metrics
            .record_failover(class, e2e, service.as_secs_f64() * BOARD_W);
        out.failover_samples
            .push((v.id, seq, failover.as_millis_f64()));
        if cfg.telemetry {
            out.spans.push(vehicle_span(
                cfg,
                v.id,
                seq,
                class,
                now,
                e2e,
                SpanOutcome::Failover,
            ));
        }
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
            // V2V collaboration hit: fetch the neighbour's result over
            // DSRC instead of recomputing.
            let dsrc = LinkSpec::dsrc();
            let fetch = dsrc.transfer_time(Direction::Downlink, spec.download_bytes);
            let merge = SimDuration::from_millis_f64(2.0 + jitter);
            let e2e = handoff + dsrc.latency() + fetch + merge;
            out.metrics
                .record_collab(class, e2e, fetch.as_secs_f64() * DSRC_W);
            if cfg.telemetry {
                out.spans.push(vehicle_span(
                    cfg,
                    v.id,
                    seq,
                    class,
                    now,
                    e2e,
                    SpanOutcome::CollabHit,
                ));
            }
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
    // jitter — the stream replays identically at any shard count.
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

/// Builds a span for a request resolved entirely on the vehicle side
/// (collab hits and regional-outage failovers never reach the edge, so
/// `admitted` and `serve_start` stay empty).
fn vehicle_span(
    cfg: &FleetConfig,
    vehicle: u32,
    seq: u32,
    class: WorkloadClass,
    generated: SimTime,
    e2e: SimDuration,
    outcome: SpanOutcome,
) -> RequestSpan {
    RequestSpan {
        vehicle,
        seq,
        tenant: cfg.tenant_of(vehicle),
        region: cfg.region_of(vehicle),
        shard: cfg.shard_of(vehicle),
        class: class.label(),
        generated,
        admitted: None,
        serve_start: None,
        completed: generated + e2e,
        outcome,
        retries: 0,
        requeues: 0,
        handoff: false,
    }
}

/// Builds the label table `region id → fault target label`.
pub(crate) fn region_label_table(regions: u32) -> Vec<String> {
    (0..regions).map(region_label).collect()
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{
    dur_field, enc_opt, enc_opt_time, enc_rng, opt_time_field, rng_field, val_array,
};
use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{get, get_array, get_bool, get_u32, CkptError};

/// Writes one vehicle's complete private state: both RNG stream
/// positions, sequence counters, migration generation, the stored
/// next-event times (which the next epoch advance resumes from on
/// restore), handoff debt, and the stale collab-cache flag.
pub(crate) fn enc_vehicle(w: &mut JsonWriter, v: &VehicleState) {
    w.begin_object();
    w.key("cache_stale").bool(v.cache_stale);
    w.key("ddi");
    enc_opt(w, v.ddi.as_ref(), |w, ddi| {
        w.begin_object().key("rng");
        enc_rng(w, &ddi.rng);
        w.key("seq").u32(ddi.seq).end_object();
    });
    w.key("generation").u32(v.generation);
    w.key("id").u32(v.id);
    w.key("next_ingest");
    enc_opt_time(w, v.next_ingest);
    w.key("next_tick");
    enc_opt_time(w, v.next_tick);
    w.key("pending_handoff").hex(v.pending_handoff.as_nanos());
    w.key("region").u32(v.region);
    w.key("rng");
    enc_rng(w, &v.rng);
    w.key("seq").u32(v.seq);
    w.key("tenant").u32(v.tenant);
    w.end_object();
}

/// Decodes one vehicle, checking the stored DDI uplink against the
/// restoring config's ingest flag.
pub(crate) fn dec_vehicle(cfg: &FleetConfig, v: &Value) -> Result<VehicleState, CkptError> {
    let ddi = match (get(v, "ddi")?, cfg.ingest.is_some()) {
        (Value::Null, false) => None,
        (enc, true) => Some(DdiUplink {
            rng: rng_field(enc, "rng")?,
            seq: get_u32(enc, "seq")?,
        }),
        _ => {
            return Err(CkptError::new(
                "snapshot and config disagree on DDI ingestion",
            ))
        }
    };
    Ok(VehicleState {
        id: get_u32(v, "id")?,
        tenant: get_u32(v, "tenant")?,
        region: get_u32(v, "region")?,
        rng: rng_field(v, "rng")?,
        seq: get_u32(v, "seq")?,
        ddi,
        generation: get_u32(v, "generation")?,
        next_tick: opt_time_field(v, "next_tick")?,
        next_ingest: opt_time_field(v, "next_ingest")?,
        pending_handoff: dur_field(v, "pending_handoff")?,
        cache_stale: get_bool(v, "cache_stale")?,
    })
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
        snapshot.insert(
            Tile(crate::ckpt::dec_i64(tile)?),
            crate::ckpt::val_u32(producer)?,
        );
    }
    Ok(snapshot)
}
