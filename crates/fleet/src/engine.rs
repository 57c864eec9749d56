//! The sharded fleet engine: epoch loop, barriers, and the run report.
//!
//! ## Why an N-shard run is bit-identical to a 1-shard run
//!
//! 1. **Partition is id-keyed.** Tenant, region, route cohort and RNG
//!    stream derive from the vehicle id alone ([`crate::FleetConfig`]),
//!    so re-sharding moves vehicles between threads without changing
//!    any vehicle's behaviour.
//! 2. **Epochs are conservative.** During an epoch a vehicle reads only
//!    time-determined inputs (the fault timeline, the *previous*
//!    barrier's V2V snapshot). Vehicles never observe same-epoch state
//!    of any other vehicle — not even shard-mates — so the tick phase
//!    can split each shard into fixed-size vehicle batches and fan them
//!    out across the work-stealing [`WorkerPool`]: which worker runs a
//!    batch, and in what order, is unobservable.
//! 3. **Barriers are canonical.** All cross-vehicle coupling (XEdge
//!    admission, fair queueing, contention, snapshot union, failover
//!    reliability samples) happens single-threaded on globally sorted
//!    data, so shard count, batch size, executor width and buffer
//!    interleaving cannot leak in.
//! 4. **Aggregation is order-free.** Per-shard metrics are integer
//!    counters and [`vdap_sim::StreamingHistogram`]s whose merge is
//!    associative and commutative bit-for-bit, and batch outputs are
//!    folded back in canonical `(shard, vehicle id)` order regardless
//!    of the steal schedule that produced them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{
    get, get_array, get_bool, get_f64_bits, get_str, get_u32, get_u64_hex, CkptError, Snapshot,
    SnapshotStore,
};
use vdap_edgeos::WorkloadClass;
use vdap_fault::{FaultEdge, FaultInjector, FaultKind};
use vdap_mobility::{
    Crossing, MobilityMetrics, RegionGraph, RouteProfile, TrackLeg, TrackMotion, TrackSnapshot,
    VehicleTrack,
};
use vdap_net::CellularChannel;
use vdap_obs::{
    intern_name, BarrierProfiler, HistogramState, JsonlSpillSink, RequestSpan, SpanOutcome,
    StreamingHistogram,
};
use vdap_offload::Tile;
use vdap_sim::{ReliabilityStats, RngStream, SeedFactory, SimDuration, SimTime};

use crate::ckpt::{
    check_fingerprint, config_fingerprint, dur_field, enc_hist, enc_metrics, enc_opt, enc_opt_time,
    enc_reliability, enc_rng, enc_words, hist_field, metrics_field, opt_time_field,
    reliability_field, rng_field, time_field, val_array, val_f64_bits, val_pair, val_str, val_u32,
    val_u64_hex, SnapshotDiagnostics, SnapshotWrite,
};
use crate::config::{
    handoff_label, tenant_label, CheckpointConfig, FleetConfig, FleetConfigError, CKPT_STORE_LABEL,
    ENGINE_LABEL,
};
use crate::edge::{EpochOutcome, XEdgeServer};
use crate::ingest::IngestPass;
use crate::metrics::{FleetMetrics, FleetReport, FleetTelemetry};
use crate::pool::WorkerPool;
use crate::shard::{
    dec_collab, dec_vehicle, enc_collab, enc_vehicle, region_label_table, CollabSnapshot, Shard,
};
use crate::vehicle::{VehicleState, BOARD_W, RADIO_W};

/// Deterministic sharded fleet simulation engine.
///
/// # Examples
///
/// ```
/// use vdap_fleet::{FleetConfig, FleetEngine};
/// use vdap_sim::SimDuration;
///
/// let mut cfg = FleetConfig::sized(64, 2);
/// cfg.duration = SimDuration::from_secs(5);
/// let report = FleetEngine::new(cfg).run();
/// assert!(report.metrics.requests > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FleetEngine {
    cfg: FleetConfig,
}

impl FleetEngine {
    /// Creates an engine for the given scenario, rejecting unusable
    /// configurations (zero counts, more shards than vehicles, an epoch
    /// past the horizon, an empty class mix) with a descriptive
    /// [`FleetConfigError`] instead of a downstream panic or hang.
    pub fn try_new(cfg: FleetConfig) -> Result<Self, FleetConfigError> {
        cfg.validate()?;
        Ok(FleetEngine { cfg })
    }

    /// Creates an engine for the given scenario.
    ///
    /// # Panics
    ///
    /// Panics with the [`FleetConfigError`] message when the
    /// configuration is unusable; use [`FleetEngine::try_new`] to
    /// handle the rejection instead.
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        match FleetEngine::try_new(cfg) {
            Ok(engine) => engine,
            Err(err) => panic!("invalid fleet config: {err}"),
        }
    }

    /// The scenario this engine will run.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Runs the fleet to its horizon and returns the merged report.
    ///
    /// Crash faults in the chaos plan are ignored on this path — an
    /// unsupervised run has nothing to resume from, and no snapshots
    /// are written. Use [`FleetEngine::run_supervised`] for both.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        let ctx = RunCtx::new(&self.cfg);
        match run_core(&ctx, EngineState::fresh(&ctx), None, &[]) {
            RunEnd::Completed(report) => *report,
            RunEnd::Crashed { .. } => unreachable!("run() honors no crash faults"),
        }
    }

    /// Runs the fleet under a crash supervisor backed by `store`.
    ///
    /// At every checkpoint barrier (see [`FleetConfig::with_checkpoint`])
    /// the complete deterministic engine state is serialized into the
    /// store; a seeded [`FaultKind::EngineCrash`] kills the run at its
    /// epoch barrier, and the supervisor resumes from the newest
    /// snapshot whose checksum still verifies — falling back a
    /// generation past torn or corrupted writes, or restarting from
    /// scratch when no valid snapshot survives. The returned report's
    /// summary is byte-identical to the same scenario's straight
    /// [`FleetEngine::run`]; only wall-clock diagnostics differ.
    #[must_use]
    pub fn run_supervised(&self, store: &mut SnapshotStore) -> FleetReport {
        let ctx = RunCtx::new(&self.cfg);
        let crashes: Vec<u64> = ctx
            .injector
            .as_deref()
            .map(|inj| inj.engine_crashes(ENGINE_LABEL))
            .unwrap_or_default();
        // The fence rises past each crash already taken, so a restored
        // leg replaying the same epochs does not die twice on the same
        // fault window.
        let mut fence = 0u64;
        let mut state = EngineState::fresh(&ctx);
        loop {
            let live: Vec<u64> = crashes.iter().copied().filter(|&e| e > fence).collect();
            match run_core(&ctx, state, Some(store), &live) {
                RunEnd::Completed(report) => return *report,
                RunEnd::Crashed { epoch, snapshots } => {
                    fence = epoch;
                    let (snap, rejected) = store.newest_valid();
                    let mut carried = snapshots;
                    carried.resumes += 1;
                    carried.rejected_generations.extend(rejected);
                    state = match snap {
                        Some(snapshot) => {
                            let started = Instant::now();
                            let restored = state_from_snapshot(&ctx, &snapshot.payload)
                                .expect("checksum-valid snapshot decodes");
                            carried.load_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                            restored
                        }
                        // Every stored generation failed its checksum:
                        // restart from scratch. Determinism makes this
                        // indistinguishable (minus wall clock) from
                        // never having crashed.
                        None => EngineState::fresh(&ctx),
                    };
                    state.snapshots = carried;
                }
            }
        }
    }

    /// Resumes a run from `snapshot` and drives it to the horizon.
    ///
    /// The snapshot must come from a scenario with the same fingerprint
    /// (seed, fleet shape, subsystem toggles). The *shard count* is
    /// deliberately not fingerprinted: a snapshot taken by an 8-shard
    /// run restores into a 1-shard engine and vice versa, and the
    /// resumed report's summary stays byte-identical either way.
    pub fn restore(&self, snapshot: &Snapshot) -> Result<FleetReport, CkptError> {
        let ctx = RunCtx::new(&self.cfg);
        let started = Instant::now();
        let mut state = state_from_snapshot(&ctx, &snapshot.payload)?;
        if snapshot.generation != state.epoch_index {
            return Err(CkptError::new(format!(
                "snapshot generation {} disagrees with payload epoch {}",
                snapshot.generation, state.epoch_index
            )));
        }
        state.snapshots.load_ms = Some(started.elapsed().as_secs_f64() * 1e3);
        state.snapshots.resumes = 1;
        match run_core(&ctx, state, None, &[]) {
            RunEnd::Completed(report) => Ok(*report),
            RunEnd::Crashed { .. } => unreachable!("restore() honors no crash faults"),
        }
    }
}

/// Immutable per-run context: everything the engine loop needs that is
/// a pure function of the scenario and therefore never serialized.
struct RunCtx {
    cfg: Arc<FleetConfig>,
    seeds: SeedFactory,
    injector: Option<Arc<FaultInjector>>,
    region_labels: Arc<Vec<String>>,
    tenant_labels: Vec<String>,
    horizon: SimTime,
}

impl RunCtx {
    fn new(cfg: &FleetConfig) -> Self {
        let cfg = Arc::new(cfg.clone());
        let seeds = SeedFactory::new(cfg.seed);
        let injector = cfg.chaos.as_ref().map(|plan| Arc::new(plan.compile()));
        let region_labels = Arc::new(region_label_table(cfg.regions));
        let tenant_labels = (0..cfg.tenants).map(tenant_label).collect();
        let horizon = cfg.horizon();
        RunCtx {
            cfg,
            seeds,
            injector,
            region_labels,
            tenant_labels,
            horizon,
        }
    }
}

/// The complete mutable engine state carried across epoch barriers —
/// exactly the set a snapshot serializes and a restore rebuilds.
struct EngineState {
    shards: Vec<Shard>,
    edge: XEdgeServer,
    engine_metrics: FleetMetrics,
    reliability: ReliabilityStats,
    telemetry: Option<FleetTelemetry>,
    ingest: Option<IngestPass>,
    mobility: Option<MobilityPass>,
    ladder_rng: RngStream,
    epoch_index: u64,
    /// Net events already accounted by pre-crash legs (0 on a fresh
    /// run; a restore folds the writing run's shard ledgers into it).
    events_base: u64,
    /// Wall-clock snapshot diagnostics, carried across supervised legs.
    snapshots: SnapshotDiagnostics,
}

impl EngineState {
    /// Epoch-0 state for a scenario, with the availability preamble
    /// already written.
    fn fresh(ctx: &RunCtx) -> Self {
        let cfg = &ctx.cfg;
        let shards: Vec<Shard> = (0..cfg.shards)
            .map(|i| Shard::new(i, cfg, &ctx.seeds))
            .collect();
        let mut reliability = ReliabilityStats::new();

        // The fault timeline is a pure function of the plan, so the
        // fleet-wide availability ledger can be written up front in
        // time order. Tenant-quota flaps are folded into the per-tenant
        // ledger below instead of the generic one, so a tenant's MTTR
        // reflects both its own flaps and fleet-wide node crashes
        // without double-counting the same label. Engine crashes are
        // preambled too: their downtime is fixed by the plan, so the
        // resume window lands in MTTR whether or not this particular
        // run path honors the crash.
        if let Some(inj) = ctx.injector.as_deref() {
            let mut transitions = inj.transitions();
            transitions.sort_by_key(|t| (t.at, t.window));
            for tr in transitions {
                let window = &inj.windows()[tr.window];
                if matches!(window.kind, FaultKind::TenantQuotaFlap { .. }) {
                    continue;
                }
                match tr.edge {
                    FaultEdge::Start => reliability.record_fault(&window.target, tr.at),
                    FaultEdge::End => reliability.record_recovery(&window.target, tr.at),
                }
            }
            record_tenant_ledger(&mut reliability, inj, cfg, ctx.horizon);
        }

        EngineState {
            shards,
            edge: XEdgeServer::new(cfg),
            engine_metrics: FleetMetrics::new(),
            reliability,
            telemetry: cfg.telemetry.then(|| {
                FleetTelemetry::configured(
                    cfg.telemetry_budget,
                    cfg.span_sample,
                    cfg.span_spill.clone(),
                    cfg.seed,
                )
            }),
            ingest: cfg
                .ingest
                .as_ref()
                .map(|_| IngestPass::new(cfg, &ctx.seeds)),
            mobility: cfg
                .mobility
                .as_ref()
                .map(|mob| MobilityPass::new(mob, cfg, &ctx.seeds)),
            // Ladder randomness is engine-owned and consumed in
            // canonical batch order at barriers, so it is shard-count
            // invariant.
            ladder_rng: ctx.seeds.stream("fleet-ladder"),
            epoch_index: 0,
            events_base: 0,
            snapshots: SnapshotDiagnostics::default(),
        }
    }
}

/// How one leg of the engine loop ended.
enum RunEnd {
    /// Ran to the horizon: the merged report.
    Completed(Box<FleetReport>),
    /// A seeded engine crash fired at this epoch barrier. The write
    /// diagnostics accumulated so far ride along to the next leg.
    Crashed {
        epoch: u64,
        snapshots: SnapshotDiagnostics,
    },
}

/// Drives `state` from its current epoch to the horizon — the single
/// engine loop behind [`FleetEngine::run`], [`FleetEngine::run_supervised`]
/// and [`FleetEngine::restore`].
///
/// With a `store` wired and a checkpoint config present, the complete
/// state is snapshotted at every interval barrier — after the barrier's
/// canonical exchange, when every cross-shard queue is drained and all
/// scheduled events lie strictly beyond the barrier. `crashes` lists
/// epoch barriers at which a supervised leg dies (empty on unsupervised
/// paths).
fn run_core(
    ctx: &RunCtx,
    mut state: EngineState,
    mut store: Option<&mut SnapshotStore>,
    crashes: &[u64],
) -> RunEnd {
    let cfg = &ctx.cfg;
    let horizon = ctx.horizon;
    let injector = ctx.injector.as_deref();
    let pool = WorkerPool::new(cfg.executor_pool_size());
    let batch_size = cfg.batch_size as usize;
    // The profiler measures this leg's wall clock only — diagnostics,
    // so a resumed run legitimately reports a shorter profile.
    let mut profiler = BarrierProfiler::new(pool.threads(), cfg.shards as usize);
    loop {
        let end_raw = SimTime::ZERO + cfg.epoch * (state.epoch_index + 1);
        let end = if end_raw > horizon { horizon } else { end_raw };

        // ---- tick phase: stealable vehicle batches, fork/join ----
        // Split every shard's fleet into fixed-size batches and fan
        // them out across the work-stealing pool. Each batch advances
        // its vehicles to the barrier against the previous epoch's
        // collab snapshot; the steal schedule is unobservable because
        // every vehicle owns its RNG streams and every batch output is
        // merged back in canonical order below.
        let mut batches = Vec::new();
        for (i, shard) in state.shards.iter_mut().enumerate() {
            batches.extend(shard.batches(i, batch_size));
        }
        let wall_started = Instant::now();
        let samples = pool.for_each_mut(&mut batches, |_, b| {
            b.advance(cfg, injector, &ctx.region_labels, end);
        });
        let wall = wall_started.elapsed();

        // ---- barrier: single-threaded, canonical-order exchange ----
        // The canonical merge is serial barrier work: shards ascending,
        // batches in vehicle-id order within each shard.
        let barrier_started = Instant::now();
        let mut shard_busy = vec![Duration::ZERO; state.shards.len()];
        for b in &batches {
            shard_busy[b.shard] += b.busy;
        }
        for b in batches {
            let shard = b.shard;
            state.shards[shard].merge(b);
        }
        profiler.record_epoch(wall, &samples, &shard_busy);
        let mut batch = Vec::new();
        let mut ingest_batches = Vec::new();
        let mut publications: Vec<(Tile, u32)> = Vec::new();
        let mut failovers: Vec<(u32, u32, f64)> = Vec::new();
        for shard in &mut state.shards {
            batch.append(&mut shard.outbox);
            ingest_batches.append(&mut shard.ingest_outbox);
            publications.append(&mut shard.publications);
            failovers.append(&mut shard.failover_samples);
            if let Some(tel) = state.telemetry.as_mut() {
                for span in shard.spans.drain(..) {
                    tel.registry.inc(
                        match span.outcome {
                            SpanOutcome::CollabHit => "fleet.collab_hits",
                            _ => "fleet.failovers",
                        },
                        1,
                    );
                    tel.absorb(span);
                }
            }
        }

        // Failover latencies feed an exact (order-sensitive) Summary,
        // so sort them canonically before recording.
        failovers.sort_unstable_by_key(|&(vehicle, seq, _)| (vehicle, seq));
        for &(_, _, ms) in &failovers {
            state
                .reliability
                .record_failover(SimDuration::from_millis_f64(ms));
        }

        let outcome = state
            .edge
            .serve_epoch(batch, end, injector, &mut state.ladder_rng);
        state
            .engine_metrics
            .queue_depth
            .record(outcome.queue_depth as f64);
        state
            .engine_metrics
            .elastic_lanes
            .record(f64::from(outcome.lanes));
        if outcome.scaled_up {
            state.engine_metrics.scale_ups += 1;
        }
        if outcome.scaled_down {
            state.engine_metrics.scale_downs += 1;
        }
        record_outcome(
            &mut state.engine_metrics,
            &mut state.reliability,
            &outcome,
            cfg,
            &ctx.tenant_labels,
            state.telemetry.as_mut(),
        );
        if let Some(tel) = state.telemetry.as_mut() {
            sample_epoch(tel, &outcome, state.epoch_index, end);
        }

        // The DDI ingestion pass: collector admission, the ingest
        // degradation ladder, and the storage drain — all sampled
        // at this barrier only, on canonically sorted batches.
        if let Some(ing) = state.ingest.as_mut() {
            let epoch_start = SimTime::ZERO + cfg.epoch * state.epoch_index;
            ing.barrier(
                std::mem::take(&mut ingest_batches),
                end - epoch_start,
                end,
                state.epoch_index,
                injector,
                &mut state.reliability,
                state.telemetry.as_mut(),
            );
        }

        // The geo-mobility pass: advance every seeded track across
        // the epoch just completed, price region crossings, and
        // migrate vehicles whose new region is homed on another
        // shard — all single-threaded, in canonical vehicle order.
        if let Some(mob) = state.mobility.as_mut() {
            let epoch_start = SimTime::ZERO + cfg.epoch * state.epoch_index;
            mob.barrier(
                &mut state.shards,
                &mut state.edge,
                state.ingest.as_mut(),
                injector,
                &mut state.reliability,
                state.telemetry.as_mut(),
                cfg,
                epoch_start,
                end - epoch_start,
                end,
                state.epoch_index,
            );
        }

        // Union this epoch's publications into the next snapshot;
        // ties go to the smallest vehicle id (order-independent).
        let mut snapshot = CollabSnapshot::new();
        for (tile, producer) in publications {
            snapshot
                .entry(tile)
                .and_modify(|p| {
                    if producer < *p {
                        *p = producer;
                    }
                })
                .or_insert(producer);
        }
        let snapshot = Arc::new(snapshot);
        for shard in &mut state.shards {
            shard.snapshot = Arc::clone(&snapshot);
        }

        // Telemetry budget enforcement is the last barrier step, after
        // every span drain and series sample of the epoch, so the
        // resident estimate it acts on is complete — and deterministic.
        if let Some(tel) = state.telemetry.as_mut() {
            tel.barrier_flush(state.epoch_index);
        }

        profiler.record_barrier(barrier_started.elapsed());
        state.epoch_index += 1;

        // ---- durability hooks. Snapshot first, crash second: a   ----
        // ---- crash landing on a checkpoint epoch still leaves    ----
        // ---- its barrier's snapshot behind, like a process dying ----
        // ---- right after fsync.                                  ----
        if let (Some(ck), Some(store)) = (cfg.checkpoint, store.as_deref_mut()) {
            if state.epoch_index.is_multiple_of(ck.interval_epochs) && end < horizon {
                write_snapshot(ctx, &mut state, store, ck, end);
            }
        }
        if end < horizon && crashes.contains(&state.epoch_index) {
            return RunEnd::Crashed {
                epoch: state.epoch_index,
                snapshots: state.snapshots,
            };
        }
        if end >= horizon {
            break;
        }
    }

    // Drain work still pending at the horizon: in-flight lanes
    // complete (their latency is fixed), stranded requeues take the
    // local fallback. The tail belongs to no barrier, so it updates
    // telemetry counters and spans but adds no epoch samples.
    let tail = state.edge.flush(horizon);
    record_outcome(
        &mut state.engine_metrics,
        &mut state.reliability,
        &tail,
        cfg,
        &ctx.tenant_labels,
        state.telemetry.as_mut(),
    );

    // Merge shard-local metrics (associative + commutative). Events
    // are per-vehicle tick/upload fires, so the ledger is independent
    // of which shard (or worker) a vehicle happened to run on.
    let mut metrics = state.engine_metrics;
    let mut events_processed = state.events_base;
    for shard in &state.shards {
        events_processed += shard.events;
        metrics.merge(&shard.metrics);
    }
    if let Some(tel) = state.telemetry.as_mut() {
        tel.registry.inc("fleet.requests", metrics.requests);
        // With spill configured, the horizon tail goes to disk too, so
        // the JSONL segments hold the complete post-sampling stream.
        tel.final_flush(state.epoch_index);
        // Insertion order interleaves vehicle-side and edge-side
        // resolutions arbitrarily; canonical order restores a
        // shard-count-invariant log.
        tel.spans.sort_canonical();
    }
    let region_availability = state
        .reliability
        .faulted_components()
        .iter()
        .map(|c| ((*c).to_string(), state.reliability.availability(c, horizon)))
        .collect();

    RunEnd::Completed(Box::new(FleetReport {
        metrics,
        reliability: state.reliability,
        region_availability,
        vehicles: cfg.vehicles,
        shards: cfg.shards,
        duration: cfg.duration,
        events_processed,
        admission_offered: state.edge.offered(),
        admission_rejected: state.edge.rejected(),
        mobility: state.mobility.as_ref().map(|m| m.metrics.clone()),
        region_admission: state.edge.region_admission_table(),
        physical_migrations: state.mobility.as_ref().map_or(0, |m| m.physical_migrations),
        ingest: state.ingest.as_mut().map(IngestPass::finish),
        telemetry: state.telemetry,
        profile: profiler.finish(),
        snapshots: state.snapshots,
    }))
}

/// Serializes the complete engine state at a barrier and persists it,
/// applying any seeded snapshot-store chaos *to the encoded bytes* on
/// the way in — the store itself stays dumb, exactly like a writer
/// dying mid-`write` (torn) or a bad sector flipping a bit (corrupt).
fn write_snapshot(
    ctx: &RunCtx,
    state: &mut EngineState,
    store: &mut SnapshotStore,
    ck: CheckpointConfig,
    end: SimTime,
) {
    let started = Instant::now();
    let generation = state.epoch_index;
    let mut encoded = {
        let mut payload = JsonWriter::new();
        snapshot_payload(&mut payload, &ctx.cfg, state);
        vdap_ckpt::encode(generation, payload.as_str())
    };
    let mut chaos = None;
    if let Some(inj) = ctx.injector.as_deref() {
        if inj.snapshot_torn(CKPT_STORE_LABEL, end) {
            // A torn write: the tail of the snapshot never hit disk.
            encoded.truncate(encoded.len() / 2);
            chaos = Some("torn-write");
        } else if inj.snapshot_corrupt(CKPT_STORE_LABEL, end) {
            // Bit rot: flip the low bit of the middle byte. The
            // encoding is ASCII, so the result is still valid UTF-8 —
            // only the checksum (or the JSON grammar) can catch it.
            let mut bytes = encoded.into_bytes();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            encoded = String::from_utf8(bytes).expect("low-bit flips keep ascii valid utf-8");
            chaos = Some("corruption");
        }
    }
    if let Err(err) = store.put(generation, &encoded) {
        panic!("snapshot store write failed: {err}");
    }
    if let Err(err) = store.retain_last(ck.retain) {
        panic!("snapshot retention failed: {err}");
    }
    state.snapshots.writes.push(SnapshotWrite {
        generation,
        bytes: encoded.len(),
        write_ms: started.elapsed().as_secs_f64() * 1e3,
        chaos,
    });
}

/// Streams the complete deterministic engine state as canonical JSON.
///
/// Shard-local metrics and event counts are folded into the engine
/// totals before encoding and vehicles are listed in id order, so a
/// snapshot is *canonical*: every shard count serializes the same
/// scenario at the same barrier to the same payload — which is what
/// lets a snapshot restore into a different shard count.
fn snapshot_payload(w: &mut JsonWriter, cfg: &FleetConfig, state: &EngineState) {
    let mut metrics = state.engine_metrics.clone();
    let mut events = state.events_base;
    for shard in &state.shards {
        events += shard.events;
        metrics.merge(&shard.metrics);
    }
    let mut vehicles: Vec<&VehicleState> = state
        .shards
        .iter()
        .flat_map(|s| s.vehicles.values())
        .collect();
    vehicles.sort_unstable_by_key(|v| v.id);
    w.begin_object();
    w.key("collab");
    // Post-barrier, every shard holds the same collab Arc.
    enc_collab(w, &state.shards[0].snapshot);
    w.key("config");
    config_fingerprint(w, cfg);
    w.key("edge");
    state.edge.ckpt(w);
    w.key("epoch").hex(state.epoch_index);
    w.key("events_base").hex(events);
    w.key("ingest");
    enc_opt(w, state.ingest.as_ref(), |w, ingest| ingest.ckpt(w));
    w.key("ladder_rng");
    enc_rng(w, &state.ladder_rng);
    w.key("metrics");
    enc_metrics(w, &metrics);
    w.key("mobility");
    enc_opt(w, state.mobility.as_ref(), |w, mobility| mobility.ckpt(w));
    w.key("reliability");
    enc_reliability(w, &state.reliability);
    w.key("telemetry");
    enc_opt(w, state.telemetry.as_ref(), enc_telemetry);
    w.key("vehicles").begin_array();
    for v in vehicles {
        enc_vehicle(w, v);
    }
    w.end_array();
    w.end_object();
}

/// Rebuilds a complete [`EngineState`] from a decoded snapshot payload.
///
/// Everything that is a pure function of the scenario — the region
/// graph, contention curves, retry policies, label tables, and the
/// vehicle → shard residency map — is *recomputed*, never deserialized,
/// which is exactly why the restoring engine's shard count is free to
/// differ from the writing run's.
fn state_from_snapshot(ctx: &RunCtx, payload: &Value) -> Result<EngineState, CkptError> {
    let cfg = &ctx.cfg;
    check_fingerprint(cfg, payload)?;
    let epoch_index = get_u64_hex(payload, "epoch")?;
    let t_snap = SimTime::ZERO + cfg.epoch * epoch_index;
    if epoch_index == 0 || t_snap >= ctx.horizon {
        return Err(CkptError::new(format!(
            "snapshot epoch {epoch_index} outside the run's open interval"
        )));
    }
    let events_base = get_u64_hex(payload, "events_base")?;
    let ladder_rng = rng_field(payload, "ladder_rng")?;
    let engine_metrics = metrics_field(payload, "metrics")?;
    let reliability = reliability_field(payload, "reliability")?;
    let collab = Arc::new(dec_collab(payload, "collab")?);

    let mobility = match (get(payload, "mobility")?, cfg.mobility.is_some()) {
        (Value::Null, false) => None,
        (Value::Null, true) | (_, false) => {
            return Err(CkptError::new(
                "snapshot and config disagree on the mobility subsystem",
            ))
        }
        (enc, true) => Some(MobilityPass::restore_ckpt(cfg, &ctx.seeds, enc)?),
    };

    let vehicles_enc = get_array(payload, "vehicles")?;
    if vehicles_enc.len() != cfg.vehicles as usize {
        return Err(CkptError::new(format!(
            "snapshot holds {} vehicles, config expects {}",
            vehicles_enc.len(),
            cfg.vehicles
        )));
    }
    let mut buckets: Vec<Vec<VehicleState>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    for enc in vehicles_enc {
        let v = dec_vehicle(cfg, enc)?;
        if v.id >= cfg.vehicles {
            return Err(CkptError::new(format!("vehicle id {} out of range", v.id)));
        }
        // The host shard is an invariant of the vehicle's *current*
        // region under THIS engine's partition, not the writer's.
        let host = match mobility.as_ref() {
            Some(mob) => cfg.shard_of_region(mob.tracks[v.id as usize].region()),
            None => cfg.initial_shard_of(v.id),
        };
        buckets[host as usize].push(v);
    }
    let shards: Vec<Shard> = buckets
        .into_iter()
        .enumerate()
        .map(|(i, vehicles)| Shard::restore(i as u32, cfg, vehicles, Arc::clone(&collab)))
        .collect();

    let edge = XEdgeServer::restore_ckpt(cfg, get(payload, "edge")?)?;
    let ingest = match (get(payload, "ingest")?, cfg.ingest.is_some()) {
        (Value::Null, false) => None,
        (Value::Null, true) | (_, false) => {
            return Err(CkptError::new(
                "snapshot and config disagree on the ingest subsystem",
            ))
        }
        (enc, true) => Some(IngestPass::restore_ckpt(cfg, &ctx.seeds, enc)?),
    };
    let telemetry = match (get(payload, "telemetry")?, cfg.telemetry) {
        (Value::Null, false) => None,
        (Value::Null, true) | (_, false) => {
            return Err(CkptError::new("snapshot and config disagree on telemetry"))
        }
        (enc, true) => {
            let (mut tel, spill_state) = dec_telemetry(enc)?;
            // Sink wiring is config-derived: the budget, the sampling
            // seed, and the spill *directory* come from the config the
            // run restores under, while the dynamic counters (spilled
            // spans, current segment) come from the snapshot so the
            // writer appends where the crashed run left off.
            tel.budget = cfg.telemetry_budget;
            tel.sample_seed = cfg.seed;
            tel.sample = tel.sample.or(cfg.span_sample);
            if let Some(dir) = cfg.span_spill.clone() {
                let (spilled, index, bytes) = spill_state;
                tel.spill = Some(JsonlSpillSink::resume(
                    dir,
                    vdap_obs::DEFAULT_SEGMENT_BYTES,
                    spilled,
                    index,
                    bytes,
                ));
            }
            Some(tel)
        }
    };

    Ok(EngineState {
        shards,
        edge,
        engine_metrics,
        reliability,
        telemetry,
        ingest,
        mobility,
        ladder_rng,
        epoch_index,
        events_base,
        snapshots: SnapshotDiagnostics::default(),
    })
}

// ---- telemetry codec ------------------------------------------------

fn enc_span(w: &mut JsonWriter, s: &RequestSpan) {
    w.begin_object();
    w.key("admitted");
    enc_opt_time(w, s.admitted);
    w.key("class").str(s.class);
    w.key("completed").hex(s.completed.as_nanos());
    w.key("generated").hex(s.generated.as_nanos());
    w.key("handoff").bool(s.handoff);
    w.key("outcome").str(s.outcome.label());
    w.key("region").u32(s.region);
    w.key("requeues").u32(s.requeues);
    w.key("retries").u32(s.retries);
    w.key("seq").u32(s.seq);
    w.key("serve_start");
    enc_opt_time(w, s.serve_start);
    w.key("shard").u32(s.shard);
    w.key("tenant").u32(s.tenant);
    w.key("vehicle").u32(s.vehicle);
    w.end_object();
}

fn dec_span(v: &Value) -> Result<RequestSpan, CkptError> {
    let outcome_label = get_str(v, "outcome")?;
    let outcome = SpanOutcome::from_label(outcome_label)
        .ok_or_else(|| CkptError::new(format!("unknown span outcome {outcome_label:?}")))?;
    Ok(RequestSpan {
        vehicle: get_u32(v, "vehicle")?,
        seq: get_u32(v, "seq")?,
        tenant: get_u32(v, "tenant")?,
        region: get_u32(v, "region")?,
        shard: get_u32(v, "shard")?,
        class: intern_name(get_str(v, "class")?),
        generated: time_field(v, "generated")?,
        admitted: opt_time_field(v, "admitted")?,
        serve_start: opt_time_field(v, "serve_start")?,
        completed: time_field(v, "completed")?,
        outcome,
        retries: get_u32(v, "retries")?,
        requeues: get_u32(v, "requeues")?,
        handoff: get_bool(v, "handoff")?,
    })
}

/// Writes the full telemetry surface: the span log in its current
/// order (the final `sort_canonical` has unique keys, so order here is
/// immaterial), counters, gauges, and every per-epoch series.
fn enc_telemetry(w: &mut JsonWriter, tel: &FleetTelemetry) {
    w.begin_object();
    w.key("counters").begin_array();
    for (name, v) in tel.registry.counters() {
        w.begin_array().str(name).hex(v).end_array();
    }
    w.end_array();
    w.key("gauges").begin_array();
    for (name, v) in tel.registry.gauges() {
        w.begin_array().str(name).hex(v.to_bits()).end_array();
    }
    w.end_array();
    w.key("hists").begin_array();
    for h in tel.registry.all_histograms() {
        let st = h.state();
        w.begin_array().str(h.name()).begin_object();
        w.key("buckets").begin_array();
        for &(i, n) in &st.buckets {
            w.begin_array().hex(u64::from(i)).hex(n).end_array();
        }
        w.end_array();
        w.key("count").hex(st.count);
        w.key("max").hex(st.max_ticks);
        w.key("min").hex(st.min_ticks);
        w.key("sum_hi").hex((st.sum_ticks >> 64) as u64);
        w.key("sum_lo").hex(st.sum_ticks as u64);
        w.end_object().end_array();
    }
    w.end_array();
    w.key("series").begin_array();
    for (name, points) in tel.registry.all_series() {
        w.begin_array().str(name).begin_array();
        for p in points {
            w.begin_array()
                .hex(p.epoch)
                .hex(p.at.as_nanos())
                .hex(p.value.to_bits())
                .end_array();
        }
        w.end_array().end_array();
    }
    w.end_array();
    let spill = tel.spill.as_ref();
    w.key("sink").begin_object();
    w.key("peak_bytes").hex(tel.peak_bytes);
    w.key("rolled").bool(tel.rolled);
    // 0 encodes "sampling off" (a configured rate is never zero —
    // validation rejects it).
    w.key("sample").hex(tel.sample.map_or(0, u64::from));
    w.key("sampled_out").hex(tel.sampled_out);
    w.key("spill_bytes")
        .hex(spill.map_or(0, JsonlSpillSink::current_bytes));
    w.key("spill_index")
        .hex(spill.map_or(0, |s| u64::from(s.current_index())));
    w.key("spilled")
        .hex(spill.map_or(0, JsonlSpillSink::spilled));
    w.end_object();
    w.key("spans").begin_array();
    for span in tel.spans.iter() {
        enc_span(w, span);
    }
    w.end_array();
    w.end_object();
}

type SpillState = (u64, u32, u64);

fn dec_telemetry(v: &Value) -> Result<(FleetTelemetry, SpillState), CkptError> {
    let mut tel = FleetTelemetry::default();
    for s in get_array(v, "spans")? {
        tel.spans.push(dec_span(s)?);
    }
    for pair in get_array(v, "counters")? {
        let (name, count) = val_pair(pair)?;
        tel.registry
            .inc(intern_name(val_str(name)?), val_u64_hex(count)?);
    }
    for pair in get_array(v, "gauges")? {
        let (name, value) = val_pair(pair)?;
        tel.registry
            .set_gauge(intern_name(val_str(name)?), val_f64_bits(value)?);
    }
    for entry in get_array(v, "series")? {
        let (name, points) = val_pair(entry)?;
        let name = intern_name(val_str(name)?);
        for p in val_array(points)? {
            let [epoch, at, value] = val_array(p)? else {
                return Err(CkptError::new("series point is not a triple"));
            };
            tel.registry.sample(
                name,
                val_u64_hex(epoch)?,
                SimTime::from_nanos(val_u64_hex(at)?),
                val_f64_bits(value)?,
            );
        }
    }
    for entry in get_array(v, "hists")? {
        let (name, body) = val_pair(entry)?;
        let name = intern_name(val_str(name)?);
        let mut buckets = Vec::new();
        for pair in get_array(body, "buckets")? {
            let (index, count) = val_pair(pair)?;
            let index = u32::try_from(val_u64_hex(index)?)
                .map_err(|_| CkptError::new("histogram bucket index out of range"))?;
            buckets.push((index, val_u64_hex(count)?));
        }
        let sum_ticks = (u128::from(get_u64_hex(body, "sum_hi")?) << 64)
            | u128::from(get_u64_hex(body, "sum_lo")?);
        tel.registry
            .restore_histogram(StreamingHistogram::from_state(
                name,
                HistogramState {
                    buckets,
                    count: get_u64_hex(body, "count")?,
                    sum_ticks,
                    min_ticks: get_u64_hex(body, "min")?,
                    max_ticks: get_u64_hex(body, "max")?,
                },
            ));
    }
    let sink = get(v, "sink")?;
    let sample = get_u64_hex(sink, "sample")?;
    tel.sample = if sample == 0 {
        None
    } else {
        Some(u32::try_from(sample).map_err(|_| CkptError::new("sample rate out of range"))?)
    };
    tel.sampled_out = get_u64_hex(sink, "sampled_out")?;
    tel.rolled = get_bool(sink, "rolled")?;
    tel.peak_bytes = get_u64_hex(sink, "peak_bytes")?;
    let spill_state = (
        get_u64_hex(sink, "spilled")?,
        u32::try_from(get_u64_hex(sink, "spill_index")?)
            .map_err(|_| CkptError::new("spill segment index out of range"))?,
        get_u64_hex(sink, "spill_bytes")?,
    );
    Ok((tel, spill_state))
}

// ---- mobility codec -------------------------------------------------

fn enc_track(w: &mut JsonWriter, t: &TrackSnapshot) {
    let profile = match t.profile {
        RouteProfile::Commute => 0,
        RouteProfile::Roam => 1,
        RouteProfile::RushHour => 2,
    };
    let leg = match t.leg {
        TrackLeg::BeforeOutbound => 0,
        TrackLeg::AtWork => 1,
        TrackLeg::Done => 2,
    };
    w.begin_object();
    w.key("dwell_mean").hex(t.dwell_mean.as_nanos());
    w.key("home").u32(t.home);
    w.key("id").u32(t.id);
    w.key("leg").u32(leg);
    w.key("motion").begin_object();
    match &t.motion {
        TrackMotion::Parked => {
            w.key("kind").str("parked");
        }
        TrackMotion::Dwell(until) => {
            w.key("kind").str("dwell");
            w.key("until").hex(until.as_nanos());
        }
        TrackMotion::Drive {
            edge,
            remaining,
            path,
        } => {
            w.key("edge").u64(*edge as u64);
            w.key("kind").str("drive");
            w.key("path").begin_array();
            for &r in path {
                w.u32(r);
            }
            w.end_array();
            w.key("remaining").hex(remaining.as_nanos());
        }
    }
    w.end_object();
    w.key("outbound_at").hex(t.outbound_at.as_nanos());
    w.key("profile").u32(profile);
    w.key("region").u32(t.region);
    w.key("return_at").hex(t.return_at.as_nanos());
    w.key("rng");
    enc_words(w, &t.rng);
    w.key("work").u32(t.work);
    w.end_object();
}

fn dec_track(v: &Value) -> Result<TrackSnapshot, CkptError> {
    let profile = match get_u32(v, "profile")? {
        0 => RouteProfile::Commute,
        1 => RouteProfile::Roam,
        2 => RouteProfile::RushHour,
        other => return Err(CkptError::new(format!("unknown route profile {other}"))),
    };
    let leg = match get_u32(v, "leg")? {
        0 => TrackLeg::BeforeOutbound,
        1 => TrackLeg::AtWork,
        2 => TrackLeg::Done,
        other => return Err(CkptError::new(format!("unknown track leg {other}"))),
    };
    let motion_v = get(v, "motion")?;
    let motion = match get_str(motion_v, "kind")? {
        "parked" => TrackMotion::Parked,
        "dwell" => TrackMotion::Dwell(time_field(motion_v, "until")?),
        "drive" => TrackMotion::Drive {
            edge: get_u32(motion_v, "edge")? as usize,
            remaining: dur_field(motion_v, "remaining")?,
            path: get_array(motion_v, "path")?
                .iter()
                .map(val_u32)
                .collect::<Result<_, _>>()?,
        },
        other => return Err(CkptError::new(format!("unknown track motion {other:?}"))),
    };
    let [a, b, c, d] = get_array(v, "rng")? else {
        return Err(CkptError::new("track rng is not four words"));
    };
    Ok(TrackSnapshot {
        id: get_u32(v, "id")?,
        profile,
        region: get_u32(v, "region")?,
        home: get_u32(v, "home")?,
        work: get_u32(v, "work")?,
        outbound_at: time_field(v, "outbound_at")?,
        return_at: time_field(v, "return_at")?,
        dwell_mean: dur_field(v, "dwell_mean")?,
        leg,
        motion,
        rng: [
            val_u64_hex(a)?,
            val_u64_hex(b)?,
            val_u64_hex(c)?,
            val_u64_hex(d)?,
        ],
    })
}

fn enc_mobility_metrics(w: &mut JsonWriter, m: &MobilityMetrics) {
    w.begin_object();
    w.key("crossing_speed_mph");
    enc_hist(w, &m.crossing_speed_mph);
    w.key("crossings").hex(m.crossings);
    w.key("handoff_ms");
    enc_hist(w, &m.handoff_ms);
    w.key("handoff_seconds").hex(m.handoff_seconds.to_bits());
    w.key("migrations").hex(m.migrations);
    w.key("readdressed_batches").hex(m.readdressed_batches);
    w.key("same_shard_crossings").hex(m.same_shard_crossings);
    w.key("stale_cache_hits").hex(m.stale_cache_hits);
    w.key("storm_crossings").hex(m.storm_crossings);
    w.end_object();
}

fn dec_mobility_metrics(v: &Value) -> Result<MobilityMetrics, CkptError> {
    Ok(MobilityMetrics {
        crossings: get_u64_hex(v, "crossings")?,
        migrations: get_u64_hex(v, "migrations")?,
        same_shard_crossings: get_u64_hex(v, "same_shard_crossings")?,
        storm_crossings: get_u64_hex(v, "storm_crossings")?,
        stale_cache_hits: get_u64_hex(v, "stale_cache_hits")?,
        readdressed_batches: get_u64_hex(v, "readdressed_batches")?,
        handoff_seconds: get_f64_bits(v, "handoff_seconds")?,
        handoff_ms: hist_field(v, "handoff_ms")?,
        crossing_speed_mph: hist_field(v, "crossing_speed_mph")?,
    })
}

/// The engine-owned geo-mobility pass.
///
/// All mobility state — the seeded region graph, every vehicle's route
/// track, and the vehicle → shard residency table — lives on the engine
/// thread and advances only at barriers, so crossings are a pure
/// function of `(seed, vehicle, epoch)` and never of shard count. The
/// pass runs in canonical vehicle-id order; only the *physical* evict/
/// adopt moves depend on how many shards this run happens to use, and
/// those feed diagnostics, never the deterministic ledger.
struct MobilityPass {
    graph: RegionGraph,
    tracks: Vec<VehicleTrack>,
    /// Which shard currently hosts each vehicle.
    host: Vec<u32>,
    channel: CellularChannel,
    handoff_labels: Vec<String>,
    metrics: MobilityMetrics,
    physical_migrations: u64,
    crossings_buf: Vec<Crossing>,
}

impl MobilityPass {
    fn new(mob: &vdap_mobility::MobilityConfig, cfg: &FleetConfig, seeds: &SeedFactory) -> Self {
        let mut graph_rng = seeds.stream("fleet-mobility-graph");
        let graph = RegionGraph::seeded(
            cfg.regions,
            mob.chords(cfg.regions),
            mob.segment_capacity,
            &mut graph_rng,
        );
        let tracks = (0..cfg.vehicles)
            .map(|id| {
                VehicleTrack::new(
                    id,
                    cfg.region_of(id),
                    mob,
                    &graph,
                    cfg.duration,
                    seeds.indexed_stream("fleet-mobility", u64::from(id)),
                )
            })
            .collect();
        MobilityPass {
            graph,
            tracks,
            host: (0..cfg.vehicles)
                .map(|id| cfg.initial_shard_of(id))
                .collect(),
            channel: CellularChannel::calibrated(),
            handoff_labels: (0..cfg.regions).map(handoff_label).collect(),
            metrics: MobilityMetrics::new(),
            physical_migrations: 0,
            crossings_buf: Vec::new(),
        }
    }

    /// Serializes the pass: every route track (in vehicle-id order),
    /// the mobility ledger, and the physical-migration diagnostic. The
    /// host table is *not* stored — it is recomputable from each
    /// track's current region, and storing it would pin the writer's
    /// shard count.
    fn ckpt(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("metrics");
        enc_mobility_metrics(w, &self.metrics);
        w.key("physical_migrations").hex(self.physical_migrations);
        w.key("tracks").begin_array();
        for t in &self.tracks {
            enc_track(w, &t.snapshot());
        }
        w.end_array();
        w.end_object();
    }

    /// Rebuilds the pass for this engine's shard count: the region
    /// graph and channel are re-derived from the seed, the tracks come
    /// from the snapshot, and the host table is recomputed from each
    /// track's current region.
    fn restore_ckpt(
        cfg: &FleetConfig,
        seeds: &SeedFactory,
        v: &Value,
    ) -> Result<MobilityPass, CkptError> {
        let Some(mob) = cfg.mobility.as_ref() else {
            return Err(CkptError::new(
                "mobility snapshot without a mobility config",
            ));
        };
        let mut graph_rng = seeds.stream("fleet-mobility-graph");
        let graph = RegionGraph::seeded(
            cfg.regions,
            mob.chords(cfg.regions),
            mob.segment_capacity,
            &mut graph_rng,
        );
        let tracks_enc = get_array(v, "tracks")?;
        if tracks_enc.len() != cfg.vehicles as usize {
            return Err(CkptError::new(format!(
                "snapshot holds {} mobility tracks, config expects {}",
                tracks_enc.len(),
                cfg.vehicles
            )));
        }
        let mut tracks = Vec::with_capacity(tracks_enc.len());
        for (i, enc) in tracks_enc.iter().enumerate() {
            let snap = dec_track(enc)?;
            if snap.id as usize != i {
                return Err(CkptError::new(format!(
                    "mobility track {i} carries id {}",
                    snap.id
                )));
            }
            tracks.push(VehicleTrack::from_snapshot(snap));
        }
        let host = tracks
            .iter()
            .map(|t| cfg.shard_of_region(t.region()))
            .collect();
        Ok(MobilityPass {
            graph,
            tracks,
            host,
            channel: CellularChannel::calibrated(),
            handoff_labels: (0..cfg.regions).map(handoff_label).collect(),
            metrics: dec_mobility_metrics(get(v, "metrics")?)?,
            physical_migrations: get_u64_hex(v, "physical_migrations")?,
            crossings_buf: Vec::new(),
        })
    }

    /// One barrier's mobility step, covering the epoch
    /// `[epoch_start, end]` the shards just finished.
    #[allow(clippy::too_many_arguments)]
    fn barrier(
        &mut self,
        shards: &mut [Shard],
        edge: &mut XEdgeServer,
        mut ingest: Option<&mut IngestPass>,
        injector: Option<&FaultInjector>,
        reliability: &mut ReliabilityStats,
        telemetry: Option<&mut FleetTelemetry>,
        cfg: &FleetConfig,
        epoch_start: SimTime,
        window: SimDuration,
        end: SimTime,
        epoch_index: u64,
    ) {
        // Vehicles that crossed at the *previous* barrier spent the
        // epoch with a cold collab cache: drain the suppressed-hit
        // counters and clear every flag before marking this barrier's
        // crossers.
        for shard in shards.iter_mut() {
            self.metrics.stale_cache_hits += std::mem::take(&mut shard.stale_hits);
            for v in shard.vehicles.values_mut() {
                v.cache_stale = false;
            }
        }

        // Congestion multipliers from pre-advance occupancy: every
        // track still reports the segment it was on when the epoch
        // began, so the load each driver sees is globally determined
        // before anyone moves.
        let mut occupancy = vec![0u32; self.graph.segments().len()];
        for track in &self.tracks {
            if let Some(edge_id) = track.driving_edge() {
                occupancy[edge_id] += 1;
            }
        }
        let congestion: Vec<f64> = self
            .graph
            .segments()
            .iter()
            .zip(&occupancy)
            .map(|(seg, &occ)| seg.congestion_multiplier(occ))
            .collect();

        let mut epoch_crossings = 0u64;
        let mut epoch_migrations = 0u64;
        for id in 0..cfg.vehicles {
            self.crossings_buf.clear();
            self.tracks[id as usize].advance(
                epoch_start,
                window,
                &self.graph,
                &congestion,
                &mut self.crossings_buf,
            );
            if self.crossings_buf.is_empty() {
                continue;
            }
            let tenant = cfg.tenant_of(id);
            let mut handoff = SimDuration::ZERO;
            for c in &self.crossings_buf {
                // A handoff storm at the destination cell multiplies
                // the crossing cost — the single accounting path for
                // handoff seconds, organic or injected.
                let storming = injector
                    .is_some_and(|inj| inj.handoff_storm(&self.handoff_labels[c.to as usize], end));
                let cost = if storming {
                    self.metrics.storm_crossings += 1;
                    self.channel.storm_handoff_cost(c.speed)
                } else {
                    self.channel.handoff_cost(c.speed)
                };
                self.metrics.crossings += 1;
                epoch_crossings += 1;
                self.metrics.handoff_seconds += cost.as_secs_f64();
                self.metrics.handoff_ms.record_duration(cost);
                self.metrics.crossing_speed_mph.record(c.speed.0);
                // `migrations` counts home-node *domain* changes — the
                // canonical placement function — so the ledger is
                // byte-identical at any shard count.
                if c.from % cfg.edge_nodes != c.to % cfg.edge_nodes {
                    self.metrics.migrations += 1;
                    epoch_migrations += 1;
                } else {
                    self.metrics.same_shard_crossings += 1;
                }
                reliability.record_degraded(&self.handoff_labels[c.to as usize], cost);
                edge.reregister(tenant, c.from, c.to);
                handoff += cost;
            }

            // The vehicle's shard-side state: handoff debt lands on its
            // next request, the region moves, the collab cache goes
            // stale for one epoch.
            let dest = self.tracks[id as usize].region();
            let host = self.host[id as usize] as usize;
            {
                let v = shards[host]
                    .vehicles
                    .get_mut(&id)
                    .expect("host table tracks residency");
                v.pending_handoff += handoff;
                v.region = dest;
                v.cache_stale = true;
            }
            if let Some(ing) = ingest.as_deref_mut() {
                self.metrics.readdressed_batches += ing.readdress(u64::from(id), dest);
            }

            // Physical migration: move the whole vehicle to the shard
            // owning its new region. Shard-count dependent, so it only
            // feeds diagnostics.
            let target = cfg.shard_of_region(dest);
            if target != self.host[id as usize] {
                let v = shards[host].evict(id).expect("resident vehicle");
                shards[target as usize].adopt(v);
                self.host[id as usize] = target;
                self.physical_migrations += 1;
            }
        }

        if let Some(tel) = telemetry {
            tel.registry.sample(
                "mobility.crossings",
                epoch_index,
                end,
                epoch_crossings as f64,
            );
            tel.registry.sample(
                "mobility.migrations",
                epoch_index,
                end,
                epoch_migrations as f64,
            );
        }
    }
}

/// The interned series name for a class's per-epoch served count.
const fn served_series(class: WorkloadClass) -> &'static str {
    match class {
        WorkloadClass::Detection => "fleet.served.detection",
        WorkloadClass::Infotainment => "fleet.served.infotainment",
        WorkloadClass::PbeamTraining => "fleet.served.pbeam-training",
    }
}

/// The interned series name for a class's per-epoch rejected count.
const fn rejected_series(class: WorkloadClass) -> &'static str {
    match class {
        WorkloadClass::Detection => "fleet.rejected.detection",
        WorkloadClass::Infotainment => "fleet.rejected.infotainment",
        WorkloadClass::PbeamTraining => "fleet.rejected.pbeam-training",
    }
}

/// Samples the per-epoch time series at one barrier. Every sampled
/// value is an output of the canonical single-threaded serving pass,
/// so the series are shard-count invariant by construction.
fn sample_epoch(tel: &mut FleetTelemetry, outcome: &EpochOutcome, epoch: u64, at: SimTime) {
    tel.registry
        .sample("xedge.queue_depth", epoch, at, outcome.queue_depth as f64);
    tel.registry
        .sample("xedge.lanes", epoch, at, f64::from(outcome.lanes));
    for class in WorkloadClass::ALL {
        let served = outcome.served.iter().filter(|s| s.class == class).count();
        let rejected = outcome.rejected.iter().filter(|r| r.class == class).count();
        tel.registry
            .sample(served_series(class), epoch, at, served as f64);
        tel.registry
            .sample(rejected_series(class), epoch, at, rejected as f64);
    }
    tel.registry
        .set_gauge("xedge.lanes", f64::from(outcome.lanes));
}

/// Folds one barrier's serving outcome into the engine metrics and the
/// reliability ledger, per class. Rejected requests keep the legacy
/// accounting: the vehicle pays the uplink it wasted discovering the
/// bounce, then the full on-board fallback at the class's own service
/// time. Skipped pBEAM rounds (rung 3 for the training class) count as
/// fallbacks but accrue no degraded-mode time.
fn record_outcome(
    metrics: &mut FleetMetrics,
    reliability: &mut ReliabilityStats,
    outcome: &EpochOutcome,
    cfg: &FleetConfig,
    tenant_labels: &[String],
    mut telemetry: Option<&mut FleetTelemetry>,
) {
    for served in &outcome.served {
        metrics.record_served(
            served.class,
            served.tenant,
            served.work,
            served.e2e,
            served.energy_j,
        );
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.registry.inc("fleet.served", 1);
            tel.absorb(RequestSpan {
                vehicle: served.vehicle,
                seq: served.seq,
                tenant: served.tenant,
                region: served.region,
                shard: cfg.shard_of(served.vehicle),
                class: served.class.label(),
                generated: served.arrival,
                admitted: Some(served.admitted),
                serve_start: Some(served.serve_start),
                completed: served.arrival + served.e2e,
                outcome: SpanOutcome::EdgeServed,
                retries: served.retries,
                requeues: served.requeues,
                handoff: served.handoff,
            });
        }
    }
    for rejected in &outcome.rejected {
        let spec = cfg.class(rejected.class);
        let e2e = rejected.uplink + cfg.failover_penalty + spec.vehicle_service;
        metrics.record_rejected(
            rejected.class,
            e2e,
            rejected.uplink.as_secs_f64() * RADIO_W + spec.vehicle_service.as_secs_f64() * BOARD_W,
        );
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.registry.inc("fleet.rejected", 1);
            tel.absorb(RequestSpan {
                vehicle: rejected.vehicle,
                seq: rejected.seq,
                tenant: rejected.tenant,
                region: rejected.region,
                shard: cfg.shard_of(rejected.vehicle),
                class: rejected.class.label(),
                generated: rejected.arrival,
                admitted: None,
                serve_start: None,
                completed: rejected.arrival + e2e,
                outcome: SpanOutcome::Rejected,
                retries: 0,
                requeues: 0,
                handoff: false,
            });
        }
    }
    for fallback in &outcome.local_fallbacks {
        metrics.record_fallback(fallback.class, fallback.e2e, fallback.energy_j);
        let skipped = fallback.class == WorkloadClass::PbeamTraining;
        if skipped {
            // A skipped pBEAM round: no degraded-mode seconds accrue,
            // training just converges a round later.
            metrics.training_rounds_skipped += 1;
        } else {
            reliability
                .record_degraded(&tenant_labels[fallback.tenant as usize], fallback.degraded);
        }
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.registry.inc("fleet.local_fallbacks", 1);
            tel.absorb(RequestSpan {
                vehicle: fallback.vehicle,
                seq: fallback.seq,
                tenant: fallback.tenant,
                region: fallback.region,
                shard: cfg.shard_of(fallback.vehicle),
                class: fallback.class.label(),
                generated: fallback.arrival,
                admitted: Some(fallback.decided),
                serve_start: None,
                completed: fallback.arrival + fallback.e2e,
                outcome: if skipped {
                    SpanOutcome::Skipped
                } else {
                    SpanOutcome::LocalFallback
                },
                retries: fallback.retries,
                requeues: fallback.requeues,
                handoff: false,
            });
        }
    }
    metrics.requeued += outcome.requeued;
    metrics.retry_rescued += outcome.retry_rescued;
    metrics.handoffs += outcome.handoffs;
    if let Some(tel) = telemetry {
        tel.registry.inc("fleet.requeued", outcome.requeued);
        tel.registry
            .inc("fleet.retry_rescued", outcome.retry_rescued);
        tel.registry.inc("fleet.handoffs", outcome.handoffs);
    }
    for _ in 0..outcome.retry_attempts {
        reliability.record_retry();
    }
    for _ in 0..outcome.retry_rescued {
        reliability.record_retry_success();
    }
    for _ in 0..outcome.retry_exhausted {
        reliability.record_retry_exhausted();
    }
}

/// Writes the per-tenant availability ledger. A tenant is "down" while
/// its own quota is flapped or while any XEdge node-crash window is
/// active (every tenant's traffic shares the node pool). Crash windows
/// are quantized up to the barrier grid the serving pass actually
/// samples, so per-tenant MTTR matches what requests experienced.
fn record_tenant_ledger(
    reliability: &mut ReliabilityStats,
    inj: &FaultInjector,
    cfg: &FleetConfig,
    horizon: SimTime,
) {
    let quantize = |t: SimTime| -> SimTime {
        let k = t.elapsed().as_nanos().div_ceil(cfg.epoch.as_nanos());
        let q = SimTime::ZERO + cfg.epoch * k;
        if q > horizon {
            horizon
        } else {
            q
        }
    };
    let crash_windows: Vec<(SimTime, SimTime)> = inj
        .windows()
        .iter()
        .filter(|w| matches!(w.kind, FaultKind::EdgeNodeCrash))
        .map(|w| (quantize(w.start), quantize(w.end)))
        .filter(|(s, e)| e > s)
        .collect();
    for t in 0..cfg.tenants {
        let label = tenant_label(t);
        let mut windows = crash_windows.clone();
        for w in inj.windows() {
            if matches!(w.kind, FaultKind::TenantQuotaFlap { .. }) && w.target == label {
                let end = if w.end > horizon { horizon } else { w.end };
                if end > w.start {
                    windows.push((w.start, end));
                }
            }
        }
        if windows.is_empty() {
            continue;
        }
        windows.sort_unstable();
        // Coalesce overlaps so a tenant's downtime is not double-counted.
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => {
                    if e > *last_end {
                        *last_end = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        for (s, e) in merged {
            reliability.record_fault(&label, s);
            reliability.record_recovery(&label, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: u32) -> FleetConfig {
        let mut cfg = FleetConfig::sized(96, shards);
        cfg.duration = SimDuration::from_secs(10);
        cfg
    }

    #[test]
    fn shard_counts_produce_identical_summaries() {
        let one = FleetEngine::new(small(1)).run();
        let four = FleetEngine::new(small(4)).run();
        assert_eq!(one.summary(), four.summary());
        assert_eq!(one.metrics, four.metrics);
    }

    #[test]
    fn requests_split_across_outcomes() {
        let report = FleetEngine::new(small(2)).run();
        let m = &report.metrics;
        assert!(m.requests >= 96 * 9, "~1 request/vehicle/second");
        assert_eq!(
            m.requests,
            m.edge_served + m.collab_hits + m.failovers + m.rejected + m.local_fallbacks,
            "every request has exactly one outcome"
        );
        assert!(m.collab_hits > 0, "cohort-mates should share results");
        assert_eq!(m.e2e_latency_ms.count(), m.requests);
        assert_eq!(m.energy_per_request_j.count(), m.requests);
    }

    #[test]
    fn regional_outage_causes_failovers_and_lowers_availability() {
        let mut cfg =
            small(2).with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(4));
        cfg.duration = SimDuration::from_secs(10);
        let report = FleetEngine::new(cfg).run();
        assert!(report.metrics.failovers > 0);
        assert_eq!(report.reliability.faults_injected(), 1);
        assert_eq!(report.region_availability.len(), 1);
        let (label, avail) = &report.region_availability[0];
        assert_eq!(label, "region0/lte");
        assert!((*avail - 0.6).abs() < 1e-9, "4 s down of 10 s: {avail}");
        assert!(report.reliability.failover_latency().count() > 0);
    }

    #[test]
    fn node_crash_walks_the_degradation_ladder() {
        let build = |shards: u32| {
            let mut cfg = small(shards);
            cfg.edge_nodes = 1;
            let cfg = cfg.with_edge_node_crash(0, SimTime::from_secs(2), SimDuration::from_secs(4));
            FleetEngine::new(cfg).run()
        };
        let report = build(2);
        let m = &report.metrics;
        assert!(
            m.retry_rescued > 0,
            "late arrivals should ride out the crash via rung-1 retry"
        );
        assert!(
            m.local_fallbacks > 0,
            "early arrivals exhaust their deadline and fall to rung 3"
        );
        assert_eq!(
            m.requests,
            m.edge_served + m.collab_hits + m.failovers + m.rejected + m.local_fallbacks,
            "ladder outcomes still partition the request stream"
        );
        // Every tenant shares the single node: availability dips over
        // the barrier-quantized crash window [2 s, 6 s), then recovers.
        let horizon = SimTime::from_secs(10);
        for t in 0..4u32 {
            let label = tenant_label(t);
            let down = report.reliability.downtime(&label, horizon);
            assert_eq!(down, SimDuration::from_secs(4), "tenant {t}: {down:?}");
            let avail = report.reliability.availability(&label, horizon);
            assert!((avail - 0.6).abs() < 1e-9, "tenant {t}: {avail}");
        }
        assert!(report.reliability.mttr().count() >= 4, "per-tenant MTTR");
        assert!(report.reliability.mttr().mean() > 0.0);
        assert!(report.reliability.retry_count() > 0);
        assert!(report.reliability.total_degraded_time() > SimDuration::ZERO);
        // The whole chaos story is still byte-identical across shard
        // counts.
        assert_eq!(build(1).summary(), build(4).summary());
    }

    #[test]
    fn ingest_runs_healthy_and_stays_shard_invariant() {
        let build = |shards: u32| {
            let mut cfg = small(shards).with_ingest();
            cfg.duration = SimDuration::from_secs(10);
            FleetEngine::new(cfg).run()
        };
        let report = build(2);
        let ing = report.ingest.as_ref().expect("ingest ledger present");
        assert!(ing.batches_sent > 0, "vehicles uploaded batches");
        assert_eq!(
            ing.records_sent,
            ing.records_written + ing.records_shed + ing.cache_evictions + ing.backlog_records,
            "every record is written, shed, evicted, or backlog"
        );
        assert_eq!(ing.deadline_misses, 0, "healthy run misses nothing");
        let one = build(1);
        let four = build(4);
        assert_eq!(one.summary(), four.summary());
        assert_eq!(one.ingest, four.ingest);
    }

    #[test]
    fn storage_chaos_degrades_ingest_through_the_ladder() {
        let build = |shards: u32| {
            let mut cfg = small(shards)
                .with_ingest()
                .with_collector_outage(0, SimTime::from_secs(1), SimDuration::from_secs(6))
                .with_storage_brownout(0.02, SimTime::from_secs(2), SimDuration::from_secs(6));
            cfg.duration = SimDuration::from_secs(10);
            cfg.ingest.as_mut().unwrap().storage_records_per_sec = 400.0;
            FleetEngine::new(cfg).run()
        };
        let report = build(2);
        let ing = report.ingest.as_ref().expect("ingest ledger present");
        assert!(ing.outage_bounces > 0, "collector outage bounced uploads");
        assert!(ing.retries > 0, "rung 1 retried with seeded backoff");
        assert!(ing.deferrals > 0, "rung 2 deferred into vehicle caches");
        assert!(
            ing.deadline_misses > 0,
            "a brownout this deep must miss deadlines"
        );
        assert!(
            ing.storage_rho.max() > 1.0,
            "the browned-out tier saturates: {}",
            ing.storage_rho.max()
        );
        assert_eq!(
            ing.records_sent,
            ing.records_written + ing.records_shed + ing.cache_evictions + ing.backlog_records,
            "the ledger still partitions under chaos"
        );
        assert_eq!(build(1).summary(), build(4).summary());
    }

    #[test]
    fn mobility_crossings_stay_shard_invariant() {
        let build = |shards: u32| {
            let mut cfg = small(shards).with_mobility();
            cfg.duration = SimDuration::from_secs(10);
            FleetEngine::new(cfg).run()
        };
        let one = build(1);
        let four = build(4);
        let mob = one.mobility.as_ref().expect("mobility ledger present");
        assert!(mob.crossings > 0, "vehicles cross region boundaries");
        assert!(mob.migrations > 0, "some crossings change home-node domain");
        assert!(
            mob.partitions(),
            "crossings partition into migrations + same-domain moves"
        );
        assert_eq!(one.summary(), four.summary());
        assert_eq!(one.mobility, four.mobility);
        assert_eq!(one.region_admission, four.region_admission);
    }

    #[test]
    fn handoff_storm_multiplies_crossing_cost_without_double_counting() {
        let build = |storm: bool| {
            let mut cfg = small(2).with_mobility();
            if storm {
                cfg = cfg.with_handoff_storm(1, SimTime::from_secs(2), SimDuration::from_secs(6));
            }
            cfg.duration = SimDuration::from_secs(10);
            FleetEngine::new(cfg).run()
        };
        let calm = build(false);
        let stormy = build(true);
        let calm_mob = calm.mobility.as_ref().unwrap();
        let storm_mob = stormy.mobility.as_ref().unwrap();
        assert_eq!(calm_mob.storm_crossings, 0);
        assert!(
            storm_mob.storm_crossings > 0,
            "crossings into region 1 during the storm pay the multiplier"
        );
        assert!(
            storm_mob.handoff_seconds > calm_mob.handoff_seconds,
            "the storm multiplier must show up in the mobility ledger"
        );
        // Single-path accounting: with mobility on, the only writer of
        // a region's handoff-label degraded seconds is the mobility
        // pass, so the reliability ledger and the mobility ledger must
        // agree exactly — a storm must not double-count handoff time
        // through the serving path.
        for report in [&calm, &stormy] {
            let mob = report.mobility.as_ref().unwrap();
            let ledger: f64 = (0..8)
                .map(|r| {
                    report
                        .reliability
                        .degraded_time(&handoff_label(r))
                        .as_secs_f64()
                })
                .sum();
            assert!(
                (ledger - mob.handoff_seconds).abs() < 1e-6,
                "reliability ledger {ledger} vs mobility ledger {}",
                mob.handoff_seconds
            );
        }
    }

    #[test]
    fn chaos_summary_is_shard_invariant_too() {
        let build = |shards| {
            let cfg = small(shards).with_regional_outage(
                1,
                SimTime::from_secs(3),
                SimDuration::from_secs(3),
            );
            FleetEngine::new(cfg).run().summary()
        };
        assert_eq!(build(1), build(3));
    }
}
