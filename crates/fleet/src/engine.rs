//! The fleet engine: epoch loop, barriers, and the run report.
//!
//! The fleet lives in one array indexed by vehicle id. Each epoch has
//! two phases:
//!
//! 1. **Tick.** The array is cut into `batch_size` chunks
//!    (`chunks_mut`), each paired with fresh output buffers, and the
//!    chunks run on the work-stealing [`WorkerPool`]. During an epoch a
//!    vehicle reads only time-determined inputs (the fault timeline,
//!    the *previous* barrier's V2V snapshot) and its own RNG streams,
//!    and it never observes same-epoch state of any other vehicle — so
//!    which worker runs a chunk, and in what order, is unobservable.
//! 2. **Barrier.** Chunk outputs fold back in chunk order (that is, id
//!    order), then every cross-vehicle coupling (XEdge admission, fair
//!    queueing, contention, snapshot union, DDI ingest, mobility) runs
//!    on globally sorted data. Serving, ingest and the mobility track
//!    advance own disjoint state, so they run side by side on the pool;
//!    what they share (the fleet metrics, the reliability ledger, the
//!    registry, the ingest backlog a crossing re-addresses) is written
//!    after the join, in one fixed order. Every request outcome — the
//!    vehicle-side ones in fold order, then the serving pass's — is
//!    recorded once, by `EngineState::record`, into integer counters
//!    and [`vdap_sim::StreamingHistogram`]s, whose buckets, sums and
//!    min/max are all integer ticks.
//!
//! Together these make a run byte-identical at any executor width and
//! batch size. No vehicle ever moves: mobility rewrites `vehicles[id]`
//! in place, and a snapshot lists the array in id order.

use std::borrow::Cow;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{
    get, get_array, get_bool, get_f64_bits, get_str, get_u32, get_u64_hex, val_array, val_f64_bits,
    val_pair, val_str, val_u32, val_u64_hex, CkptError, Snapshot, SnapshotStore, WriteChaos,
};
use vdap_edgeos::WorkloadClass;
use vdap_fault::{FaultEdge, FaultInjector, FaultKind, FaultWindow};
use vdap_mobility::{
    Crossing, MobilityMetrics, RegionGraph, TrackLeg, TrackMotion, TrackSnapshot, VehicleTrack,
};
use vdap_net::CellularChannel;
use vdap_obs::{BarrierPass, EngineProfile, JsonlSpillSink, RequestSpan, SpanOutcome};
use vdap_offload::Tile;
use vdap_sim::{ReliabilityStats, RngStream, SeedFactory, SimDuration, SimTime};

use crate::ckpt::{
    check_fingerprint, config_fingerprint, dec_hist, dur_field, enc_hist, enc_metrics, enc_opt,
    enc_opt_time, enc_reliability, enc_rng, enc_words, hist_field, metrics_field, opt_time_field,
    reliability_field, rng_field, section, time_field, SnapshotDiagnostics, SnapshotWrite,
};
use crate::config::{
    edge_node_label, handoff_label, region_label, tenant_label, FleetConfig, FleetConfigError,
    CKPT_STORE_LABEL, ENGINE_LABEL,
};
use crate::edge::{crash_loops, EpochOutcome, XEdgeServer};
use crate::ingest::IngestPass;
use crate::metrics::{series, FleetMetrics, FleetReport, FleetTelemetry, RequestOutcome};
use crate::pool::WorkerPool;
use crate::vehicle::{
    dec_collab, dec_vehicle, enc_collab, enc_vehicle, BatchOut, CollabSnapshot, VehicleBatch,
    VehicleState,
};

/// Deterministic fleet simulation engine.
///
/// # Examples
///
/// ```
/// use vdap_fleet::{FleetConfig, FleetEngine};
/// use vdap_sim::SimDuration;
///
/// let mut cfg = FleetConfig::sized(64);
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
    /// configurations (zero counts, more tenants than vehicles, an epoch
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

    /// Runs the fleet to its horizon and returns its report.
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
    /// [`FleetEngine::run`]; only the wall-clock profile and snapshot
    /// accounting differ.
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
    /// (seed, fleet shape, subsystem toggles). The executor width and
    /// batch size are deliberately not fingerprinted: a snapshot taken
    /// by a wide run restores into a one-worker engine and vice versa,
    /// and the resumed report's summary stays byte-identical either
    /// way. A payload whose checksum matches but whose state is
    /// impossible (vehicles with foreign ids, tenants or regions or next
    /// events outside the remaining run, ledgers that disagree with each
    /// other, series the engine never samples) is rejected.
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
    /// The barrier at which each XEdge node is declared crash-looping,
    /// if any ([`crash_loops`]).
    crash_loops: Vec<Option<SimTime>>,
    region_labels: Vec<String>,
    tenant_labels: Vec<String>,
    horizon: SimTime,
}

impl RunCtx {
    fn new(cfg: &FleetConfig) -> Self {
        let cfg = Arc::new(cfg.clone());
        let seeds = SeedFactory::new(cfg.seed);
        let injector = cfg.chaos.as_ref().map(|plan| Arc::new(plan.compile()));
        let crash_loops = crash_loops(&cfg, injector.as_deref());
        let region_labels = (0..cfg.regions).map(region_label).collect();
        let tenant_labels = (0..cfg.tenants).map(tenant_label).collect();
        let horizon = cfg.horizon();
        RunCtx {
            cfg,
            seeds,
            injector,
            crash_loops,
            region_labels,
            tenant_labels,
            horizon,
        }
    }

    /// Whether fault window `w` is a node crash still open at the
    /// barrier that declares its node crash-looping: it never ends.
    fn never_repaired(&self, w: &FaultWindow) -> bool {
        matches!(w.kind, FaultKind::EdgeNodeCrash)
            && (0u32..).zip(&self.crash_loops).any(|(node, at)| {
                at.is_some_and(|at| w.end >= at) && edge_node_label(node) == w.target
            })
    }
}

/// The complete mutable engine state carried across epoch barriers —
/// exactly the set a snapshot serializes and a restore rebuilds.
struct EngineState {
    /// The fleet, indexed by vehicle id.
    vehicles: Vec<VehicleState>,
    /// The V2V snapshot the next epoch's ticks read.
    collab: CollabSnapshot,
    edge: XEdgeServer,
    /// Fleet metrics: every request and every outcome, recorded at
    /// barriers.
    metrics: FleetMetrics,
    reliability: ReliabilityStats,
    telemetry: Option<FleetTelemetry>,
    ingest: Option<IngestPass>,
    mobility: Option<MobilityPass>,
    ladder_rng: RngStream,
    epoch_index: u64,
    /// Wall-clock snapshot accounting, carried across supervised legs.
    snapshots: SnapshotDiagnostics,
}

/// The reliability ledger's fault timeline: every outage, repair and
/// fault count the plan implies, written up front in time order. It is
/// a pure function of the plan, so a fresh run starts from it and a
/// restore rebuilds it instead of decoding it. Tenant-quota flaps are
/// folded into the per-tenant ledger instead of the generic one, so a
/// tenant's MTTR reflects both its own flaps and fleet-wide node
/// crashes without double-counting the same label. Engine crashes are
/// included too: their downtime is fixed by the plan, so the resume
/// window lands in MTTR whether or not this particular run path honors
/// the crash. A node declared crash-looping never recovers: its outage
/// stays open from the loop on, as requests observe it. Nor does a
/// window that outlasts the horizon: the run never sees its repair, so
/// its outage stays open to the horizon and adds no MTTR sample.
fn fault_timeline(ctx: &RunCtx) -> ReliabilityStats {
    let mut reliability = ReliabilityStats::new();
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
                FaultEdge::End if tr.at > ctx.horizon || ctx.never_repaired(window) => {}
                FaultEdge::End => reliability.record_recovery(&window.target, tr.at),
            }
        }
        record_tenant_ledger(&mut reliability, inj, ctx);
    }
    reliability
}

impl EngineState {
    /// Epoch-0 state for a scenario, with the fault timeline already
    /// written.
    fn fresh(ctx: &RunCtx) -> Self {
        let cfg = &ctx.cfg;
        EngineState {
            vehicles: (0..cfg.vehicles)
                .map(|id| VehicleState::new(id, cfg, &ctx.seeds))
                .collect(),
            collab: CollabSnapshot::new(),
            edge: XEdgeServer::new(cfg),
            metrics: FleetMetrics::new(),
            reliability: fault_timeline(ctx),
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
            // canonical batch order at barriers, so no schedule can
            // reach it.
            ladder_rng: ctx.seeds.stream("fleet-ladder"),
            epoch_index: 0,
            snapshots: SnapshotDiagnostics::default(),
        }
    }

    /// Records one request's terminal outcome — the only place one is
    /// recorded: the fleet metrics, the reliability ledger, and with
    /// telemetry on the request's span.
    fn record(&mut self, ctx: &RunCtx, o: &RequestOutcome) {
        self.metrics.record(o.kind, o.class, o.e2e, o.energy_j);
        match o.kind {
            SpanOutcome::EdgeServed => {
                let work = ctx.cfg.class(o.class).work_units;
                self.metrics.credit_work(o.tenant, work);
            }
            SpanOutcome::Failover => self.reliability.record_failover(o.cost),
            // A skipped pBEAM round accrues no degraded-mode seconds:
            // training just converges a round later.
            SpanOutcome::LocalFallback => self
                .reliability
                .record_degraded(&ctx.tenant_labels[o.tenant as usize], o.cost),
            _ => {}
        }
        if let Some(tel) = self.telemetry.as_mut() {
            tel.absorb(o.span());
        }
    }

    /// Records one serving pass: its served, rejected and rung-3
    /// outcomes, in that order, and its ladder counters.
    fn record_epoch(&mut self, ctx: &RunCtx, outcome: &EpochOutcome) {
        for served in &outcome.served {
            self.record(ctx, &served.outcome());
        }
        for o in outcome.rejected.iter().chain(&outcome.local_fallbacks) {
            self.record(ctx, o);
        }
        self.metrics.requeued += outcome.requeued;
        self.metrics.handoffs += outcome.handoffs;
        for _ in 0..outcome.retry_attempts {
            self.reliability.record_retry();
        }
        for _ in 0..outcome.retry_rescued {
            self.reliability.record_retry_success();
        }
        for _ in 0..outcome.retry_exhausted {
            self.reliability.record_retry_exhausted();
        }
    }
}

/// How one leg of the engine loop ended.
enum RunEnd {
    /// Ran to the horizon: the run's report.
    Completed(Box<FleetReport>),
    /// A seeded engine crash fired at this epoch barrier. The snapshot
    /// accounting accumulated so far rides along to the next leg.
    Crashed {
        epoch: u64,
        snapshots: SnapshotDiagnostics,
    },
}

impl RunEnd {
    fn snapshots_mut(&mut self) -> &mut SnapshotDiagnostics {
        match self {
            RunEnd::Completed(report) => &mut report.snapshots,
            RunEnd::Crashed { snapshots, .. } => snapshots,
        }
    }
}

/// Drives `state` from its current epoch to the horizon — the single
/// engine loop behind [`FleetEngine::run`], [`FleetEngine::run_supervised`]
/// and [`FleetEngine::restore`].
///
/// With a `store` wired and a checkpoint config present, the complete
/// state is snapshotted at every interval barrier — after the barrier's
/// canonical exchange, when every cross-vehicle queue is drained and all
/// scheduled events lie strictly beyond the barrier — and a
/// [`SnapshotWriter`] thread stores each generation while the engine
/// runs on. The leg joins the writer before it returns, crashed or not,
/// so the store holds every generation the leg took. Without both, no
/// thread is spawned. `crashes` lists epoch barriers at which a
/// supervised leg dies (empty on unsupervised paths).
fn run_core(
    ctx: &RunCtx,
    state: EngineState,
    store: Option<&mut SnapshotStore>,
    crashes: &[u64],
) -> RunEnd {
    let (Some(ck), Some(store)) = (ctx.cfg.checkpoint, store) else {
        return run_epochs(ctx, state, None, crashes);
    };
    thread::scope(|scope| {
        let mut writer = SnapshotWriter::spawn(scope, store, ck.retain);
        let mut end = run_epochs(ctx, state, Some(&mut writer), crashes);
        writer.finish(&mut end.snapshots_mut().writes);
        end
    })
}

/// The epoch loop of one leg, handing each checkpoint barrier's
/// snapshot to `writer` when one is wired.
fn run_epochs(
    ctx: &RunCtx,
    mut state: EngineState,
    mut writer: Option<&mut SnapshotWriter<'_>>,
    crashes: &[u64],
) -> RunEnd {
    let cfg = &ctx.cfg;
    let horizon = ctx.horizon;
    let injector = ctx.injector.as_deref();
    let pool = WorkerPool::new(cfg.executor_pool_size());
    let batch_size = cfg.batch_size as usize;
    // The profile measures this leg's wall clock only, so a resumed run
    // legitimately reports a shorter profile.
    let mut profile = EngineProfile::new(pool.threads());
    loop {
        let end_raw = SimTime::ZERO + cfg.epoch * (state.epoch_index + 1);
        let end = if end_raw > horizon { horizon } else { end_raw };

        // ---- tick phase: stealable vehicle batches, fork/join ----
        // Each chunk of the fleet array advances its vehicles to the
        // barrier against the previous epoch's collab snapshot; the
        // steal schedule is unobservable because every vehicle owns its
        // RNG streams and every batch output is folded back in chunk
        // order below.
        let mut batches: Vec<VehicleBatch<'_>> = state
            .vehicles
            .chunks_mut(batch_size)
            .map(VehicleBatch::new)
            .collect();
        let collab = &state.collab;
        let wall_started = Instant::now();
        let samples = pool.for_each_mut(&mut batches, |_, b| {
            b.advance(cfg, injector, &ctx.region_labels, collab, end);
        });
        let wall = wall_started.elapsed();

        // ---- barrier: canonical-order exchange ----
        // One clock read per pass: each `lap` closes the pass before it.
        let mut lap = Instant::now();
        profile.record_epoch(wall, &samples);
        let outs: Vec<BatchOut> = batches.into_iter().map(|b| b.out).collect();
        // Sized exactly: these reach megabytes, and a doubling Vec's
        // unwritten tail makes peak RSS depend on heap layout.
        let mut requests = Vec::with_capacity(outs.iter().map(|o| o.outbox.len()).sum());
        let mut uploads = Vec::with_capacity(outs.iter().map(|o| o.ingest_outbox.len()).sum());
        let mut publications: Vec<(Tile, u32)> = Vec::new();
        let mut stale_hits = 0;
        // Chunk order is id order and each vehicle resolves its
        // requests in seq order, so vehicle-side outcomes — failover
        // samples included — are recorded in `(vehicle, seq)` order.
        for out in outs {
            requests.extend(out.outbox);
            uploads.extend(out.ingest_outbox);
            publications.extend(out.publications);
            stale_hits += out.stale_hits;
            state.metrics.record_requests(out.requests);
            for resolved in &out.resolved {
                state.record(ctx, &resolved.resolve(cfg));
            }
        }
        lap = profile.lap(BarrierPass::Record, lap);

        // ---- forked passes: serving, ingest and the track advance ----
        // Each owns disjoint state and reads only `ctx`, so they run
        // side by side on the pool; every write they share waits for
        // the join and runs below, in the order one worker runs it.
        // The longest pass goes first: on two workers the caller takes
        // ingest, and the helper takes mobility, then steals serving.
        let epoch_start = SimTime::ZERO + cfg.epoch * state.epoch_index;
        let mut outcome = None;
        let mut ingest_samples = None;
        let mut crossed = (0, 0);
        {
            let mut forked = Vec::with_capacity(3);
            if let Some(ing) = state.ingest.as_mut() {
                forked.push(Forked::new(BarrierPass::Ingest, || {
                    ingest_samples = Some(ing.barrier(uploads, end - epoch_start, end, injector));
                }));
            }
            forked.push(Forked::new(BarrierPass::Serve, || {
                outcome = Some(state.edge.serve_epoch(
                    requests,
                    end,
                    injector,
                    &ctx.crash_loops,
                    &mut state.ladder_rng,
                ));
            }));
            if let Some(mob) = state.mobility.as_mut() {
                forked.push(Forked::new(BarrierPass::Mobility, || {
                    crossed = mob.advance(&mut state.vehicles, injector, cfg, epoch_start, end);
                }));
            }
            pool.for_each_mut(&mut forked, |_, pass| pass.run());
            let joined = Instant::now();
            let owns: Vec<_> = forked.iter().map(|f| (f.pass, f.own)).collect();
            profile.record_fork(joined - lap, &owns);
            lap = joined;
        }

        let outcome = outcome.expect("the serving pass ran");
        state.metrics.queue_depth.record(outcome.queue_depth as f64);
        state.metrics.elastic_lanes.record(f64::from(outcome.lanes));
        if outcome.scaled_up {
            state.metrics.scale_ups += 1;
        }
        if outcome.scaled_down {
            state.metrics.scale_downs += 1;
        }
        state.record_epoch(ctx, &outcome);
        if let Some(tel) = state.telemetry.as_mut() {
            sample_epoch(tel, &outcome, state.epoch_index, end);
        }
        lap = profile.lap(BarrierPass::Serve, lap);

        if let (Some(tel), Some(samples)) = (state.telemetry.as_mut(), ingest_samples) {
            for (name, value) in samples {
                tel.registry.sample(name, state.epoch_index, end, value);
            }
        }
        lap = profile.lap(BarrierPass::Ingest, lap);

        // The crossing fold reads the ingest backlog the ingest pass
        // left, so it runs after the join.
        if let Some(mob) = state.mobility.as_mut() {
            mob.metrics.stale_cache_hits += stale_hits;
            mob.fold(
                crossed,
                state.ingest.as_mut(),
                &mut state.reliability,
                state.telemetry.as_mut(),
                state.epoch_index,
                end,
            );
        }
        lap = profile.lap(BarrierPass::Mobility, lap);

        // Union this epoch's publications into the next snapshot;
        // ties go to the smallest vehicle id (order-independent).
        state.collab.clear();
        for (tile, producer) in publications {
            state
                .collab
                .entry(tile)
                .and_modify(|p| {
                    if producer < *p {
                        *p = producer;
                    }
                })
                .or_insert(producer);
        }
        lap = profile.lap(BarrierPass::Collab, lap);

        // Telemetry budget enforcement is the last barrier step, after
        // every span drain and series sample of the epoch, so the
        // resident estimate it acts on is complete — and deterministic.
        if let Some(tel) = state.telemetry.as_mut() {
            tel.barrier_flush(state.epoch_index);
        }
        profile.lap(BarrierPass::Flush, lap);
        state.epoch_index += 1;

        // ---- durability hooks. Snapshot first, crash second: a   ----
        // ---- crash landing on a checkpoint epoch still leaves    ----
        // ---- its barrier's snapshot behind, like a process dying ----
        // ---- right after fsync.                                  ----
        if let (Some(ck), Some(writer)) = (cfg.checkpoint, writer.as_deref_mut()) {
            if state.epoch_index.is_multiple_of(ck.interval_epochs) && end < horizon {
                write_snapshot(ctx, &mut state, writer, end);
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

    // Drain the in-flight work still pending at the horizon: it
    // completes, and its latency is fixed. The tail belongs to no
    // barrier, so it adds spans but no epoch samples.
    let tail = state.edge.flush();
    state.record_epoch(ctx, &tail);

    let metrics = state.metrics;
    if let Some(tel) = state.telemetry.as_mut() {
        // With spill configured, the horizon tail goes to disk too, so
        // the JSONL segments hold the complete post-sampling stream.
        tel.final_flush();
        // Insertion order interleaves vehicle-side and edge-side
        // resolutions; canonical order makes the log independent of
        // it. The sorted log no longer matches its cached snapshot
        // text, which no later snapshot needs.
        tel.spans.sort_canonical();
        tel.span_text.clear();
    }
    let region_availability = state
        .reliability
        .faulted_components()
        .iter()
        .map(|c| ((*c).to_string(), state.reliability.availability(c, horizon)))
        .collect();
    let ingest = state.ingest.as_mut().map(IngestPass::finish);

    RunEnd::Completed(Box::new(FleetReport {
        // Every request tick issued one request and every upload tick
        // sent one batch.
        events_processed: metrics.requests + ingest.as_ref().map_or(0, |i| i.batches_sent),
        metrics,
        reliability: state.reliability,
        region_availability,
        vehicles: cfg.vehicles,
        duration: cfg.duration,
        admission_offered: state.edge.offered(),
        admission_rejected: state.edge.rejected(),
        mobility: state.mobility.as_ref().map(|m| m.metrics.clone()),
        region_admission: state.edge.region_admission_table(&state.vehicles),
        ingest,
        telemetry: state.telemetry,
        profile,
        snapshots: state.snapshots,
    }))
}

/// One barrier pass submitted to the pool beside the others. It owns
/// disjoint engine state and reads only the run context, so no
/// schedule can reach what it computes; it times itself on whichever
/// worker runs it.
struct Forked<'a> {
    pass: BarrierPass,
    work: Option<Box<dyn FnOnce() + Send + 'a>>,
    own: Duration,
}

impl<'a> Forked<'a> {
    fn new(pass: BarrierPass, work: impl FnOnce() + Send + 'a) -> Self {
        Forked {
            pass,
            work: Some(Box::new(work)),
            own: Duration::ZERO,
        }
    }

    fn run(&mut self) {
        let started = Instant::now();
        (self.work.take().expect("each pass runs once"))();
        self.own = started.elapsed();
    }
}

/// Encodes the complete engine state at a barrier and hands it to the
/// writer, with the snapshot-store chaos the fault plan injects into
/// this write. The writer applies it *to the encoded bytes* on the way
/// in — the store itself stays dumb, exactly like a writer dying
/// mid-`write` (torn) or a bad sector flipping a bit (corrupt). The
/// write's size and store time are filled in when the writer joins.
fn write_snapshot(
    ctx: &RunCtx,
    state: &mut EngineState,
    writer: &mut SnapshotWriter<'_>,
    end: SimTime,
) {
    let started = Instant::now();
    let generation = state.epoch_index;
    let chunks = state
        .telemetry
        .as_mut()
        .map(|tel| tel.span_text.extend(tel.spans.spans()).to_vec());
    let mut text = JsonWriter::new();
    let spans_at = snapshot_payload(&mut text, &ctx.cfg, state);
    let payload = Payload {
        text: text.into_string(),
        spans: spans_at.zip(chunks),
    };
    let chaos = ctx.injector.as_deref().and_then(|inj| {
        if inj.snapshot_torn(CKPT_STORE_LABEL, end) {
            Some(WriteChaos::Torn)
        } else if inj.snapshot_corrupt(CKPT_STORE_LABEL, end) {
            Some(WriteChaos::Corrupt)
        } else {
            None
        }
    });
    writer.hand_off(Job {
        generation,
        payload,
        chaos,
    });
    state.snapshots.writes.push(SnapshotWrite {
        generation,
        bytes: 0,
        write_ms: started.elapsed().as_secs_f64() * 1e3,
        store_ms: 0.0,
        chaos: chaos.map(WriteChaos::label),
    });
}

/// One generation's payload as the barrier encoded it: the state's
/// text with an empty span array, and the span log's cached chunks with
/// the offset inside that array where they go.
struct Payload {
    text: String,
    spans: Option<(usize, Vec<Arc<str>>)>,
}

impl Payload {
    /// The payload text as pieces, in order.
    fn pieces(&self) -> Vec<&str> {
        let Some((at, chunks)) = &self.spans else {
            return vec![&self.text];
        };
        let mut pieces = Vec::with_capacity(2 * chunks.len() + 1);
        pieces.push(&self.text[..*at]);
        for (i, chunk) in chunks.iter().enumerate() {
            if i > 0 {
                pieces.push(",");
            }
            pieces.push(chunk);
        }
        pieces.push(&self.text[*at..]);
        pieces
    }
}

/// One generation on its way to the store.
struct Job {
    generation: u64,
    payload: Payload,
    chaos: Option<WriteChaos>,
}

impl Job {
    /// Checksums, damages, stores and retains the generation; returns
    /// the bytes stored and the milliseconds it took.
    fn store(self, store: &mut SnapshotStore, retain: usize) -> (usize, f64) {
        let started = Instant::now();
        let pieces = self.payload.pieces();
        let (head, tail) = vdap_ckpt::envelope(self.generation, &pieces);
        let mut write = Vec::with_capacity(pieces.len() + 2);
        write.push(head.as_str());
        write.extend(pieces);
        write.push(tail.as_str());
        let write = match self.chaos {
            Some(chaos) => chaos.apply(&write),
            None => write.into_iter().map(Cow::Borrowed).collect(),
        };
        if let Err(err) = store.put(self.generation, &write) {
            panic!("snapshot store write failed: {err}");
        }
        if let Err(err) = store.retain_last(retain) {
            panic!("snapshot retention failed: {err}");
        }
        let bytes = write.iter().map(|piece| piece.len()).sum();
        (bytes, started.elapsed().as_secs_f64() * 1e3)
    }
}

/// A supervised leg's snapshot writer: one scoped thread that stores
/// each generation ([`Job::store`]), in generation order, while the
/// engine runs on. The hand-off is a rendezvous, so at most one
/// generation is in flight and at most two payloads are resident: the
/// one being stored and the one the barrier waits to hand off.
struct SnapshotWriter<'scope> {
    jobs: SyncSender<Job>,
    /// `None` only once a failed hand-off has joined it.
    thread: Option<ScopedJoinHandle<'scope, Vec<(usize, f64)>>>,
}

impl<'scope> SnapshotWriter<'scope> {
    fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        store: &'env mut SnapshotStore,
        retain: usize,
    ) -> Self {
        let (jobs, inbox) = mpsc::sync_channel::<Job>(0);
        let thread = thread::Builder::new()
            .name("ckpt-writer".into())
            .spawn_scoped(scope, move || {
                inbox.iter().map(|job| job.store(store, retain)).collect()
            })
            .expect("spawn the snapshot writer");
        SnapshotWriter {
            jobs,
            thread: Some(thread),
        }
    }

    /// Hands one generation to the writer, waiting while it still
    /// stores the one before.
    fn hand_off(&mut self, job: Job) {
        if self.jobs.send(job).is_err() {
            // The writer leaves its loop early only by panicking.
            joined(self.thread.take().expect("a live writer"));
            unreachable!("the snapshot writer hung up without panicking");
        }
    }

    /// Waits until every generation handed off is stored, then fills in
    /// each one's size and store time: the last entries of `writes`.
    fn finish(self, writes: &mut [SnapshotWrite]) {
        let SnapshotWriter { jobs, thread } = self;
        drop(jobs);
        let stored = joined(thread.expect("a live writer"));
        let leg = writes.len() - stored.len();
        for (write, (bytes, store_ms)) in writes[leg..].iter_mut().zip(stored) {
            write.bytes = bytes;
            write.store_ms = store_ms;
        }
    }
}

/// Joins the writer, resuming its panic on this thread.
fn joined<T>(thread: ScopedJoinHandle<'_, T>) -> T {
    thread.join().unwrap_or_else(|panic| resume_unwind(panic))
}

/// Streams the complete deterministic engine state as canonical JSON,
/// except the span log: with telemetry on, its array is left empty and
/// the offset inside it, where the [`SpanText`] chunks go, is returned.
///
/// Nothing in it depends on executor width or batch size, and vehicles
/// are listed in id order, so every run layout serializes the same
/// scenario at the same barrier to the same payload — which is what
/// lets a snapshot restore under a different layout.
fn snapshot_payload(w: &mut JsonWriter, cfg: &FleetConfig, state: &EngineState) -> Option<usize> {
    w.begin_object();
    w.key("collab");
    enc_collab(w, &state.collab);
    w.key("config");
    config_fingerprint(w, cfg);
    w.key("edge");
    state.edge.ckpt(w);
    w.key("epoch").hex(state.epoch_index);
    w.key("ingest");
    enc_opt(w, state.ingest.as_ref(), |w, ingest| ingest.ckpt(w));
    w.key("ladder_rng");
    enc_rng(w, &state.ladder_rng);
    w.key("metrics");
    enc_metrics(w, &state.metrics);
    w.key("mobility");
    enc_opt(w, state.mobility.as_ref(), |w, mobility| mobility.ckpt(w));
    w.key("reliability");
    enc_reliability(w, &state.reliability);
    w.key("telemetry");
    let spans_at = match state.telemetry.as_ref() {
        Some(tel) => Some(enc_telemetry(w, tel)),
        None => {
            w.null();
            None
        }
    };
    w.key("vehicles").begin_array();
    for v in &state.vehicles {
        enc_vehicle(w, v);
    }
    w.end_array();
    w.end_object();
    spans_at
}

/// Rebuilds a complete [`EngineState`] from a decoded snapshot payload.
///
/// Everything that is a pure function of the scenario — the region
/// graph, contention curves, retry policies, label tables, the
/// reliability ledger's fault timeline — is *recomputed*, never
/// deserialized. Each decoded vehicle lands in its id slot after
/// [`dec_vehicle`]'s semantic checks.
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
    let ladder_rng = rng_field(payload, "ladder_rng")?;
    let metrics = metrics_field(payload, "metrics")?;
    let reliability = reliability_field(payload, "reliability", cfg, &fault_timeline(ctx))?;
    let collab = dec_collab(payload, "collab")?;

    let mobility = section(
        payload,
        "mobility",
        cfg.mobility.as_ref(),
        "the mobility subsystem",
        |enc, mob| MobilityPass::restore_ckpt(mob, cfg, &ctx.seeds, enc),
    )?;

    let vehicles_enc = get_array(payload, "vehicles")?;
    if vehicles_enc.len() != cfg.vehicles as usize {
        return Err(CkptError::new(format!(
            "snapshot holds {} vehicles, config expects {}",
            vehicles_enc.len(),
            cfg.vehicles
        )));
    }
    let mut vehicles = Vec::with_capacity(vehicles_enc.len());
    for (id, enc) in (0..).zip(vehicles_enc) {
        // Under mobility a vehicle drives in its track's current
        // region; without it, in its home region.
        let region = mobility
            .as_ref()
            .map_or(cfg.region_of(id), |mob| mob.tracks[id as usize].region());
        vehicles.push(dec_vehicle(cfg, enc, id, region, t_snap)?);
    }

    let edge = XEdgeServer::restore_ckpt(cfg, get(payload, "edge")?, metrics.requests, t_snap)?;
    let ingest = section(
        payload,
        "ingest",
        cfg.ingest.as_ref(),
        "the ingest subsystem",
        |enc, _| IngestPass::restore_ckpt(cfg, &ctx.seeds, enc),
    )?;
    let telemetry = section(
        payload,
        "telemetry",
        cfg.telemetry.then_some(()),
        "telemetry",
        |enc, ()| {
            let (mut tel, spill_state) = dec_telemetry(cfg, enc, metrics.requests)?;
            // Sink wiring is config-derived: the budget, the sampling
            // seed, and the spill *directory* come from the config the
            // run restores under, while the dynamic counters (spilled
            // spans, current segment) come from the snapshot: the
            // writer cuts what the crashed run spilled past the
            // snapshot and appends from there.
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
            Ok(tel)
        },
    )?;
    check_ledgers(
        cfg,
        epoch_index,
        &vehicles,
        &metrics,
        ingest.as_ref(),
        mobility.as_ref(),
    )?;

    Ok(EngineState {
        vehicles,
        collab,
        edge,
        metrics,
        reliability,
        telemetry,
        ingest,
        mobility,
        ladder_rng,
        epoch_index,
        snapshots: SnapshotDiagnostics::default(),
    })
}

/// Refuses ledgers that disagree with each other, as no barrier leaves
/// them: every request a class row counts took one vehicle sequence
/// number and every batch the ingest ledger sent one uplink sequence
/// number; a class row's outcomes are among its requests; every served
/// request credited its class's work units to one of the run's tenants;
/// and the ingest and mobility ledgers hold what `check_ledger` checks
/// of each after `epoch` barriers.
fn check_ledgers(
    cfg: &FleetConfig,
    epoch: u64,
    vehicles: &[VehicleState],
    metrics: &FleetMetrics,
    ingest: Option<&IngestPass>,
    mobility: Option<&MobilityPass>,
) -> Result<(), CkptError> {
    let refuse = |what: String| Err(CkptError::new(what));
    let issued: u64 = vehicles.iter().map(|v| u64::from(v.seq)).sum();
    if issued != metrics.requests {
        return refuse(format!(
            "vehicles issued {issued} requests, the class rows count {}",
            metrics.requests
        ));
    }
    if let Some(ing) = ingest {
        let uploaded: u64 = vehicles
            .iter()
            .filter_map(|v| v.ddi.as_ref())
            .map(|d| u64::from(d.seq))
            .sum();
        if uploaded != ing.metrics.batches_sent {
            return refuse(format!(
                "vehicles uploaded {uploaded} batches, the ingest ledger sent {}",
                ing.metrics.batches_sent
            ));
        }
        ing.check_ledger(epoch)?;
    }
    if let Some(mob) = mobility {
        let sent = ingest.map_or(0, |i| i.metrics.batches_sent);
        mob.check_ledger(epoch, metrics.requests, sent)?;
    }
    for (class, c) in WorkloadClass::ALL.into_iter().zip(&metrics.by_class) {
        let ended = [c.collab_hits, c.failovers, c.rejected, c.local_fallbacks]
            .into_iter()
            .try_fold(c.edge_served, u64::checked_add);
        if ended.is_none_or(|n| n > c.requests) {
            return refuse(format!(
                "class {class} ends more requests than the {} it issued",
                c.requests
            ));
        }
    }
    if let Some(tenant) = metrics
        .work_units_by_tenant
        .keys()
        .find(|&&t| t >= cfg.tenants)
    {
        return refuse(format!(
            "work units credited to tenant {tenant} of {}",
            cfg.tenants
        ));
    }
    let overflow = || CkptError::new("work units overflow u64");
    let earned = WorkloadClass::ALL
        .into_iter()
        .zip(&metrics.by_class)
        .try_fold(0u64, |sum, (class, c)| {
            sum.checked_add(c.edge_served.checked_mul(cfg.class(class).work_units)?)
        })
        .ok_or_else(overflow)?;
    let credited = metrics
        .work_units_by_tenant
        .values()
        .try_fold(0u64, |sum, &w| sum.checked_add(w))
        .ok_or_else(overflow)?;
    if credited != earned {
        return refuse(format!(
            "tenants hold {credited} work units, served requests earned {earned}"
        ));
    }
    Ok(())
}

// ---- telemetry codec ------------------------------------------------

/// Writes a resident span. Its tenant (the vehicle's) and shard (always
/// 0) are not written.
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
    w.key("vehicle").u32(s.vehicle);
    w.end_object();
}

/// Decodes a resident span, refusing a vehicle, region or class the run
/// does not have.
fn dec_span(cfg: &FleetConfig, v: &Value) -> Result<RequestSpan, CkptError> {
    let outcome_label = get_str(v, "outcome")?;
    let outcome = SpanOutcome::from_label(outcome_label)
        .ok_or_else(|| CkptError::new(format!("unknown span outcome {outcome_label:?}")))?;
    let class_label = get_str(v, "class")?;
    let class = WorkloadClass::ALL
        .iter()
        .map(|c| c.label())
        .find(|&label| label == class_label)
        .ok_or_else(|| CkptError::new(format!("span names unknown class {class_label:?}")))?;
    let (vehicle, region) = (get_u32(v, "vehicle")?, get_u32(v, "region")?);
    if vehicle >= cfg.vehicles || region >= cfg.regions {
        return Err(CkptError::new(format!(
            "span names vehicle {vehicle} in region {region} ({} vehicles, {} regions)",
            cfg.vehicles, cfg.regions
        )));
    }
    Ok(RequestSpan {
        vehicle,
        seq: get_u32(v, "seq")?,
        tenant: cfg.tenant_of(vehicle),
        region,
        shard: 0,
        class,
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

/// Writes the full telemetry surface: every per-epoch series, the
/// histograms their rolled-up points went to, and an empty span array,
/// whose inside offset it returns. The span log goes there in its
/// current order (the final `sort_canonical` has unique keys, so order
/// here is immaterial), as [`SpanText`] chunks.
fn enc_telemetry(w: &mut JsonWriter, tel: &FleetTelemetry) -> usize {
    w.begin_object();
    w.key("hists").begin_array();
    for h in tel.registry.all_histograms() {
        w.begin_array().str(h.name());
        enc_hist(w, h);
        w.end_array();
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
    let spans_at = w.as_str().len();
    w.end_array();
    w.end_object();
    spans_at
}

/// The resident span log's snapshot text, encoded once per span: one
/// immutable chunk per snapshot that found spans past the ones already
/// covered, each holding its spans comma-separated. Joined by commas,
/// the chunks are the contents of the payload's `spans` array. No
/// snapshot stores the cache, so a restore starts with an empty one;
/// whatever removes resident spans or reorders them clears it.
#[derive(Clone, Default)]
pub(crate) struct SpanText {
    chunks: Vec<Arc<str>>,
    /// How many of the log's first spans the chunks hold.
    covered: usize,
}

impl SpanText {
    pub(crate) fn clear(&mut self) {
        *self = SpanText::default();
    }

    /// Encodes the spans of `log` past the ones already covered into a
    /// new chunk, and returns every chunk.
    fn extend(&mut self, log: &[RequestSpan]) -> &[Arc<str>] {
        if log.len() > self.covered {
            self.chunks.push(enc_spans(&log[self.covered..]).into());
            self.covered = log.len();
        }
        debug_assert_eq!(
            self.chunks.join(","),
            enc_spans(log),
            "the cached span text is stale"
        );
        &self.chunks
    }
}

impl fmt::Debug for SpanText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanText")
            .field("chunks", &self.chunks.len())
            .field("covered", &self.covered)
            .finish()
    }
}

/// Writes `spans` comma-separated: the contents of a span array.
fn enc_spans(spans: &[RequestSpan]) -> String {
    let mut w = JsonWriter::new();
    for span in spans {
        enc_span(&mut w, span);
    }
    w.into_string()
}

type SpillState = (u64, u32, u64);

/// Decodes the telemetry payload of a snapshot whose run issued
/// `requests` requests. Refuses a series or histogram name outside
/// [`series::ALL`], the series the engine samples. Refuses a sink that
/// accounts for more spans (spilled, sampled out or resident) than
/// that: every span belongs to one issued request, and an in-flight
/// request has none yet. Refuses a spill segment index above the
/// spilled count too, since each rotation follows a write of at least
/// one span.
fn dec_telemetry(
    cfg: &FleetConfig,
    v: &Value,
    requests: u64,
) -> Result<(FleetTelemetry, SpillState), CkptError> {
    let mut tel = FleetTelemetry::default();
    for s in get_array(v, "spans")? {
        tel.spans.push(dec_span(cfg, s)?);
    }
    let sampled = |name: &Value| {
        let name = val_str(name)?;
        series::named(name)
            .ok_or_else(|| CkptError::new(format!("telemetry names unknown series {name:?}")))
    };
    for entry in get_array(v, "series")? {
        let (name, points) = val_pair(entry)?;
        let name = sampled(name)?;
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
        tel.registry
            .restore_histogram(dec_hist(body, sampled(name)?)?);
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
    let (spilled, index, _) = spill_state;
    [tel.sampled_out, tel.spans.len() as u64]
        .into_iter()
        .try_fold(spilled, u64::checked_add)
        .filter(|&n| n <= requests)
        .ok_or_else(|| {
            CkptError::new(format!(
                "telemetry sink accounts for more spans than the {requests} requests issued"
            ))
        })?;
    if u64::from(index) > spilled {
        return Err(CkptError::new(format!(
            "spill segment {index} follows only {spilled} spilled spans"
        )));
    }
    Ok((tel, spill_state))
}

// ---- mobility codec -------------------------------------------------

/// Writes a track's run-time state. Its plan is not written: restore
/// draws it again from the track's seeded stream.
fn enc_track(w: &mut JsonWriter, t: &TrackSnapshot) {
    w.begin_object();
    w.key("leg").u32(t.leg as u32);
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
    w.key("region").u32(t.region);
    w.key("rng");
    enc_words(w, &t.rng);
    w.end_object();
}

fn dec_track(v: &Value) -> Result<TrackSnapshot, CkptError> {
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
    Ok(TrackSnapshot {
        region: get_u32(v, "region")?,
        leg,
        motion,
        rng: rng_field(v, "rng")?.state(),
    })
}

/// Refuses a track that no mobility pass could have left at a barrier:
/// every region it names is in the graph, and a driving track is on a
/// segment from its region to the first step of a path whose steps are
/// adjacent.
fn check_track(snap: &TrackSnapshot, graph: &RegionGraph) -> Result<(), String> {
    let regions = graph.regions();
    if snap.region >= regions {
        return Err(format!("names region {}", snap.region));
    }
    let TrackMotion::Drive { edge, path, .. } = &snap.motion else {
        return Ok(());
    };
    if let Some(r) = path.iter().find(|&&r| r >= regions) {
        return Err(format!("routes through region {r}"));
    }
    let seg = graph
        .segments()
        .get(*edge)
        .ok_or_else(|| format!("drives on segment {edge}"))?;
    let on_path = path.first().is_some_and(|&next| {
        (seg.a, seg.b) == (snap.region, next) || (seg.b, seg.a) == (snap.region, next)
    }) && path
        .windows(2)
        .all(|step| graph.edge_between(step[0], step[1]).is_some());
    if on_path {
        Ok(())
    } else {
        Err(format!("drives segment {edge} off its path {path:?}"))
    }
}

/// Writes the mobility ledger. `crossings` is not written: it is
/// `migrations + same_shard_crossings`.
fn enc_mobility_metrics(w: &mut JsonWriter, m: &MobilityMetrics) {
    w.begin_object();
    w.key("crossing_speed_mph");
    enc_hist(w, &m.crossing_speed_mph);
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
    let empty = MobilityMetrics::new();
    let migrations = get_u64_hex(v, "migrations")?;
    let same_shard_crossings = get_u64_hex(v, "same_shard_crossings")?;
    Ok(MobilityMetrics {
        crossings: migrations
            .checked_add(same_shard_crossings)
            .ok_or_else(|| CkptError::new("mobility ledger crossings overflow u64"))?,
        migrations,
        same_shard_crossings,
        storm_crossings: get_u64_hex(v, "storm_crossings")?,
        stale_cache_hits: get_u64_hex(v, "stale_cache_hits")?,
        readdressed_batches: get_u64_hex(v, "readdressed_batches")?,
        handoff_seconds: get_f64_bits(v, "handoff_seconds")?,
        handoff_ms: hist_field(v, "handoff_ms", &empty.handoff_ms)?,
        crossing_speed_mph: hist_field(v, "crossing_speed_mph", &empty.crossing_speed_mph)?,
    })
}

/// The engine-owned geo-mobility pass.
///
/// All mobility state — the seeded region graph and every vehicle's
/// route track — advances only at barriers, in canonical vehicle-id
/// order, so crossings are a pure function of `(seed, vehicle, epoch)`
/// whichever worker runs [`MobilityPass::advance`].
struct MobilityPass {
    graph: RegionGraph,
    tracks: Vec<VehicleTrack>,
    channel: CellularChannel,
    handoff_labels: Vec<String>,
    metrics: MobilityMetrics,
    crossings_buf: Vec<Crossing>,
    /// This barrier's crossings as `(destination region, handoff cost)`,
    /// in crossing order, for the reliability ledger after the join.
    costs: Vec<(u32, SimDuration)>,
    /// The region each vehicle that crossed this barrier ended up in,
    /// indexed by id: the key of the ingest backlog's one-pass
    /// re-addressing (sized only when ingest runs).
    dest: Vec<Option<u32>>,
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
            channel: CellularChannel::calibrated(),
            handoff_labels: (0..cfg.regions).map(handoff_label).collect(),
            metrics: MobilityMetrics::new(),
            crossings_buf: Vec::new(),
            costs: Vec::new(),
            dest: if cfg.ingest.is_some() {
                vec![None; cfg.vehicles as usize]
            } else {
                Vec::new()
            },
        }
    }

    /// Serializes the pass: every route track (in vehicle-id order) and
    /// the mobility ledger.
    fn ckpt(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("metrics");
        enc_mobility_metrics(w, &self.metrics);
        w.key("tracks").begin_array();
        for t in &self.tracks {
            enc_track(w, &t.snapshot());
        }
        w.end_array();
        w.end_object();
    }

    /// Rebuilds the pass: the region graph, the channel and every
    /// track's plan are derived again from the seed, and each track's
    /// run-time state and the ledger come from the snapshot.
    fn restore_ckpt(
        mob: &vdap_mobility::MobilityConfig,
        cfg: &FleetConfig,
        seeds: &SeedFactory,
        v: &Value,
    ) -> Result<MobilityPass, CkptError> {
        let mut pass = MobilityPass::new(mob, cfg, seeds);
        let tracks = get_array(v, "tracks")?;
        if tracks.len() != pass.tracks.len() {
            return Err(CkptError::new(format!(
                "snapshot holds {} mobility tracks, config expects {}",
                tracks.len(),
                cfg.vehicles
            )));
        }
        for (i, (track, enc)) in pass.tracks.iter_mut().zip(tracks).enumerate() {
            let snap = dec_track(enc)?;
            check_track(&snap, &pass.graph)
                .map_err(|what| CkptError::new(format!("mobility track {i} {what}")))?;
            track.restore(snap);
        }
        pass.metrics = dec_mobility_metrics(get(v, "metrics")?)?;
        Ok(pass)
    }

    /// Refuses a mobility ledger no run of `epoch` barriers leaves, with
    /// `requests` requests and `sent` ingest batches issued: each
    /// crossing is a migration or a same-domain move, records one
    /// handoff cost and one speed, and lands in a storm at most once;
    /// each stale-cache hit suppressed one request; and a barrier
    /// re-addresses each batch sent so far at most once.
    fn check_ledger(&self, epoch: u64, requests: u64, sent: u64) -> Result<(), CkptError> {
        let m = &self.metrics;
        let problem =
            if m.handoff_ms.count() != m.crossings || m.crossing_speed_mph.count() != m.crossings {
                "records a handoff cost or speed per crossing it does not count"
            } else if m.storm_crossings > m.crossings {
                "storms more crossings than it counts"
            } else if m.stale_cache_hits > requests {
                "suppresses more cache hits than requests were issued"
            } else if m.readdressed_batches > sent.saturating_mul(epoch) {
                "re-addresses more batches than its barriers held"
            } else {
                return Ok(());
            };
        Err(CkptError::new(format!("mobility ledger {problem}")))
    }

    /// The forkable half of one barrier's mobility step, covering the
    /// epoch `[epoch_start, end]` the vehicles just finished: clears the
    /// stale flags, advances every track, prices each crossing into the
    /// ledger, and rewrites each crossing vehicle in place. It touches
    /// only the pass and the vehicles, buffering each crossing's handoff
    /// cost for [`MobilityPass::fold`]. Returns the epoch's crossings
    /// and migrations.
    fn advance(
        &mut self,
        vehicles: &mut [VehicleState],
        injector: Option<&FaultInjector>,
        cfg: &FleetConfig,
        epoch_start: SimTime,
        end: SimTime,
    ) -> (u64, u64) {
        // Vehicles that crossed at the *previous* barrier spent the
        // epoch with a cold collab cache: clear every flag before
        // marking this barrier's crossers.
        for v in vehicles.iter_mut() {
            v.cache_stale = false;
        }
        self.dest.fill(None);
        self.costs.clear();

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
        for (id, v) in (0..).zip(vehicles.iter_mut()) {
            self.crossings_buf.clear();
            self.tracks[id as usize].advance(
                epoch_start,
                end - epoch_start,
                &self.graph,
                &congestion,
                &mut self.crossings_buf,
            );
            if self.crossings_buf.is_empty() {
                continue;
            }
            let mut handoff = SimDuration::ZERO;
            for c in &self.crossings_buf {
                // A handoff storm at the destination cell multiplies
                // the crossing cost — the single accounting path for
                // handoff seconds, organic or injected.
                let storming = injector
                    .is_some_and(|inj| inj.handoff_storm(&self.handoff_labels[c.to as usize], end));
                // The ledger's counters saturate, so no restored value
                // can overflow them.
                let m = &mut self.metrics;
                let cost = if storming {
                    m.storm_crossings = m.storm_crossings.saturating_add(1);
                    self.channel.storm_handoff_cost(c.speed)
                } else {
                    self.channel.handoff_cost(c.speed)
                };
                m.crossings = m.crossings.saturating_add(1);
                epoch_crossings += 1;
                m.handoff_seconds += cost.as_secs_f64();
                m.handoff_ms.record_duration(cost);
                m.crossing_speed_mph.record(c.speed.0);
                // `migrations` counts home-node *domain* changes: a
                // crossing between regions homed on different XEdge
                // nodes.
                if c.from % cfg.edge_nodes != c.to % cfg.edge_nodes {
                    m.migrations = m.migrations.saturating_add(1);
                    epoch_migrations += 1;
                } else {
                    m.same_shard_crossings = m.same_shard_crossings.saturating_add(1);
                }
                self.costs.push((c.to, cost));
                handoff += cost;
            }

            // The vehicle's own state, rewritten in place: handoff debt
            // lands on its next request, the region moves, the collab
            // cache goes stale for one epoch.
            let dest = self.tracks[id as usize].region();
            v.pending_handoff += handoff;
            v.region = dest;
            v.cache_stale = true;
            if let Some(slot) = self.dest.get_mut(id as usize) {
                *slot = Some(dest);
            }
        }
        (epoch_crossings, epoch_migrations)
    }

    /// The serial half of the barrier's mobility step, after the join:
    /// charges the buffered handoff costs to the reliability ledger in
    /// crossing order, moves the crossers' in-flight ingest batches to
    /// their new regions, and samples the epoch's crossing series.
    fn fold(
        &mut self,
        (crossings, migrations): (u64, u64),
        ingest: Option<&mut IngestPass>,
        reliability: &mut ReliabilityStats,
        telemetry: Option<&mut FleetTelemetry>,
        epoch_index: u64,
        end: SimTime,
    ) {
        for &(region, cost) in &self.costs {
            reliability.record_degraded(&self.handoff_labels[region as usize], cost);
        }

        // Crossers' in-flight batches follow them: one pass over the
        // ingest backlog. Each batch belongs to one vehicle, so this
        // moves what a per-vehicle pass in id order would.
        if let Some(ing) = ingest {
            if crossings > 0 {
                self.metrics.readdressed_batches += ing.readdress(&self.dest);
            }
        }

        if let Some(tel) = telemetry {
            tel.registry
                .sample(series::CROSSINGS, epoch_index, end, crossings as f64);
            tel.registry
                .sample(series::MIGRATIONS, epoch_index, end, migrations as f64);
        }
    }
}

/// Samples the per-epoch time series at one barrier. Every sampled
/// value is an output of the canonical single-threaded serving pass,
/// so no schedule can reach the series.
fn sample_epoch(tel: &mut FleetTelemetry, outcome: &EpochOutcome, epoch: u64, at: SimTime) {
    tel.registry
        .sample(series::QUEUE_DEPTH, epoch, at, outcome.queue_depth as f64);
    tel.registry
        .sample(series::LANES, epoch, at, f64::from(outcome.lanes));
    for class in WorkloadClass::ALL {
        let served = outcome.served.iter().filter(|s| s.class == class).count();
        let rejected = outcome.rejected.iter().filter(|r| r.class == class).count();
        tel.registry
            .sample(series::SERVED[class.index()], epoch, at, served as f64);
        tel.registry
            .sample(series::REJECTED[class.index()], epoch, at, rejected as f64);
    }
}

/// Writes the per-tenant availability ledger. A tenant is "down" while
/// its own quota is flapped or while any XEdge node-crash window is
/// active (every tenant's traffic shares the node pool). Crash windows
/// are quantized up to the barrier grid the serving pass actually
/// samples, so per-tenant MTTR matches what requests experienced. A
/// crash that is never repaired, and any window that outlasts the
/// horizon, leaves the tenant's outage open to the horizon.
fn record_tenant_ledger(reliability: &mut ReliabilityStats, inj: &FaultInjector, ctx: &RunCtx) {
    let (cfg, horizon) = (&ctx.cfg, ctx.horizon);
    let quantize = |t: SimTime| -> SimTime {
        let k = t.elapsed().as_nanos().div_ceil(cfg.epoch.as_nanos());
        let q = SimTime::ZERO + cfg.epoch * k;
        if q > horizon {
            horizon
        } else {
            q
        }
    };
    // `SimTime::MAX` marks an outage the run never sees repaired.
    let unrepaired = |w: &FaultWindow, end: SimTime| {
        if w.end > horizon {
            SimTime::MAX
        } else {
            end
        }
    };
    let crash_windows: Vec<(SimTime, SimTime)> = inj
        .windows()
        .iter()
        .filter(|w| matches!(w.kind, FaultKind::EdgeNodeCrash))
        .filter_map(|w| {
            let (start, end) = (quantize(w.start), quantize(w.end));
            if ctx.never_repaired(w) {
                Some((start, SimTime::MAX))
            } else {
                (end > start).then(|| (start, unrepaired(w, end)))
            }
        })
        .collect();
    for t in 0..cfg.tenants {
        let label = tenant_label(t);
        let mut windows = crash_windows.clone();
        for w in inj.windows() {
            if matches!(w.kind, FaultKind::TenantQuotaFlap { .. }) && w.target == label {
                let end = if w.end > horizon { horizon } else { w.end };
                if end > w.start {
                    windows.push((w.start, unrepaired(w, end)));
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
            if e != SimTime::MAX {
                reliability.record_recovery(&label, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        let mut cfg = FleetConfig::sized(96);
        cfg.duration = SimDuration::from_secs(10);
        cfg
    }

    /// `cfg` under the two non-default run layouts every invariance
    /// test checks: one worker with single-vehicle batches, and two
    /// workers with an odd batch size.
    fn relaid(cfg: &FleetConfig) -> [FleetConfig; 2] {
        [
            cfg.clone().with_executor_threads(1).with_batch_size(1),
            cfg.clone().with_executor_threads(2).with_batch_size(7),
        ]
    }

    /// The cached span text must match a fresh encode after the log
    /// loses spans (the budget's auto-sampling, the spill drain) and
    /// then grows past the count the cache covered: a cache dropped on a
    /// length check alone would keep its stale chunk.
    #[test]
    fn span_text_is_dropped_when_spans_leave_the_log() {
        let span = |i: u32| RequestSpan {
            vehicle: i % 7,
            seq: i,
            tenant: 0,
            region: i % 3,
            shard: 0,
            class: WorkloadClass::ALL[i as usize % 3].label(),
            generated: SimTime::from_nanos(u64::from(i) * 1_000),
            admitted: i
                .is_multiple_of(2)
                .then(|| SimTime::from_nanos(u64::from(i) * 1_000 + 7)),
            serve_start: None,
            completed: SimTime::from_nanos(u64::from(i) * 1_000 + 900),
            outcome: if i.is_multiple_of(5) {
                SpanOutcome::Rejected
            } else {
                SpanOutcome::EdgeServed
            },
            retries: i % 2,
            requeues: 0,
            handoff: i.is_multiple_of(4),
        };
        let spill = std::env::temp_dir().join(format!("vdap-span-text-{}", std::process::id()));
        // A one-byte budget: the first flush auto-samples the resident
        // spans down, or drains every one of them to the spill.
        for spill_dir in [None, Some(spill.clone())] {
            let mut tel = FleetTelemetry::configured(Some(1), None, spill_dir, 42);
            for i in 0..40 {
                tel.absorb(span(i));
            }
            let cached = tel.span_text.extend(tel.spans.spans()).len();
            assert_eq!(cached, 1);
            tel.barrier_flush(0);
            assert!(tel.spans.len() < 40, "the flush removed spans");
            let mut i = 40;
            while tel.spans.len() <= 40 {
                tel.spans.push(span(i));
                i += 1;
            }
            let text = tel.span_text.extend(tel.spans.spans()).join(",");
            assert_eq!(text, enc_spans(tel.spans.spans()));
        }
        let _ = std::fs::remove_dir_all(&spill);
    }

    #[test]
    fn shard_counts_produce_identical_summaries() {
        let base = FleetEngine::new(small()).run();
        for cfg in relaid(&small()) {
            let r = FleetEngine::new(cfg).run();
            assert_eq!(base.summary(), r.summary());
            assert_eq!(base.metrics, r.metrics);
        }
    }

    #[test]
    fn requests_split_across_outcomes() {
        let report = FleetEngine::new(small()).run();
        let (m, total) = (&report.metrics, report.metrics.total());
        assert!(m.requests >= 96 * 9, "~1 request/vehicle/second");
        assert_eq!(
            m.requests,
            total.edge_served
                + total.collab_hits
                + total.failovers
                + total.rejected
                + total.local_fallbacks,
            "every request has exactly one outcome"
        );
        assert!(total.collab_hits > 0, "cohort-mates should share results");
        assert_eq!(total.e2e_latency_ms.count(), m.requests);
        assert_eq!(m.energy_per_request_j.count(), m.requests);
    }

    #[test]
    fn regional_outage_causes_failovers_and_lowers_availability() {
        let mut cfg =
            small().with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(4));
        cfg.duration = SimDuration::from_secs(10);
        let report = FleetEngine::new(cfg).run();
        assert!(report.metrics.total().failovers > 0);
        assert_eq!(report.reliability.faults_injected(), 1);
        assert_eq!(report.region_availability.len(), 1);
        let (label, avail) = &report.region_availability[0];
        assert_eq!(label, "region0/lte");
        assert!((*avail - 0.6).abs() < 1e-9, "4 s down of 10 s: {avail}");
        assert!(report.reliability.failover_latency().count() > 0);
    }

    #[test]
    fn node_crash_walks_the_degradation_ladder() {
        let mut cfg = small();
        cfg.edge_nodes = 1;
        let cfg = cfg.with_edge_node_crash(0, SimTime::from_secs(2), SimDuration::from_secs(4));
        let report = FleetEngine::new(cfg.clone()).run();
        let (m, total) = (&report.metrics, report.metrics.total());
        assert!(
            report.reliability.retry_success_count() > 0,
            "late arrivals should ride out the crash via rung-1 retry"
        );
        assert!(
            total.local_fallbacks > 0,
            "early arrivals exhaust their deadline and fall to rung 3"
        );
        assert_eq!(
            m.requests,
            total.edge_served
                + total.collab_hits
                + total.failovers
                + total.rejected
                + total.local_fallbacks,
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
        // The whole chaos story is still byte-identical across run
        // layouts.
        for relaid in relaid(&cfg) {
            assert_eq!(report.summary(), FleetEngine::new(relaid).run().summary());
        }
    }

    #[test]
    fn a_window_past_the_horizon_records_no_repair() {
        // Node 0 goes down at 29 s for 1.5 s in a 30 s run: neither
        // ledger sees the repair, so node and tenants stay down for the
        // last second and no MTTR sample is taken.
        let mut cfg = FleetConfig::sized(256);
        cfg.seed = 3;
        cfg.duration = SimDuration::from_secs(30);
        let cfg =
            cfg.with_edge_node_crash(0, SimTime::from_secs(29), SimDuration::from_millis(1500));
        let report = FleetEngine::new(cfg).run();
        let summary = report.summary();
        for label in ["xedge/node0", "tenant0", "tenant1", "tenant2", "tenant3"] {
            assert!(
                summary.contains(&format!("availability[{label}]=0.966667")),
                "{summary}"
            );
        }
        assert_eq!(report.reliability.mttr().count(), 0, "{summary}");
    }

    #[test]
    fn ingest_runs_healthy_and_stays_shard_invariant() {
        let cfg = small().with_ingest();
        let report = FleetEngine::new(cfg.clone()).run();
        let ing = report.ingest.as_ref().expect("ingest ledger present");
        assert!(ing.batches_sent > 0, "vehicles uploaded batches");
        assert_eq!(
            ing.records_sent,
            ing.records_written + ing.records_shed + ing.cache_evictions + ing.backlog_records,
            "every record is written, shed, evicted, or backlog"
        );
        assert_eq!(ing.deadline_misses, 0, "healthy run misses nothing");
        for relaid in relaid(&cfg) {
            let r = FleetEngine::new(relaid).run();
            assert_eq!(report.summary(), r.summary());
            assert_eq!(report.ingest, r.ingest);
        }
    }

    #[test]
    fn storage_chaos_degrades_ingest_through_the_ladder() {
        let mut cfg = small()
            .with_ingest()
            .with_collector_outage(0, SimTime::from_secs(1), SimDuration::from_secs(6))
            .with_storage_brownout(0.02, SimTime::from_secs(2), SimDuration::from_secs(6));
        cfg.ingest.as_mut().unwrap().storage_records_per_sec = 400.0;
        let report = FleetEngine::new(cfg.clone()).run();
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
        for relaid in relaid(&cfg) {
            assert_eq!(report.summary(), FleetEngine::new(relaid).run().summary());
        }
    }

    #[test]
    fn mobility_crossings_stay_shard_invariant() {
        let cfg = small().with_mobility();
        let base = FleetEngine::new(cfg.clone()).run();
        let mob = base.mobility.as_ref().expect("mobility ledger present");
        assert!(mob.crossings > 0, "vehicles cross region boundaries");
        assert!(mob.migrations > 0, "some crossings change home-node domain");
        assert!(
            mob.partitions(),
            "crossings partition into migrations + same-domain moves"
        );
        for relaid in relaid(&cfg) {
            let r = FleetEngine::new(relaid).run();
            assert_eq!(base.summary(), r.summary());
            assert_eq!(base.mobility, r.mobility);
            assert_eq!(base.region_admission, r.region_admission);
        }
    }

    #[test]
    fn handoff_storm_multiplies_crossing_cost_without_double_counting() {
        let build = |storm: bool| {
            let mut cfg = small().with_mobility();
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
        let cfg = small().with_regional_outage(1, SimTime::from_secs(3), SimDuration::from_secs(3));
        let base = FleetEngine::new(cfg.clone()).run().summary();
        for relaid in relaid(&cfg) {
            assert_eq!(base, FleetEngine::new(relaid).run().summary());
        }
    }
}
