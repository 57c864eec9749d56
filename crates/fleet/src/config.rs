//! Fleet scenario configuration and the vehicle → tenant/region
//! mapping.
//!
//! Every mapping here is a pure function of the vehicle id and the
//! fleet-wide counts — never of the executor width or batch size, which
//! only decide *where* each vehicle's events execute, not *what* they
//! compute.
//!
//! Since the workload-class refactor the cost model is per
//! [`WorkloadClass`]: each class carries its own bytes, service times,
//! work units, DRR quantum and deadline in a [`ClassSpec`], and the mix
//! a vehicle draws from is a deterministic function of its private RNG
//! stream.

use std::fmt;

use vdap_edgeos::{LanePolicy, WorkloadClass};
use vdap_fault::{FaultKind, FaultPlan, FaultSpec};
use vdap_mobility::MobilityConfig;
use vdap_sim::{SimDuration, SimTime};

/// The cost/deadline model of one [`WorkloadClass`] in a fleet run.
///
/// Every layer of the serving path reads these numbers: the vehicle
/// tick sizes transfers from `upload_bytes`/`download_bytes`, the XEdge
/// fair queue charges `work_units` against a per-class `drr_quantum`,
/// the contention model prices `edge_service` per class, and the
/// degradation ladder budgets retries against `deadline`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Relative share of a vehicle's requests drawn from this class
    /// (weights, not fractions; 0 disables the class).
    pub weight: u32,
    /// Uplink payload per request.
    pub upload_bytes: u64,
    /// Downlink payload per response.
    pub download_bytes: u64,
    /// Base XEdge service time per request at an idle server.
    pub edge_service: SimDuration,
    /// On-board compute time when the request cannot reach the edge.
    pub vehicle_service: SimDuration,
    /// Service cost units charged per request in the fair queue.
    pub work_units: u64,
    /// Deficit round-robin quantum for this class's flows.
    pub drr_quantum: u64,
    /// End-to-end deadline budget per request (rung-1 retry horizon).
    pub deadline: SimDuration,
    /// Whether results are scan-type work eligible for V2V sharing.
    pub cacheable: bool,
    /// Service-time multiplier for rung-3 local degraded execution.
    pub degraded_service_factor: f64,
}

impl ClassSpec {
    /// The default detection-offload cost model (the pre-refactor
    /// fleet's single class): small feature uploads, tiny responses,
    /// tight deadline, V2V-shareable results.
    #[must_use]
    pub fn detection() -> Self {
        ClassSpec {
            weight: 6,
            upload_bytes: 20_000,
            download_bytes: 2_000,
            edge_service: SimDuration::from_millis(8),
            vehicle_service: SimDuration::from_millis(45),
            work_units: 8,
            drr_quantum: 8,
            deadline: SimDuration::from_secs(3),
            cacheable: true,
            degraded_service_factor: 0.6,
        }
    }

    /// The default infotainment-streaming cost model (E13's
    /// `apps::infotainment` scaled to per-request chunks): tiny
    /// requests, heavy transcoded downlink, double-size work units and
    /// quantum, looser deadline, nothing cacheable.
    #[must_use]
    pub fn infotainment() -> Self {
        ClassSpec {
            weight: 3,
            upload_bytes: 1_000,
            download_bytes: 200_000,
            edge_service: SimDuration::from_millis(12),
            vehicle_service: SimDuration::from_millis(30),
            work_units: 16,
            drr_quantum: 16,
            deadline: SimDuration::from_secs(2),
            cacheable: false,
            degraded_service_factor: 0.5,
        }
    }

    /// The default pBEAM-training cost model (`vdap_models::pbeam`
    /// rounds): a gradient upload plus model-delta download, heavy
    /// aggregation work at the edge, the loosest deadline. A missed
    /// round is *skipped*, never recomputed locally — the on-board
    /// `vehicle_service` only prices the local continuation a vehicle
    /// pays when the edge is unreachable.
    #[must_use]
    pub fn pbeam_training() -> Self {
        ClassSpec {
            weight: 1,
            upload_bytes: 120_000,
            download_bytes: 40_000,
            edge_service: SimDuration::from_millis(24),
            vehicle_service: SimDuration::from_millis(20),
            work_units: 32,
            drr_quantum: 32,
            deadline: SimDuration::from_secs(10),
            cacheable: false,
            degraded_service_factor: 1.0,
        }
    }

    fn validate(&self, class: WorkloadClass) -> Result<(), FleetConfigError> {
        let reject = |what: &str| {
            Err(FleetConfigError::BadClassSpec {
                class,
                what: what.to_string(),
            })
        };
        if self.weight > 0 {
            if self.edge_service.is_zero() {
                return reject("edge service time must be positive");
            }
            if self.work_units == 0 {
                return reject("work units must be positive");
            }
            if self.drr_quantum == 0 {
                return reject("DRR quantum must be positive");
            }
            if self.deadline.is_zero() {
                return reject("deadline must be positive");
            }
            if !(self.degraded_service_factor > 0.0 && self.degraded_service_factor <= 1.0) {
                return reject("degraded service factor must be in (0, 1]");
            }
        }
        Ok(())
    }
}

/// Configuration of the fleet-scale DDI ingestion pipeline.
///
/// When attached to a [`FleetConfig`] (see [`FleetConfig::with_ingest`])
/// every vehicle batches its telemetry records and uploads them through
/// its region's DDI collector over the shared cellular link; collectors
/// buffer the batches in bounded queues ahead of a shared storage tier
/// with finite write throughput. Overflow backpressure walks the
/// ingestion degradation ladder: seeded-backoff retry, then deferral
/// into the vehicle's local TTL cache (mem tier first, disk spill
/// second), then shedding lowest-priority batches.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Mean per-vehicle upload period (±10% deterministic jitter).
    pub upload_period: SimDuration,
    /// Telemetry records per upload batch.
    pub records_per_batch: u32,
    /// Bytes per record on the wire.
    pub record_bytes: u64,
    /// Ingestion deadline: a batch should be durable within this budget
    /// of being sent.
    pub deadline: SimDuration,
    /// Bound (in records) of each regional collector's queue.
    pub collector_queue_records: u64,
    /// Nominal storage-tier write throughput, records per second.
    pub storage_records_per_sec: f64,
    /// Per-vehicle mem-tier cache capacity (records) for deferred
    /// batches.
    pub cache_mem_records: u64,
    /// Per-vehicle disk-tier spill capacity (records) beyond the mem
    /// tier.
    pub cache_disk_records: u64,
    /// TTL of a deferred batch in the vehicle cache; expiry evicts it.
    pub cache_ttl: SimDuration,
    /// Rung-1 upload attempts per batch (including the first).
    pub max_upload_attempts: u32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            upload_period: SimDuration::from_secs(2),
            records_per_batch: 24,
            record_bytes: 512,
            deadline: SimDuration::from_secs(5),
            collector_queue_records: 4096,
            storage_records_per_sec: 2_000.0,
            cache_mem_records: 192,
            cache_disk_records: 768,
            cache_ttl: SimDuration::from_secs(20),
            max_upload_attempts: 4,
        }
    }
}

impl IngestConfig {
    /// Batch size on the wire.
    #[must_use]
    pub fn batch_bytes(&self) -> u64 {
        u64::from(self.records_per_batch) * self.record_bytes
    }

    fn validate(&self) -> Result<(), FleetConfigError> {
        let reject = |what: &str| Err(FleetConfigError::BadIngest(what.to_string()));
        if self.upload_period.is_zero() {
            return reject("upload period must be positive");
        }
        if self.records_per_batch == 0 {
            return reject("records per batch must be positive");
        }
        if self.record_bytes == 0 {
            return reject("record bytes must be positive");
        }
        if self.deadline.is_zero() {
            return reject("ingest deadline must be positive");
        }
        if self.collector_queue_records < u64::from(self.records_per_batch) {
            return reject("collector queue must hold at least one batch");
        }
        if self.storage_records_per_sec <= 0.0 || self.storage_records_per_sec.is_nan() {
            return reject("storage throughput must be positive");
        }
        if self.cache_mem_records < u64::from(self.records_per_batch) {
            return reject("mem-tier cache must hold at least one batch");
        }
        if self.cache_ttl.is_zero() {
            return reject("cache TTL must be positive");
        }
        if self.max_upload_attempts == 0 {
            return reject("upload attempts must be at least 1");
        }
        Ok(())
    }
}

/// Durable barrier checkpointing for a fleet run.
///
/// When attached to a [`FleetConfig`] (see
/// [`FleetConfig::with_checkpoint`]) the engine serializes its complete
/// deterministic state — vehicle RNG streams, edge lane pools, ingest
/// queues, mobility tracks, every ledger — into a versioned, checksummed
/// snapshot every `interval_epochs` barriers, keeping the last `retain`
/// generations. `FleetEngine::restore` resumes a run from any surviving
/// snapshot, byte-identically and even under a different executor width
/// or batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Barriers between snapshots: a snapshot is written at every epoch
    /// whose index is a positive multiple of this interval.
    pub interval_epochs: u64,
    /// Snapshot generations kept on the store (keep-last-K retention).
    pub retain: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval_epochs: 8,
            retain: 3,
        }
    }
}

/// Why a [`FleetConfig`] was rejected.
///
/// Every variant names the offending field and the rule it broke, so a
/// caller building configs programmatically gets a diagnosable error at
/// the gate instead of a panic (or a hung run) deep inside the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetConfigError {
    /// `vehicles == 0`.
    NoVehicles,
    /// `tenants == 0`.
    NoTenants,
    /// `tenants > vehicles`: some tenants would have no traffic and
    /// the interleaved vehicle → tenant map would skip tenant ids.
    MoreTenantsThanVehicles {
        /// Configured tenant count.
        tenants: u32,
        /// Configured fleet size.
        vehicles: u32,
    },
    /// `regions == 0`.
    NoRegions,
    /// `duration` is zero.
    ZeroDuration,
    /// `epoch` is zero.
    ZeroEpoch,
    /// `epoch > duration`: the first barrier would fall past the
    /// horizon and the run would serve everything in one degenerate
    /// epoch.
    EpochExceedsDuration {
        /// Configured barrier interval.
        epoch: SimDuration,
        /// Configured simulated duration.
        duration: SimDuration,
    },
    /// `request_period` is zero.
    ZeroRequestPeriod,
    /// `cacheable_fraction` outside `[0, 1]`.
    BadCacheableFraction(f64),
    /// `edge_nodes == 0`.
    NoEdgeNodes,
    /// `edge_nodes > edge_capacity`: some node would own no lane.
    MoreNodesThanLanes {
        /// Configured node count.
        nodes: u32,
        /// Configured lane count.
        lanes: u32,
    },
    /// `tenant_queue_cap == 0`: an admission gate needs at least one
    /// slot per tenant.
    ZeroTenantQueueCap,
    /// The elastic lane policy's thresholds are unusable; the rule
    /// [`LanePolicy::check`] found broken.
    BadLanePolicy(&'static str),
    /// Every class weight is zero: vehicles would have nothing to send.
    EmptyClassMix,
    /// A class spec carries an unusable value.
    BadClassSpec {
        /// The offending class.
        class: WorkloadClass,
        /// The rule it broke.
        what: String,
    },
    /// The ingestion config carries an unusable value.
    BadIngest(String),
    /// Mobility needs at least two regions to cross between.
    MobilityNeedsRegions,
    /// The mobility config carries an unusable value.
    BadMobility(String),
    /// `checkpoint.interval_epochs == 0`: a snapshot at every zeroth
    /// barrier is meaningless.
    ZeroCheckpointInterval,
    /// `checkpoint.interval_epochs` is at least the run's total epoch
    /// count: no barrier would ever write a snapshot.
    CheckpointIntervalExceedsRun {
        /// Configured barriers-between-snapshots.
        interval_epochs: u64,
        /// Epochs the run actually executes.
        total_epochs: u64,
    },
    /// `checkpoint.retain == 0`: every snapshot would be deleted the
    /// moment it was written.
    ZeroCheckpointRetention,
    /// `batch_size == 0`: the tick phase could never make progress.
    ZeroBatchSize,
    /// `executor_threads == Some(0)`: the executor needs at least one
    /// worker.
    ZeroExecutorThreads,
    /// `telemetry_budget == Some(0)`: a zero-byte budget can never be
    /// satisfied.
    ZeroTelemetryBudget,
    /// `span_sample == Some(0)`: keep-one-in-zero is meaningless (1
    /// keeps everything; use that to disable sampling explicitly).
    ZeroSpanSample,
    /// A telemetry sink knob (`telemetry_budget`, `span_spill`,
    /// `span_sample`) is set while `telemetry` itself is off — nothing
    /// would ever be captured, so the knob is certainly a mistake.
    TelemetrySinkWithoutTelemetry,
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::NoVehicles => write!(f, "fleet needs at least one vehicle"),
            FleetConfigError::NoTenants => write!(f, "fleet needs at least one tenant"),
            FleetConfigError::MoreTenantsThanVehicles { tenants, vehicles } => write!(
                f,
                "{tenants} tenants over {vehicles} vehicles: some tenants would have no vehicles"
            ),
            FleetConfigError::NoRegions => write!(f, "fleet needs at least one region"),
            FleetConfigError::ZeroDuration => write!(f, "duration must be positive"),
            FleetConfigError::ZeroEpoch => write!(f, "epoch must be positive"),
            FleetConfigError::EpochExceedsDuration { epoch, duration } => write!(
                f,
                "epoch {epoch} exceeds duration {duration}: the first barrier would fall past \
                 the horizon"
            ),
            FleetConfigError::ZeroRequestPeriod => write!(f, "request period must be positive"),
            FleetConfigError::BadCacheableFraction(p) => {
                write!(f, "cacheable fraction {p} must be a probability in [0, 1]")
            }
            FleetConfigError::NoEdgeNodes => write!(f, "edge needs at least one node"),
            FleetConfigError::MoreNodesThanLanes { nodes, lanes } => write!(
                f,
                "{nodes} XEdge nodes over {lanes} lanes: every node needs at least one lane"
            ),
            FleetConfigError::ZeroTenantQueueCap => {
                write!(f, "tenant queue cap must admit at least one request")
            }
            FleetConfigError::BadLanePolicy(what) => write!(f, "elastic lane policy: {what}"),
            FleetConfigError::EmptyClassMix => {
                write!(f, "every workload-class weight is zero: nothing to send")
            }
            FleetConfigError::BadClassSpec { class, what } => {
                write!(f, "class '{class}': {what}")
            }
            FleetConfigError::BadIngest(what) => write!(f, "ingest: {what}"),
            FleetConfigError::MobilityNeedsRegions => {
                write!(f, "mobility needs at least two regions to cross between")
            }
            FleetConfigError::BadMobility(what) => write!(f, "mobility: {what}"),
            FleetConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be at least one epoch")
            }
            FleetConfigError::CheckpointIntervalExceedsRun {
                interval_epochs,
                total_epochs,
            } => write!(
                f,
                "checkpoint interval of {interval_epochs} epochs over a {total_epochs}-epoch \
                 run: no barrier would ever write a snapshot"
            ),
            FleetConfigError::ZeroCheckpointRetention => {
                write!(f, "checkpoint retention must keep at least one generation")
            }
            FleetConfigError::ZeroBatchSize => {
                write!(f, "batch size must cover at least one vehicle")
            }
            FleetConfigError::ZeroExecutorThreads => {
                write!(f, "executor needs at least one worker thread")
            }
            FleetConfigError::ZeroTelemetryBudget => {
                write!(f, "telemetry budget must be at least one byte")
            }
            FleetConfigError::ZeroSpanSample => write!(
                f,
                "span sampling keeps one span in N; N must be at least 1 (1 keeps everything)"
            ),
            FleetConfigError::TelemetrySinkWithoutTelemetry => write!(
                f,
                "telemetry sink knobs (budget / spill / sampling) require telemetry capture; \
                 call with_telemetry() or use the with_telemetry_* builders"
            ),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Configuration for one fleet run.
///
/// Defaults model the paper's setting scaled to a small city fleet:
/// 1,000 vehicles multiplexing the §IV-B service mix — detection
/// offload, infotainment streaming and pBEAM training rounds — over a
/// shared XEdge deployment via LTE for one simulated minute.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master scenario seed; every random stream derives from it.
    pub seed: u64,
    /// Fleet size.
    pub vehicles: u32,
    /// Service tenants sharing the XEdge servers.
    pub tenants: u32,
    /// Geographic LTE regions (cell coverage areas).
    pub regions: u32,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Conservative-synchronization epoch (barrier interval).
    pub epoch: SimDuration,
    /// Mean per-vehicle request period (±10% deterministic jitter).
    pub request_period: SimDuration,
    /// Per-class cost models, indexed by [`WorkloadClass::index`].
    pub classes: [ClassSpec; 3],
    /// Fraction of cacheable-class requests eligible for V2V result
    /// sharing.
    pub cacheable_fraction: f64,
    /// Concurrent request lanes per XEdge deployment (the nominal pool
    /// size when elastic scaling is on).
    pub edge_capacity: u32,
    /// Physical XEdge nodes the lane pool is partitioned across; lane
    /// `i` belongs to node `i % edge_nodes` and region `r` is homed on
    /// node `r % edge_nodes`. An [`vdap_fault::FaultKind::EdgeNodeCrash`]
    /// takes down one node's whole lane share.
    pub edge_nodes: u32,
    /// Per-tenant outstanding-request cap at the XEdge admission gate
    /// (the nominal cap when elastic scaling is on).
    pub tenant_queue_cap: usize,
    /// Elastic XEdge capacity: when set, lane counts and tenant queue
    /// caps scale up/down from observed queue depth at epoch barriers.
    /// `None` keeps the pool statically sized.
    pub elastic: Option<LanePolicy>,
    /// Re-planning latency a vehicle pays when failing over to on-board
    /// compute.
    pub failover_penalty: SimDuration,
    /// Optional fault plan (e.g. a regional LTE outage).
    pub chaos: Option<FaultPlan>,
    /// Fleet-scale DDI ingestion: per-vehicle batched telemetry uploads
    /// through regional collectors into a shared storage tier. `None`
    /// disables the ingestion pipeline entirely.
    pub ingest: Option<IngestConfig>,
    /// Geo-mobility: when set, vehicles follow seeded route plans over
    /// a region graph and pay a cellular handoff at every
    /// region-boundary crossing, applied at epoch barriers. `None` pins
    /// every vehicle to its initial region (the pre-mobility fleet).
    pub mobility: Option<MobilityConfig>,
    /// Capture sim-time telemetry (one request span per request plus
    /// per-epoch registry samples) during the run. Spans are derived
    /// from values the deterministic serving path already computes, so
    /// enabling this cannot perturb a run — it only costs memory.
    pub telemetry: bool,
    /// Resident-byte budget for sim-time telemetry. When the estimated
    /// resident telemetry bytes (span buffer + registry, a count-based
    /// and therefore deterministic estimate) cross the budget at an
    /// epoch barrier, the engine enforces it: buffered spans spill to
    /// `span_spill` (when set), per-epoch series roll up into streaming
    /// histograms behind a retention window, and — when neither spill
    /// nor explicit sampling is configured — deterministic OK-span
    /// sampling switches on as a last resort. `None` disables
    /// enforcement (the pre-budget unbounded behaviour).
    pub telemetry_budget: Option<u64>,
    /// Directory for the segment-rotating JSONL span spill. With a
    /// budget set, spans spill only when the budget is crossed; without
    /// one, every barrier flushes (pure streaming export). Disk I/O is
    /// wall-clock territory: write failures are counted in the spill
    /// sink's `io_errors`, and nothing deterministic depends on them.
    pub span_spill: Option<std::path::PathBuf>,
    /// Deterministic span sampling: keep all non-OK spans, and one in
    /// `N` OK spans chosen by a seeded hash of `(vehicle, seq)` — the
    /// kept set is executor-width- and batch-size-free. `None` keeps
    /// every span (unless a crossed budget auto-activates sampling, see
    /// `telemetry_budget`).
    pub span_sample: Option<u32>,
    /// Durable barrier checkpointing: when set, the engine snapshots
    /// its complete deterministic state every `interval_epochs`
    /// barriers with keep-last-`retain` retention, and
    /// `FleetEngine::run_supervised` can resume a crashed run from the
    /// newest valid generation. `None` disables checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Vehicles per stealable batch in the epoch tick phase. Smaller
    /// batches steal (and so balance) better at the cost of per-batch
    /// overhead; the value is provably invisible in every report
    /// (vehicles own their RNG streams and batch results fold in
    /// canonical order), so it is purely a performance knob.
    pub batch_size: u32,
    /// Worker threads for the epoch tick phase's work-stealing
    /// executor. `None` sizes it to the machine
    /// (`available_parallelism`); any value is clamped the same way.
    /// Like `batch_size`, provably invisible in every report.
    pub executor_threads: Option<u32>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            vehicles: 1000,
            tenants: 4,
            regions: 8,
            duration: SimDuration::from_secs(60),
            epoch: SimDuration::from_millis(500),
            request_period: SimDuration::from_secs(1),
            classes: [
                ClassSpec::detection(),
                ClassSpec::infotainment(),
                ClassSpec::pbeam_training(),
            ],
            cacheable_fraction: 0.3,
            edge_capacity: 16,
            edge_nodes: 4,
            tenant_queue_cap: 100,
            elastic: None,
            failover_penalty: SimDuration::from_millis(10),
            chaos: None,
            ingest: None,
            mobility: None,
            telemetry: false,
            telemetry_budget: None,
            span_spill: None,
            span_sample: None,
            checkpoint: None,
            batch_size: 32,
            executor_threads: None,
        }
    }
}

impl FleetConfig {
    /// A config with the given fleet size, defaults elsewhere.
    #[must_use]
    pub fn sized(vehicles: u32) -> Self {
        FleetConfig {
            vehicles,
            ..FleetConfig::default()
        }
    }

    /// The cost model of one workload class.
    #[must_use]
    pub fn class(&self, class: WorkloadClass) -> &ClassSpec {
        &self.classes[class.index()]
    }

    /// Mutable access to one class's cost model.
    pub fn class_mut(&mut self, class: WorkloadClass) -> &mut ClassSpec {
        &mut self.classes[class.index()]
    }

    /// Replaces the class-mix weights (detection, infotainment, pBEAM
    /// training). A zero weight disables the class.
    #[must_use]
    pub fn with_class_weights(mut self, weights: [u32; 3]) -> Self {
        for (spec, w) in self.classes.iter_mut().zip(weights) {
            spec.weight = w;
        }
        self
    }

    /// Restricts the mix to detection only — the pre-refactor fleet's
    /// single-class workload, still useful as a baseline.
    #[must_use]
    pub fn detection_only(self) -> Self {
        self.with_class_weights([1, 0, 0])
    }

    /// Enables elastic XEdge capacity with the default policy bracketed
    /// around the configured lane pool (see [`LanePolicy::around`]).
    #[must_use]
    pub fn with_elastic_capacity(mut self) -> Self {
        self.elastic = Some(LanePolicy::around(self.edge_capacity));
        self
    }

    /// Enables sim-time telemetry capture: request spans and per-epoch
    /// registry samples land in `FleetReport::telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Caps resident telemetry at `bytes` (implies telemetry capture —
    /// see [`FleetConfig::telemetry_budget`] for the enforcement
    /// ladder).
    #[must_use]
    pub fn with_telemetry_budget(mut self, bytes: u64) -> Self {
        self.telemetry = true;
        self.telemetry_budget = Some(bytes);
        self
    }

    /// Streams spans to segment-rotating JSONL files under `dir`
    /// (implies telemetry capture — see [`FleetConfig::span_spill`]).
    #[must_use]
    pub fn with_span_spill(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.telemetry = true;
        self.span_spill = Some(dir.into());
        self
    }

    /// Keeps one in `keep_one_in` OK-path spans by a seeded
    /// `(vehicle, seq)` hash, and every non-OK span (implies telemetry
    /// capture — see [`FleetConfig::span_sample`]).
    #[must_use]
    pub fn with_span_sampling(mut self, keep_one_in: u32) -> Self {
        self.telemetry = true;
        self.span_sample = Some(keep_one_in);
        self
    }

    /// Sets the vehicles-per-batch granularity of the epoch tick phase
    /// (a pure performance knob — see [`FleetConfig::batch_size`]).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Caps the work-stealing executor at `threads` workers (clamped to
    /// the machine; a pure performance knob — see
    /// [`FleetConfig::executor_threads`]).
    #[must_use]
    pub fn with_executor_threads(mut self, threads: u32) -> Self {
        self.executor_threads = Some(threads);
        self
    }

    /// The executor size to request from the worker pool:
    /// the configured cap, or "as many as the machine has".
    #[must_use]
    pub fn executor_pool_size(&self) -> usize {
        self.executor_threads
            .map_or(usize::MAX, |threads| threads as usize)
    }

    /// Sum of the class-mix weights.
    #[must_use]
    pub fn total_class_weight(&self) -> u32 {
        self.classes.iter().map(|s| s.weight).sum()
    }

    /// The class selected by a weighted draw in
    /// `[0, total_class_weight())` — the vehicle tick's per-request
    /// class pick (pure integer walk, deterministic per RNG stream).
    #[must_use]
    pub fn class_for_draw(&self, draw: u64) -> WorkloadClass {
        let mut rest = draw;
        for class in WorkloadClass::ALL {
            let w = u64::from(self.class(class).weight);
            if rest < w {
                return class;
            }
            rest -= w;
        }
        WorkloadClass::Detection
    }

    /// Scales every class's base XEdge service time (standing shared-
    /// tenancy load carried over from single-vehicle scenarios).
    pub fn scale_edge_service(&mut self, factor: f64) {
        for spec in &mut self.classes {
            spec.edge_service = spec.edge_service.mul_f64(factor.max(1.0));
        }
    }

    /// Adds a one-shot LTE outage covering `region` over
    /// `[start, start + duration)`. Vehicles in the region fail over to
    /// on-board compute for the window.
    #[must_use]
    pub fn with_regional_outage(self, region: u32, start: SimTime, outage: SimDuration) -> Self {
        self.with_fault(FaultKind::LinkOutage, region_label(region), start, outage)
    }

    /// Adds a one-shot XEdge node crash over `[start, start + outage)`.
    /// Regions homed on the node walk the degradation ladder for the
    /// window.
    #[must_use]
    pub fn with_edge_node_crash(self, node: u32, start: SimTime, outage: SimDuration) -> Self {
        self.with_fault(
            FaultKind::EdgeNodeCrash,
            edge_node_label(node),
            start,
            outage,
        )
    }

    /// Adds a one-shot tenant quota flap: `tenant`'s admission cap
    /// shrinks to `factor` of nominal over `[start, start + flap)`.
    #[must_use]
    pub fn with_tenant_quota_flap(
        self,
        tenant: u32,
        factor: f64,
        start: SimTime,
        flap: SimDuration,
    ) -> Self {
        self.with_fault(
            FaultKind::TenantQuotaFlap { factor },
            tenant_label(tenant),
            start,
            flap,
        )
    }

    /// Adds a one-shot handoff storm on `region`'s coverage over
    /// `[start, start + storm)`: its requests re-register through a
    /// neighbor region, paying the mobility handoff cost.
    #[must_use]
    pub fn with_handoff_storm(self, region: u32, start: SimTime, storm: SimDuration) -> Self {
        self.with_fault(
            FaultKind::RegionHandoffStorm,
            handoff_label(region),
            start,
            storm,
        )
    }

    /// Enables geo-mobility with the default traffic mix (commute /
    /// roam / rush-hour). Vehicles cross region boundaries and pay
    /// cellular handoffs, applied at epoch barriers.
    #[must_use]
    pub fn with_mobility(self) -> Self {
        self.with_mobility_config(MobilityConfig::default())
    }

    /// Enables geo-mobility with an explicit traffic model.
    #[must_use]
    pub fn with_mobility_config(mut self, mobility: MobilityConfig) -> Self {
        self.mobility = Some(mobility);
        self
    }

    /// Enables the DDI ingestion pipeline with default parameters.
    #[must_use]
    pub fn with_ingest(self) -> Self {
        self.with_ingest_config(IngestConfig::default())
    }

    /// Enables the DDI ingestion pipeline with an explicit config.
    #[must_use]
    pub fn with_ingest_config(mut self, ingest: IngestConfig) -> Self {
        self.ingest = Some(ingest);
        self
    }

    /// Adds a one-shot regional DDI-collector outage over
    /// `[start, start + outage)`: uploads addressed to the collector
    /// bounce and walk the ingestion ladder (retry → defer → shed).
    #[must_use]
    pub fn with_collector_outage(self, region: u32, start: SimTime, outage: SimDuration) -> Self {
        self.with_fault(
            FaultKind::CollectorOutage,
            collector_label(region),
            start,
            outage,
        )
    }

    /// Adds a one-shot storage-tier brownout: the shared DDI store's
    /// write throughput collapses to `factor` of nominal over
    /// `[start, start + brownout)` and collector queues back up.
    #[must_use]
    pub fn with_storage_brownout(self, factor: f64, start: SimTime, brownout: SimDuration) -> Self {
        self.with_fault(
            FaultKind::StorageBrownout { factor },
            STORE_LABEL,
            start,
            brownout,
        )
    }

    /// Adds a one-shot hard storage-write-error window: the DDI store
    /// accepts nothing over `[start, start + outage)`.
    #[must_use]
    pub fn with_storage_write_error(self, start: SimTime, outage: SimDuration) -> Self {
        self.with_fault(FaultKind::StorageWriteError, STORE_LABEL, start, outage)
    }

    /// Enables durable barrier checkpointing: a complete-state snapshot
    /// every `interval_epochs` barriers, keeping the newest `retain`
    /// generations on the store.
    #[must_use]
    pub fn with_checkpoint(mut self, interval_epochs: u64, retain: usize) -> Self {
        self.checkpoint = Some(CheckpointConfig {
            interval_epochs,
            retain,
        });
        self
    }

    /// Adds a scripted engine crash: a supervised run
    /// (`FleetEngine::run_supervised`) dies at the barrier that closes
    /// epoch `epoch` and resumes from the newest valid snapshot,
    /// charging `downtime` of engine unavailability to the MTTR ledger.
    /// Plain `FleetEngine::run` ignores the crash — which is what makes
    /// straight and crash–resume runs comparable.
    #[must_use]
    pub fn with_engine_crash(self, epoch: u64, downtime: SimDuration) -> Self {
        let start = SimTime::ZERO + SimDuration::from_nanos(self.epoch.as_nanos() * epoch);
        self.with_fault(
            FaultKind::EngineCrash { epoch },
            ENGINE_LABEL,
            start,
            downtime,
        )
    }

    /// Adds a torn-write window on the snapshot store: snapshots
    /// written during `[start, start + window)` are truncated mid-write
    /// and must be rejected by checksum on restore.
    #[must_use]
    pub fn with_snapshot_torn_write(self, start: SimTime, window: SimDuration) -> Self {
        self.with_fault(
            FaultKind::SnapshotTornWrite,
            CKPT_STORE_LABEL,
            start,
            window,
        )
    }

    /// Adds a corruption window on the snapshot store: snapshots
    /// written during `[start, start + window)` suffer a bit-flip and
    /// must be rejected by checksum on restore.
    #[must_use]
    pub fn with_snapshot_corruption(self, start: SimTime, window: SimDuration) -> Self {
        self.with_fault(
            FaultKind::SnapshotCorruption,
            CKPT_STORE_LABEL,
            start,
            window,
        )
    }

    /// Appends one fault window to the chaos plan, creating the plan on
    /// first use — the step every fault builder above shares.
    fn with_fault(
        mut self,
        kind: FaultKind,
        target: impl Into<String>,
        start: SimTime,
        window: SimDuration,
    ) -> Self {
        let plan = self
            .chaos
            .unwrap_or_else(|| FaultPlan::new(self.duration))
            .with_fault(FaultSpec::new(kind, target, start, window));
        self.chaos = Some(plan);
        self
    }

    /// Attaches a pre-built fault plan (replacing any builders' faults
    /// accumulated so far).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Checks every count, duration and class spec, returning the first
    /// rule violated. [`crate::FleetEngine::try_new`] calls this at the
    /// gate so a bad config fails with a diagnosable error instead of a
    /// panic or a hung run downstream.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.vehicles == 0 {
            return Err(FleetConfigError::NoVehicles);
        }
        if self.tenants == 0 {
            return Err(FleetConfigError::NoTenants);
        }
        if self.tenants > self.vehicles {
            return Err(FleetConfigError::MoreTenantsThanVehicles {
                tenants: self.tenants,
                vehicles: self.vehicles,
            });
        }
        if self.regions == 0 {
            return Err(FleetConfigError::NoRegions);
        }
        if self.duration.is_zero() {
            return Err(FleetConfigError::ZeroDuration);
        }
        if self.epoch.is_zero() {
            return Err(FleetConfigError::ZeroEpoch);
        }
        if self.epoch > self.duration {
            return Err(FleetConfigError::EpochExceedsDuration {
                epoch: self.epoch,
                duration: self.duration,
            });
        }
        if self.request_period.is_zero() {
            return Err(FleetConfigError::ZeroRequestPeriod);
        }
        if !(0.0..=1.0).contains(&self.cacheable_fraction) {
            return Err(FleetConfigError::BadCacheableFraction(
                self.cacheable_fraction,
            ));
        }
        if self.edge_nodes == 0 {
            return Err(FleetConfigError::NoEdgeNodes);
        }
        if self.edge_nodes > self.edge_capacity {
            return Err(FleetConfigError::MoreNodesThanLanes {
                nodes: self.edge_nodes,
                lanes: self.edge_capacity,
            });
        }
        if self.tenant_queue_cap == 0 {
            return Err(FleetConfigError::ZeroTenantQueueCap);
        }
        if let Some(policy) = &self.elastic {
            policy.check().map_err(FleetConfigError::BadLanePolicy)?;
        }
        if self.total_class_weight() == 0 {
            return Err(FleetConfigError::EmptyClassMix);
        }
        for class in WorkloadClass::ALL {
            self.class(class).validate(class)?;
        }
        if let Some(ingest) = &self.ingest {
            ingest.validate()?;
        }
        if let Some(mobility) = &self.mobility {
            validate_mobility(mobility, self.regions)?;
        }
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.interval_epochs == 0 {
                return Err(FleetConfigError::ZeroCheckpointInterval);
            }
            // The snapshot at the final barrier is skipped (the run is
            // already complete), so the interval must leave at least one
            // *interior* barrier: interval < total epochs.
            let total_epochs = self.total_epochs();
            if ckpt.interval_epochs >= total_epochs {
                return Err(FleetConfigError::CheckpointIntervalExceedsRun {
                    interval_epochs: ckpt.interval_epochs,
                    total_epochs,
                });
            }
            if ckpt.retain == 0 {
                return Err(FleetConfigError::ZeroCheckpointRetention);
            }
        }
        if self.batch_size == 0 {
            return Err(FleetConfigError::ZeroBatchSize);
        }
        if self.executor_threads == Some(0) {
            return Err(FleetConfigError::ZeroExecutorThreads);
        }
        if self.telemetry_budget == Some(0) {
            return Err(FleetConfigError::ZeroTelemetryBudget);
        }
        if self.span_sample == Some(0) {
            return Err(FleetConfigError::ZeroSpanSample);
        }
        if !self.telemetry
            && (self.telemetry_budget.is_some()
                || self.span_spill.is_some()
                || self.span_sample.is_some())
        {
            return Err(FleetConfigError::TelemetrySinkWithoutTelemetry);
        }
        Ok(())
    }

    /// Number of epochs the run executes: `ceil(duration / epoch)` (the
    /// final epoch may be shorter than the nominal interval).
    #[must_use]
    pub fn total_epochs(&self) -> u64 {
        self.duration
            .as_nanos()
            .div_ceil(self.epoch.as_nanos().max(1))
    }

    /// The tenant a vehicle belongs to (interleaved assignment).
    #[must_use]
    pub fn tenant_of(&self, vehicle: u32) -> u32 {
        vehicle % self.tenants
    }

    /// The LTE region a vehicle drives in (contiguous id blocks).
    #[must_use]
    pub fn region_of(&self, vehicle: u32) -> u32 {
        ((u64::from(vehicle) * u64::from(self.regions)) / u64::from(self.vehicles)) as u32
    }

    /// End of simulated time for this run.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }
}

/// Mobility-specific validation (the traffic model lives in
/// `vdap-mobility`, the region count it needs lives here).
fn validate_mobility(mobility: &MobilityConfig, regions: u32) -> Result<(), FleetConfigError> {
    if regions < 2 {
        return Err(FleetConfigError::MobilityNeedsRegions);
    }
    let reject = |what: &str| Err(FleetConfigError::BadMobility(what.to_string()));
    if mobility.total_weight() == 0 {
        return reject("every route-profile weight is zero: nobody would move");
    }
    if mobility.dwell_mean.is_zero() {
        return reject("dwell mean must be positive");
    }
    let (lo, hi) = mobility.rush_window;
    if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo >= hi {
        return reject("rush window must be a non-empty sub-range of [0, 1]");
    }
    if !(mobility.downtown_fraction > 0.0 && mobility.downtown_fraction <= 1.0) {
        return reject("downtown fraction must be in (0, 1]");
    }
    if mobility.chord_fraction < 0.0 {
        return reject("chord fraction must be non-negative");
    }
    if mobility.segment_capacity == 0 {
        return reject("segment capacity must be positive");
    }
    Ok(())
}

/// The fault-plan target label for a region's LTE coverage.
#[must_use]
pub fn region_label(region: u32) -> String {
    format!("region{region}/lte")
}

/// The fault-plan target label for a physical XEdge node.
#[must_use]
pub fn edge_node_label(node: u32) -> String {
    format!("xedge/node{node}")
}

/// The fault-plan target label for a tenant's admission quota. Matches
/// [`vdap_edgeos::TenantId`]'s `Display` so flap windows and tenant
/// reliability records share a vocabulary.
#[must_use]
pub fn tenant_label(tenant: u32) -> String {
    format!("tenant{tenant}")
}

/// The fault-plan target label for a region's handoff behaviour
/// (distinct from its LTE outage label: a storm degrades, an outage
/// kills).
#[must_use]
pub fn handoff_label(region: u32) -> String {
    format!("region{region}/handoff")
}

/// The fault-plan target label for a region's DDI collector (distinct
/// from its LTE coverage: an LTE outage kills *all* traffic, a
/// collector outage only bounces ingestion uploads).
#[must_use]
pub fn collector_label(region: u32) -> String {
    format!("region{region}/collector")
}

/// The fault-plan target label for the shared DDI storage tier.
pub const STORE_LABEL: &str = "ddi/store";

/// The fault-plan target label for the fleet engine process itself
/// (scripted [`vdap_fault::FaultKind::EngineCrash`] faults).
pub const ENGINE_LABEL: &str = "engine";

/// The fault-plan target label for the snapshot store (torn-write and
/// corruption chaos on checkpoint persistence).
pub const CKPT_STORE_LABEL: &str = "ckpt/store";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mappings_ignore_shard_count() {
        // The vehicle mappings read only the id and the fleet-wide
        // counts, never the run layout.
        let a = FleetConfig::sized(500);
        let b = FleetConfig::sized(500)
            .with_executor_threads(1)
            .with_batch_size(7);
        for v in 0..500 {
            assert_eq!(a.tenant_of(v), b.tenant_of(v));
            assert_eq!(a.region_of(v), b.region_of(v));
        }
        // Regions are contiguous id blocks covering every region.
        let regions: Vec<u32> = (0..500).map(|v| a.region_of(v)).collect();
        assert!(regions.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!((regions[0], regions[499]), (0, a.regions - 1));
    }

    #[test]
    fn regional_outage_builds_a_plan() {
        let cfg = FleetConfig::default().with_regional_outage(
            3,
            SimTime::from_secs(20),
            SimDuration::from_secs(10),
        );
        let inj = cfg.chaos.expect("plan present").compile();
        assert!(inj.is_down(&region_label(3), SimTime::from_secs(25)));
        assert!(!inj.is_down(&region_label(3), SimTime::from_secs(35)));
        assert!(!inj.is_down(&region_label(2), SimTime::from_secs(25)));
    }

    #[test]
    fn default_config_validates_with_the_full_mix() {
        let cfg = FleetConfig::default();
        assert_eq!(cfg.total_class_weight(), 10);
        assert!(cfg.validate().is_ok());
        assert!(cfg.detection_only().validate().is_ok());
    }

    #[test]
    fn more_tenants_than_vehicles_rejected_with_reason() {
        let mut cfg = FleetConfig::sized(8);
        cfg.tenants = 9;
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            FleetConfigError::MoreTenantsThanVehicles {
                tenants: 9,
                vehicles: 8
            }
        );
        assert!(err.to_string().contains("tenants"));
    }

    #[test]
    fn epoch_past_duration_rejected_with_reason() {
        let cfg = FleetConfig {
            duration: SimDuration::from_secs(1),
            epoch: SimDuration::from_secs(2),
            ..FleetConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, FleetConfigError::EpochExceedsDuration { .. }));
        assert!(err.to_string().contains("exceeds duration"));
    }

    #[test]
    fn empty_class_mix_rejected_with_reason() {
        let cfg = FleetConfig::default().with_class_weights([0, 0, 0]);
        assert_eq!(cfg.validate(), Err(FleetConfigError::EmptyClassMix));
    }

    fn refusal(cfg: FleetConfig) -> FleetConfigError {
        crate::FleetEngine::try_new(cfg).expect_err("an unusable config")
    }

    #[test]
    fn elastic_policy_without_a_lane_floor_is_refused() {
        let mut cfg = FleetConfig::sized(64).with_elastic_capacity();
        cfg.elastic.as_mut().expect("elastic on").min_lanes = 0;
        let err = FleetConfigError::BadLanePolicy("lane floor must be positive");
        assert_eq!(refusal(cfg), err);
    }

    #[test]
    fn elastic_policy_without_a_hysteresis_gap_is_refused() {
        let mut cfg = FleetConfig::sized(64).with_elastic_capacity();
        let policy = cfg.elastic.as_mut().expect("elastic on");
        policy.scale_down_backlog = policy.scale_up_backlog;
        assert!(refusal(cfg).to_string().contains("hysteresis"));
    }

    #[test]
    fn zero_tenant_queue_cap_is_refused() {
        let mut cfg = FleetConfig::sized(64);
        cfg.tenant_queue_cap = 0;
        assert_eq!(refusal(cfg), FleetConfigError::ZeroTenantQueueCap);
    }

    #[test]
    fn bad_class_spec_names_the_class() {
        let mut cfg = FleetConfig::default();
        cfg.class_mut(WorkloadClass::Infotainment).work_units = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("infotainment"), "{err}");
        // A disabled class may carry junk — it never serves.
        let mut off = FleetConfig::default().with_class_weights([1, 0, 1]);
        off.class_mut(WorkloadClass::Infotainment).work_units = 0;
        assert!(off.validate().is_ok());
    }

    #[test]
    fn ingest_config_validates_and_builders_target_ddi_labels() {
        let cfg = FleetConfig::default()
            .with_ingest()
            .with_collector_outage(2, SimTime::from_secs(5), SimDuration::from_secs(10))
            .with_storage_brownout(0.2, SimTime::from_secs(20), SimDuration::from_secs(5))
            .with_storage_write_error(SimTime::from_secs(40), SimDuration::from_secs(2));
        assert!(cfg.validate().is_ok());
        let inj = cfg.chaos.clone().expect("plan present").compile();
        assert!(inj.is_down(&collector_label(2), SimTime::from_secs(6)));
        assert!(!inj.is_down(&collector_label(1), SimTime::from_secs(6)));
        let factor = inj.brownout_factor(STORE_LABEL, SimTime::from_secs(22));
        assert!((factor - 0.2).abs() < 1e-12, "{factor}");
        assert!(inj.is_down(STORE_LABEL, SimTime::from_secs(41)));
    }

    #[test]
    fn bad_ingest_rejected_with_reason() {
        let mut cfg = FleetConfig::default().with_ingest();
        cfg.ingest.as_mut().unwrap().collector_queue_records = 1;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, FleetConfigError::BadIngest(_)));
        assert!(err.to_string().contains("collector queue"), "{err}");
        let mut cfg = FleetConfig::default().with_ingest();
        cfg.ingest.as_mut().unwrap().storage_records_per_sec = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn mobility_validation_couples_shards_to_regions() {
        // Mobility needs regions to cross between, and nothing about the
        // run layout.
        let cfg = FleetConfig::sized(256).with_mobility();
        assert!(cfg.validate().is_ok());
        let mut two = cfg.clone().with_executor_threads(1).with_batch_size(1);
        two.regions = 2;
        assert!(two.validate().is_ok());
        let mut solo = FleetConfig::sized(64).with_mobility();
        solo.regions = 1;
        assert_eq!(solo.validate(), Err(FleetConfigError::MobilityNeedsRegions));
        let mut bad = FleetConfig::sized(64).with_mobility();
        bad.mobility.as_mut().unwrap().rush_window = (0.5, 0.4);
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, FleetConfigError::BadMobility(_)));
        assert!(err.to_string().contains("rush window"), "{err}");
    }

    #[test]
    fn checkpoint_validation_bounds_interval_and_retention() {
        let cfg = FleetConfig::default().with_checkpoint(8, 3);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_epochs(), 120);
        let zero = FleetConfig::default().with_checkpoint(0, 3);
        assert_eq!(
            zero.validate(),
            Err(FleetConfigError::ZeroCheckpointInterval)
        );
        // 60 s / 500 ms = 120 epochs; an interval of 120 or more never
        // reaches an interior barrier.
        let wide = FleetConfig::default().with_checkpoint(120, 3);
        let err = wide.validate().unwrap_err();
        assert_eq!(
            err,
            FleetConfigError::CheckpointIntervalExceedsRun {
                interval_epochs: 120,
                total_epochs: 120
            }
        );
        assert!(err.to_string().contains("no barrier"), "{err}");
        assert!(FleetConfig::default()
            .with_checkpoint(119, 3)
            .validate()
            .is_ok());
        let none_kept = FleetConfig::default().with_checkpoint(8, 0);
        assert_eq!(
            none_kept.validate(),
            Err(FleetConfigError::ZeroCheckpointRetention)
        );
    }

    #[test]
    fn executor_knobs_validate_with_reasons() {
        let zero_batch = FleetConfig::default().with_batch_size(0);
        let err = zero_batch.validate().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroBatchSize);
        assert!(err.to_string().contains("batch size"), "{err}");
        let zero_threads = FleetConfig::default().with_executor_threads(0);
        let err = zero_threads.validate().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroExecutorThreads);
        assert!(err.to_string().contains("worker thread"), "{err}");
        // Any positive combination is legal — both knobs are clamped,
        // not rejected, at the high end.
        let big = FleetConfig::default()
            .with_batch_size(1_000_000)
            .with_executor_threads(4096);
        assert!(big.validate().is_ok());
        assert_eq!(big.executor_pool_size(), 4096);
        assert_eq!(FleetConfig::default().executor_pool_size(), usize::MAX);
    }

    #[test]
    fn telemetry_sink_knobs_validate_with_reasons() {
        // The builders imply telemetry capture.
        let cfg = FleetConfig::default()
            .with_telemetry_budget(8 * 1024 * 1024)
            .with_span_spill("target/spill-test")
            .with_span_sampling(8);
        assert!(cfg.telemetry);
        assert!(cfg.validate().is_ok());

        let zero_budget = FleetConfig::default().with_telemetry_budget(0);
        let err = zero_budget.validate().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroTelemetryBudget);
        assert!(err.to_string().contains("budget"), "{err}");

        let zero_sample = FleetConfig::default().with_span_sampling(0);
        let err = zero_sample.validate().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroSpanSample);
        assert!(err.to_string().contains("at least 1"), "{err}");
        // keep-one-in-1 is the explicit "disable sampling" spelling.
        assert!(FleetConfig::default()
            .with_span_sampling(1)
            .validate()
            .is_ok());

        // A knob set by hand with telemetry forced back off is a
        // certain mistake, caught at the gate.
        let mut orphan = FleetConfig::default().with_telemetry_budget(1024);
        orphan.telemetry = false;
        let err = orphan.validate().unwrap_err();
        assert_eq!(err, FleetConfigError::TelemetrySinkWithoutTelemetry);
        assert!(err.to_string().contains("with_telemetry"), "{err}");
    }

    #[test]
    fn engine_crash_and_snapshot_chaos_builders_target_ckpt_labels() {
        let cfg = FleetConfig::default()
            .with_checkpoint(8, 3)
            .with_engine_crash(20, SimDuration::from_millis(750))
            .with_snapshot_torn_write(SimTime::from_secs(7), SimDuration::from_secs(1))
            .with_snapshot_corruption(SimTime::from_secs(12), SimDuration::from_secs(1));
        assert!(cfg.validate().is_ok());
        let inj = cfg.chaos.clone().expect("plan present").compile();
        assert_eq!(inj.engine_crashes(ENGINE_LABEL), vec![20]);
        assert!(inj.snapshot_torn(CKPT_STORE_LABEL, SimTime::from_secs(7)));
        assert!(!inj.snapshot_torn(CKPT_STORE_LABEL, SimTime::from_secs(9)));
        assert!(inj.snapshot_corrupt(CKPT_STORE_LABEL, SimTime::from_secs(12)));
        assert!(!inj.snapshot_corrupt(CKPT_STORE_LABEL, SimTime::from_secs(7)));
        // The crash window seeds the MTTR ledger at epoch 20 * 500 ms.
        let faults = cfg.chaos.as_ref().unwrap().faults();
        let crash = faults
            .iter()
            .find(|s| s.target == ENGINE_LABEL)
            .expect("crash fault");
        assert_eq!(crash.start, SimTime::from_secs(10));
    }

    #[test]
    fn elastic_defaults_bracket_the_nominal_pool() {
        let cfg = FleetConfig::default().with_elastic_capacity();
        let policy = cfg.elastic.expect("policy set");
        assert_eq!(policy.min_lanes, 8);
        assert_eq!(policy.max_lanes, 64);
    }
}
