//! The engine's barrier ingest pass: fleet-scale DDI ingestion under
//! pressure.
//!
//! Vehicles only *generate* [`UploadBatch`]es (a pure function of each
//! vehicle's private DDI stream); everything cross-vehicle happens here,
//! single-threaded at epoch barriers, in canonical batch order:
//!
//! 1. **Uplink pricing.** Each region's batches share the cellular
//!    uplink; the [`ContentionModel`] prices the transfer from how many
//!    uploads the region offered this epoch.
//! 2. **Collector admission.** A batch is offered to its region's
//!    bounded [`RegionCollector`] queue. A collector outage
//!    ([`vdap_fault::FaultKind::CollectorOutage`]) or a full queue
//!    bounces the batch into the ingestion degradation ladder:
//!    *rung 1* — seeded-backoff retry at a later barrier (while the
//!    attempt budget and the batch deadline allow); *rung 2* — defer
//!    into the vehicle's local TTL cache, mem tier first, disk spill
//!    second (mirroring the `DdiService` two-tier cache); *rung 3* —
//!    shed, lowest-priority first: a deferred lower-priority batch is
//!    sacrificed before a higher-priority newcomer is dropped.
//! 3. **Storage drain.** The shared storage tier drains collector
//!    queues round-robin at the [`StorageTierModel`]'s finite write
//!    throughput. A brownout
//!    ([`vdap_fault::FaultKind::StorageBrownout`]) shrinks the epoch's
//!    write capacity; a hard write-error window
//!    ([`vdap_fault::FaultKind::StorageWriteError`]) zeroes it.
//!
//! All ladder randomness comes from one engine-owned RNG stream
//! consumed in canonical batch order, and every counter below is a
//! plain integer or a [`StreamingHistogram`], so the pass preserves the
//! engine's byte-identity across executor width and batch size.

use std::collections::BTreeMap;

use vdap_ddi::{RegionCollector, StorageTierModel, UploadBatch};
use vdap_fault::{FaultInjector, RetryPolicy};
use vdap_net::{Direction, LinkSpec};
use vdap_offload::ContentionModel;
use vdap_sim::{
    ReliabilityStats, RngStream, SeedFactory, SimDuration, SimTime, StreamingHistogram,
};

use crate::config::{collector_label, FleetConfig, IngestConfig, STORE_LABEL};
use crate::metrics::FleetTelemetry;

/// Ingestion accounting (engine-side; reported through
/// `FleetReport::ingest` and the deterministic summary).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestMetrics {
    /// Upload batches vehicles sent.
    pub batches_sent: u64,
    /// Telemetry records vehicles sent.
    pub records_sent: u64,
    /// Batches made durable by the storage tier.
    pub batches_written: u64,
    /// Records made durable by the storage tier.
    pub records_written: u64,
    /// Batches that missed their ingestion deadline (written late,
    /// TTL-evicted, or shed).
    pub deadline_misses: u64,
    /// Offers bounced by a collector outage.
    pub outage_bounces: u64,
    /// Offers bounced by a full collector queue (backpressure).
    pub queue_bounces: u64,
    /// Rung-1 seeded-backoff retries scheduled.
    pub retries: u64,
    /// Rung-2 deferrals into vehicle TTL caches.
    pub deferrals: u64,
    /// Deferrals that overflowed the mem tier onto the disk tier.
    pub disk_spills: u64,
    /// Records TTL-evicted from vehicle caches before reaching storage.
    pub cache_evictions: u64,
    /// Records shed at rung 3 (lowest-priority first).
    pub records_shed: u64,
    /// Records not yet durable when the run ended (queued, cached, or
    /// awaiting retry).
    pub backlog_records: u64,
    /// Storage-tier utilization sampled once per epoch.
    pub storage_rho: StreamingHistogram,
    /// Contention-priced uplink time per offer (ms).
    pub uplink_ms: StreamingHistogram,
    /// Sent-to-durable latency of written batches (ms).
    pub ingest_latency_ms: StreamingHistogram,
}

impl Default for IngestMetrics {
    fn default() -> Self {
        IngestMetrics::new()
    }
}

impl IngestMetrics {
    /// Creates empty ingestion metrics.
    #[must_use]
    pub fn new() -> Self {
        IngestMetrics {
            batches_sent: 0,
            records_sent: 0,
            batches_written: 0,
            records_written: 0,
            deadline_misses: 0,
            outage_bounces: 0,
            queue_bounces: 0,
            retries: 0,
            deferrals: 0,
            disk_spills: 0,
            cache_evictions: 0,
            records_shed: 0,
            backlog_records: 0,
            storage_rho: StreamingHistogram::new("ingest_storage_rho"),
            uplink_ms: StreamingHistogram::new("ingest_uplink_ms"),
            ingest_latency_ms: StreamingHistogram::new("ingest_latency_ms"),
        }
    }

    /// Fraction of sent batches that missed their ingestion deadline.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.batches_sent == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.batches_sent as f64
        }
    }
}

/// A batch waiting out its rung-1 backoff.
#[derive(Debug)]
struct Pending {
    due: SimTime,
    attempts: u32,
    /// Original cache expiry, once the batch has ever been deferred.
    expires: Option<SimTime>,
    batch: UploadBatch,
}

/// A batch deferred into its vehicle's local TTL cache.
#[derive(Debug)]
struct Cached {
    expires: SimTime,
    attempts: u32,
    disk: bool,
    batch: UploadBatch,
}

/// One batch offered to a collector this barrier.
struct Offer {
    attempts: u32,
    expires: Option<SimTime>,
    batch: UploadBatch,
}

/// Engine-owned ingestion state, advanced once per barrier.
#[derive(Debug)]
pub(crate) struct IngestPass {
    ing: IngestConfig,
    collectors: Vec<RegionCollector>,
    collector_labels: Vec<String>,
    storage: StorageTierModel,
    lte: LinkSpec,
    contention: ContentionModel,
    policy: RetryPolicy,
    rng: RngStream,
    pending: Vec<Pending>,
    cached: Vec<Cached>,
    /// Records occupying each vehicle's mem-tier cache.
    mem_used: BTreeMap<u64, u64>,
    /// Records occupying each vehicle's disk-tier cache.
    disk_used: BTreeMap<u64, u64>,
    pub metrics: IngestMetrics,
}

impl IngestPass {
    pub fn new(cfg: &FleetConfig, seeds: &SeedFactory) -> Self {
        let ing = cfg.ingest.clone().expect("ingest pass implies config");
        let lte = LinkSpec::lte();
        // How many serialized batch uploads one region's shared uplink
        // absorbs per epoch at nominal speed — the contention capacity.
        let nominal = lte
            .transfer_time(Direction::Uplink, ing.batch_bytes())
            .as_secs_f64();
        let per_epoch = (cfg.epoch.as_secs_f64() / nominal.max(1e-9)).floor() as u32;
        let mut policy = RetryPolicy::transfer_default();
        policy.max_attempts = ing.max_upload_attempts;
        IngestPass {
            collectors: (0..cfg.regions)
                .map(|r| RegionCollector::new(r, ing.collector_queue_records))
                .collect(),
            collector_labels: (0..cfg.regions).map(collector_label).collect(),
            storage: StorageTierModel::new(ing.storage_records_per_sec),
            lte,
            contention: ContentionModel::new(per_epoch.max(1)),
            policy,
            rng: seeds.stream("fleet-ingest"),
            pending: Vec::new(),
            cached: Vec::new(),
            mem_used: BTreeMap::new(),
            disk_used: BTreeMap::new(),
            metrics: IngestMetrics::new(),
            ing,
        }
    }

    /// Re-addresses a crossing vehicle's in-flight batches — pending
    /// retries and TTL-cached deferrals — to its new region's
    /// collector, returning how many batches moved. Called by the
    /// engine's mobility pass in canonical vehicle order.
    pub fn readdress(&mut self, vehicle: u64, region: u32) -> u64 {
        let mut moved = 0u64;
        for p in self.pending.iter_mut() {
            if p.batch.vehicle == vehicle && p.batch.readdress(region) {
                moved += 1;
            }
        }
        for c in self.cached.iter_mut() {
            if c.batch.vehicle == vehicle && c.batch.readdress(region) {
                moved += 1;
            }
        }
        moved
    }

    /// Runs one barrier's ingest pass over the freshly drained batches.
    #[allow(clippy::too_many_arguments)] // one call site, in the engine's barrier loop
    pub fn barrier(
        &mut self,
        mut fresh: Vec<UploadBatch>,
        window: SimDuration,
        end: SimTime,
        epoch: u64,
        injector: Option<&FaultInjector>,
        reliability: &mut ReliabilityStats,
        telemetry: Option<&mut FleetTelemetry>,
    ) {
        fresh.sort_unstable_by_key(|b| (b.sent_at, b.vehicle, b.seq));
        for b in &fresh {
            self.metrics.batches_sent += 1;
            self.metrics.records_sent += u64::from(b.records);
        }
        // Room for every re-offer too, so the multi-MB list never
        // doubles (see the engine's barrier buffers).
        let mut offers: Vec<Offer> =
            Vec::with_capacity(fresh.len() + self.pending.len() + self.cached.len());
        offers.extend(fresh.into_iter().map(|batch| Offer {
            attempts: 0,
            expires: None,
            batch,
        }));

        // Wake rung-1 retries whose backoff has elapsed.
        let mut still_pending = Vec::new();
        for p in self.pending.drain(..) {
            if p.due <= end {
                offers.push(Offer {
                    attempts: p.attempts,
                    expires: p.expires,
                    batch: p.batch,
                });
            } else {
                still_pending.push(p);
            }
        }
        self.pending = still_pending;

        // Vehicle caches: TTL-evict what expired (the records never
        // reach storage — a terminal deadline miss), re-offer the rest.
        for c in std::mem::take(&mut self.cached) {
            let records = u64::from(c.batch.records);
            let used = if c.disk {
                &mut self.disk_used
            } else {
                &mut self.mem_used
            };
            if let Some(u) = used.get_mut(&c.batch.vehicle) {
                *u = u.saturating_sub(records);
            }
            if c.expires <= end {
                self.metrics.cache_evictions += records;
                self.metrics.deadline_misses += 1;
                reliability.record_cache_ttl_evictions(records);
            } else {
                offers.push(Offer {
                    attempts: c.attempts,
                    expires: Some(c.expires),
                    batch: c.batch,
                });
            }
        }

        // Canonical processing order: the batch identity (vehicle, seq)
        // is unique and sent_at is fixed at generation, so this order is
        // independent of batch layout and of which path re-offered a
        // batch.
        offers.sort_unstable_by_key(|o| (o.batch.sent_at, o.batch.vehicle, o.batch.seq));

        // Contention-priced uplink per region: every batch a region
        // offered this epoch shares its cellular uplink.
        let mut offered_per_region = vec![0u32; self.collectors.len()];
        for o in &offers {
            offered_per_region[o.batch.region as usize] += 1;
        }
        let uplink_ms: Vec<f64> = offered_per_region
            .iter()
            .map(|&n| {
                let transfer = self
                    .lte
                    .transfer_time(Direction::Uplink, self.ing.batch_bytes());
                let priced = transfer.mul_f64(self.contention.service_multiplier(n));
                (self.lte.latency() + priced).as_millis_f64()
            })
            .collect();

        for offer in offers {
            let region = offer.batch.region as usize;
            self.metrics.uplink_ms.record(uplink_ms[region]);
            let down = injector.is_some_and(|inj| inj.is_down(&self.collector_labels[region], end));
            if down {
                self.metrics.outage_bounces += 1;
                self.ladder(offer, end, reliability);
            } else if let Err(batch) = self.collectors[region].offer(offer.batch) {
                self.metrics.queue_bounces += 1;
                self.ladder(
                    Offer {
                        attempts: offer.attempts,
                        expires: offer.expires,
                        batch,
                    },
                    end,
                    reliability,
                );
            }
        }

        // Storage drain: finite write throughput, browned out or hard-
        // failed by the fault timeline, shared round-robin across the
        // regional collector queues.
        let store_down = injector.is_some_and(|inj| inj.is_down(STORE_LABEL, end));
        let factor = if store_down {
            0.0
        } else {
            injector.map_or(1.0, |inj| inj.brownout_factor(STORE_LABEL, end))
        };
        let offered: u64 = self
            .collectors
            .iter()
            .map(RegionCollector::queued_records)
            .sum();
        let rho = self.storage.utilization(offered, window, factor);
        self.metrics.storage_rho.record(rho);
        let delay = self.storage.write_delay(offered, window, factor);
        let mut budget = self.storage.capacity_in(window, factor);
        let mut written_records = 0u64;
        loop {
            let mut progressed = false;
            for c in &mut self.collectors {
                if let Some(records) = c.peek_records() {
                    if u64::from(records) <= budget {
                        let batch = c.pop().expect("peeked batch present");
                        budget -= u64::from(records);
                        written_records += u64::from(records);
                        let durable = end + delay;
                        self.metrics.batches_written += 1;
                        self.metrics.records_written += u64::from(records);
                        self.metrics
                            .ingest_latency_ms
                            .record((durable - batch.sent_at).as_millis_f64());
                        if durable > batch.deadline {
                            self.metrics.deadline_misses += 1;
                        }
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        if let Some(tel) = telemetry {
            let queued: u64 = self
                .collectors
                .iter()
                .map(RegionCollector::queued_records)
                .sum();
            tel.registry
                .sample("ingest.queued_records", epoch, end, queued as f64);
            tel.registry
                .sample("ingest.written_records", epoch, end, written_records as f64);
            tel.registry.sample("ingest.storage_rho", epoch, end, rho);
            tel.registry.inc("fleet.ingest_written", written_records);
        }
    }

    /// The ingestion degradation ladder, applied to one bounced offer:
    /// seeded-backoff retry → defer-to-cache (mem, then disk spill) →
    /// shed lowest-priority.
    fn ladder(&mut self, offer: Offer, end: SimTime, reliability: &mut ReliabilityStats) {
        let attempts = offer.attempts + 1;
        // Rung 1: retry while the attempt budget and the deadline allow.
        if attempts < self.ing.max_upload_attempts {
            let delay = self.policy.backoff_delay(attempts + 1, &mut self.rng);
            let due = end + delay;
            if due <= offer.batch.deadline {
                self.metrics.retries += 1;
                self.pending.push(Pending {
                    due,
                    attempts,
                    expires: offer.expires,
                    batch: offer.batch,
                });
                return;
            }
        }
        // Rung 2: defer into the vehicle's local TTL cache. The expiry
        // is fixed at first deferral so re-offers cannot refresh it.
        let vehicle = offer.batch.vehicle;
        let records = u64::from(offer.batch.records);
        let expires = offer.expires.unwrap_or(end + self.ing.cache_ttl);
        let mem = self.mem_used.entry(vehicle).or_insert(0);
        if *mem + records <= self.ing.cache_mem_records {
            *mem += records;
            self.metrics.deferrals += 1;
            self.cached.push(Cached {
                expires,
                attempts,
                disk: false,
                batch: offer.batch,
            });
            return;
        }
        let disk = self.disk_used.entry(vehicle).or_insert(0);
        if *disk + records <= self.ing.cache_disk_records {
            *disk += records;
            self.metrics.deferrals += 1;
            self.metrics.disk_spills += 1;
            reliability.record_disk_spills(records);
            self.cached.push(Cached {
                expires,
                attempts,
                disk: true,
                batch: offer.batch,
            });
            return;
        }
        // Rung 3: shed lowest-priority first. If this vehicle holds a
        // strictly lower-priority cached batch, sacrifice that one and
        // cache the newcomer in its tier; otherwise drop the newcomer.
        let victim = self
            .cached
            .iter()
            .enumerate()
            .filter(|(_, c)| c.batch.vehicle == vehicle && c.batch.priority < offer.batch.priority)
            .min_by_key(|(_, c)| (c.batch.priority, c.batch.sent_at, c.batch.seq))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            let shed = self.cached.remove(i);
            // The victim's cache slot transfers to the newcomer.
            let tier = if shed.disk {
                &mut self.disk_used
            } else {
                &mut self.mem_used
            };
            if let Some(u) = tier.get_mut(&vehicle) {
                *u = u.saturating_sub(u64::from(shed.batch.records)) + records;
            }
            self.shed(&shed.batch);
            self.cached.push(Cached {
                expires,
                attempts,
                disk: shed.disk,
                batch: offer.batch,
            });
            self.metrics.deferrals += 1;
            if shed.disk {
                self.metrics.disk_spills += 1;
            }
        } else {
            // Free the occupancy this batch never claimed: the maps were
            // only read above, nothing to release — just shed.
            self.shed(&offer.batch);
        }
    }

    /// Records one batch shed at rung 3 (a terminal deadline miss).
    fn shed(&mut self, batch: &UploadBatch) {
        self.metrics.records_shed += u64::from(batch.records);
        self.metrics.deadline_misses += 1;
    }

    /// Closes the ledger at the horizon: everything not yet durable —
    /// queued in collectors, parked in vehicle caches, or awaiting a
    /// retry — is backlog.
    pub fn finish(&mut self) -> IngestMetrics {
        let queued: u64 = self
            .collectors
            .iter()
            .map(RegionCollector::queued_records)
            .sum();
        let cached: u64 = self.cached.iter().map(|c| u64::from(c.batch.records)).sum();
        let pending: u64 = self
            .pending
            .iter()
            .map(|p| u64::from(p.batch.records))
            .sum();
        self.metrics.backlog_records = queued + cached + pending;
        self.metrics.clone()
    }
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{
    enc_batch, enc_hist, enc_opt_time, enc_rng, hist_field, opt_time_field, rng_field, time_field,
    val_array, val_pair, val_u64_hex,
};
use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{get, get_array, get_bool, get_u32, get_u64_hex, CkptError};

fn enc_ingest_metrics(w: &mut JsonWriter, m: &IngestMetrics) {
    w.begin_object();
    w.key("backlog_records").hex(m.backlog_records);
    w.key("batches_sent").hex(m.batches_sent);
    w.key("batches_written").hex(m.batches_written);
    w.key("cache_evictions").hex(m.cache_evictions);
    w.key("deadline_misses").hex(m.deadline_misses);
    w.key("deferrals").hex(m.deferrals);
    w.key("disk_spills").hex(m.disk_spills);
    w.key("ingest_latency_ms");
    enc_hist(w, &m.ingest_latency_ms);
    w.key("outage_bounces").hex(m.outage_bounces);
    w.key("queue_bounces").hex(m.queue_bounces);
    w.key("records_sent").hex(m.records_sent);
    w.key("records_shed").hex(m.records_shed);
    w.key("records_written").hex(m.records_written);
    w.key("retries").hex(m.retries);
    w.key("storage_rho");
    enc_hist(w, &m.storage_rho);
    w.key("uplink_ms");
    enc_hist(w, &m.uplink_ms);
    w.end_object();
}

fn dec_ingest_metrics(v: &Value) -> Result<IngestMetrics, CkptError> {
    let empty = IngestMetrics::new();
    Ok(IngestMetrics {
        batches_sent: get_u64_hex(v, "batches_sent")?,
        records_sent: get_u64_hex(v, "records_sent")?,
        batches_written: get_u64_hex(v, "batches_written")?,
        records_written: get_u64_hex(v, "records_written")?,
        deadline_misses: get_u64_hex(v, "deadline_misses")?,
        outage_bounces: get_u64_hex(v, "outage_bounces")?,
        queue_bounces: get_u64_hex(v, "queue_bounces")?,
        retries: get_u64_hex(v, "retries")?,
        deferrals: get_u64_hex(v, "deferrals")?,
        disk_spills: get_u64_hex(v, "disk_spills")?,
        cache_evictions: get_u64_hex(v, "cache_evictions")?,
        records_shed: get_u64_hex(v, "records_shed")?,
        backlog_records: get_u64_hex(v, "backlog_records")?,
        storage_rho: hist_field(v, "storage_rho", &empty.storage_rho)?,
        uplink_ms: hist_field(v, "uplink_ms", &empty.uplink_ms)?,
        ingest_latency_ms: hist_field(v, "ingest_latency_ms", &empty.ingest_latency_ms)?,
    })
}

fn enc_used(w: &mut JsonWriter, map: &BTreeMap<u64, u64>) {
    w.begin_array();
    for (&vehicle, &records) in map {
        w.begin_array().hex(vehicle).hex(records).end_array();
    }
    w.end_array();
}

fn dec_used(v: &Value, key: &str) -> Result<BTreeMap<u64, u64>, CkptError> {
    let mut map = BTreeMap::new();
    for pair in get_array(v, key)? {
        let (vehicle, records) = val_pair(pair)?;
        map.insert(val_u64_hex(vehicle)?, val_u64_hex(records)?);
    }
    Ok(map)
}

impl IngestPass {
    /// Serializes everything the ingest pass carries across barriers:
    /// the ladder RNG position, rung-1 retry queue, rung-2 TTL caches
    /// with their per-vehicle tier occupancy, the ingestion ledger, and
    /// every collector's queued batches. The config-derived pieces
    /// (uplink model, contention capacity, retry policy, storage tier)
    /// are rebuilt on restore.
    ///
    /// Deliberately does **not** call [`IngestPass::finish`] — that
    /// closes the backlog ledger, which only happens at the horizon.
    pub(crate) fn ckpt(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("cached").begin_array();
        for c in &self.cached {
            w.begin_object();
            w.key("attempts").u32(c.attempts);
            w.key("batch");
            enc_batch(w, &c.batch);
            w.key("disk").bool(c.disk);
            w.key("expires").hex(c.expires.as_nanos());
            w.end_object();
        }
        w.end_array();
        w.key("collectors").begin_array();
        for c in &self.collectors {
            w.begin_array();
            for batch in c.batches() {
                enc_batch(w, batch);
            }
            w.end_array();
        }
        w.end_array();
        w.key("disk_used");
        enc_used(w, &self.disk_used);
        w.key("mem_used");
        enc_used(w, &self.mem_used);
        w.key("metrics");
        enc_ingest_metrics(w, &self.metrics);
        w.key("pending").begin_array();
        for p in &self.pending {
            w.begin_object();
            w.key("attempts").u32(p.attempts);
            w.key("batch");
            enc_batch(w, &p.batch);
            w.key("due").hex(p.due.as_nanos());
            w.key("expires");
            enc_opt_time(w, p.expires);
            w.end_object();
        }
        w.end_array();
        w.key("rng");
        enc_rng(w, &self.rng);
        w.end_object();
    }

    /// Rebuilds the pass from config plus the serialized barrier state.
    pub(crate) fn restore_ckpt(
        cfg: &FleetConfig,
        seeds: &SeedFactory,
        v: &Value,
    ) -> Result<IngestPass, CkptError> {
        let mut pass = IngestPass::new(cfg, seeds);
        pass.rng = rng_field(v, "rng")?;
        pass.pending = get_array(v, "pending")?
            .iter()
            .map(|p| {
                Ok(Pending {
                    due: time_field(p, "due")?,
                    attempts: get_u32(p, "attempts")?,
                    expires: opt_time_field(p, "expires")?,
                    batch: crate::ckpt::dec_batch(get(p, "batch")?)?,
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        pass.cached = get_array(v, "cached")?
            .iter()
            .map(|c| {
                Ok(Cached {
                    expires: time_field(c, "expires")?,
                    attempts: get_u32(c, "attempts")?,
                    disk: get_bool(c, "disk")?,
                    batch: crate::ckpt::dec_batch(get(c, "batch")?)?,
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        pass.mem_used = dec_used(v, "mem_used")?;
        pass.disk_used = dec_used(v, "disk_used")?;
        pass.metrics = dec_ingest_metrics(get(v, "metrics")?)?;
        let queues = get_array(v, "collectors")?;
        if queues.len() != pass.collectors.len() {
            return Err(CkptError::new(format!(
                "snapshot has {} collectors, config has {}",
                queues.len(),
                pass.collectors.len()
            )));
        }
        for (region, queue) in queues.iter().enumerate() {
            let batches = val_array(queue)?
                .iter()
                .map(crate::ckpt::dec_batch)
                .collect::<Result<Vec<_>, _>>()?;
            pass.collectors[region] = RegionCollector::from_batches(
                region as u32,
                pass.ing.collector_queue_records,
                batches,
            );
        }
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::sized(64).with_ingest();
        cfg.duration = SimDuration::from_secs(10);
        cfg
    }

    fn batch(vehicle: u64, seq: u32, sent_at: SimTime, priority: u8) -> UploadBatch {
        UploadBatch {
            vehicle,
            region: 0,
            seq,
            records: 24,
            bytes: 24 * 512,
            sent_at,
            deadline: sent_at + SimDuration::from_secs(5),
            priority,
        }
    }

    #[test]
    fn healthy_pass_writes_everything_within_deadline() {
        let cfg = ingest_cfg();
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let mut rel = ReliabilityStats::new();
        let batches: Vec<UploadBatch> = (0..8)
            .map(|v| batch(v, 0, SimTime::from_secs(1), 2))
            .collect();
        pass.barrier(
            batches,
            SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_millis(1500),
            0,
            None,
            &mut rel,
            None,
        );
        let m = pass.finish();
        assert_eq!(m.batches_sent, 8);
        assert_eq!(m.records_written, 8 * 24);
        assert_eq!(m.deadline_misses, 0);
        assert_eq!(m.backlog_records, 0);
        assert_eq!(m.uplink_ms.count(), 8);
        assert!(m.storage_rho.max() < 1.0, "light load stays subcritical");
    }

    #[test]
    fn collector_outage_walks_retry_then_cache() {
        let cfg = ingest_cfg().with_collector_outage(0, SimTime::ZERO, SimDuration::from_secs(60));
        let inj = cfg.chaos.clone().unwrap().compile();
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let mut rel = ReliabilityStats::new();
        let epoch = SimDuration::from_millis(500);
        let mut sent = vec![batch(
            1,
            0,
            SimTime::ZERO + SimDuration::from_millis(200),
            2,
        )];
        for k in 0..60u64 {
            let end = SimTime::ZERO + epoch * (k + 1);
            pass.barrier(
                std::mem::take(&mut sent),
                epoch,
                end,
                k,
                Some(&inj),
                &mut rel,
                None,
            );
        }
        let m = pass.finish();
        assert!(
            m.outage_bounces > 0,
            "offers bounced off the dead collector"
        );
        assert!(m.retries > 0, "rung 1 scheduled seeded-backoff retries");
        assert!(m.deferrals > 0, "rung 2 parked the batch in the cache");
        assert_eq!(m.records_written, 0, "nothing reaches storage");
        assert!(
            m.cache_evictions > 0,
            "a 60 s outage outlives the 20 s cache TTL"
        );
        assert!(rel.cache_ttl_eviction_count() > 0);
    }

    #[test]
    fn full_queue_backpressure_prefers_shedding_low_priority() {
        let mut cfg = ingest_cfg();
        {
            let ing = cfg.ingest.as_mut().unwrap();
            ing.collector_queue_records = 24; // one batch
            ing.cache_mem_records = 24; // one cached batch per vehicle
            ing.cache_disk_records = 0;
            ing.max_upload_attempts = 1; // ladder skips straight to rung 2
            ing.storage_records_per_sec = 0.1; // storage can't drain
        }
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let mut rel = ReliabilityStats::new();
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        let batches = vec![
            batch(5, 0, t, 3),                               // fills the queue
            batch(5, 1, t + SimDuration::from_millis(1), 0), // deferred (low prio)
            batch(5, 2, t + SimDuration::from_millis(2), 3), // sheds the cached 0
        ];
        pass.barrier(
            batches,
            SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_millis(500),
            0,
            None,
            &mut rel,
            None,
        );
        let m = &pass.metrics;
        assert_eq!(m.queue_bounces, 2);
        assert_eq!(m.records_shed, 24, "exactly the low-priority batch shed");
        assert!(m.deadline_misses >= 1);
        // The surviving cached batch is the high-priority newcomer.
        assert_eq!(pass.cached.len(), 1);
        assert_eq!(pass.cached[0].batch.priority, 3);
        assert_eq!(pass.cached[0].batch.seq, 2);
    }

    #[test]
    fn storage_brownout_backs_queues_up_and_raises_rho() {
        let run = |brown: bool| {
            let mut cfg = ingest_cfg();
            cfg.ingest.as_mut().unwrap().storage_records_per_sec = 200.0;
            if brown {
                cfg = cfg.with_storage_brownout(0.05, SimTime::ZERO, SimDuration::from_secs(60));
            }
            let inj = cfg.chaos.clone().map(|p| p.compile());
            let seeds = SeedFactory::new(7);
            let mut pass = IngestPass::new(&cfg, &seeds);
            let mut rel = ReliabilityStats::new();
            let epoch = SimDuration::from_millis(500);
            for k in 0..10u64 {
                let end = SimTime::ZERO + epoch * (k + 1);
                let sent: Vec<UploadBatch> = (0..4)
                    .map(|v| batch(v, k as u32, end - SimDuration::from_millis(100), 2))
                    .collect();
                pass.barrier(sent, epoch, end, k, inj.as_ref(), &mut rel, None);
            }
            pass.finish()
        };
        let nominal = run(false);
        let browned = run(true);
        assert!(browned.storage_rho.max() > nominal.storage_rho.max());
        assert!(browned.records_written < nominal.records_written);
        assert!(
            browned.backlog_records > 0 || browned.deadline_misses > nominal.deadline_misses,
            "brownout must leave visible pressure"
        );
    }
}
