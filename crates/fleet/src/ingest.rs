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
//!
//! The canonical order costs no sort of the backlog: it is a merge of
//! three runs that are each canonical already — the sorted fresh
//! batches, the sorted woken retries, and the TTL cache, which every
//! push keeps canonical. The retry list keeps its storage order.

use std::collections::VecDeque;

use vdap_ddi::{RegionCollector, StorageTierModel, UploadBatch};
use vdap_fault::{FaultInjector, RetryPolicy};
use vdap_net::{Direction, LinkSpec};
use vdap_offload::ContentionModel;
use vdap_sim::{RngStream, SeedFactory, SimDuration, SimTime, StreamingHistogram};

use crate::config::{collector_label, FleetConfig, IngestConfig, STORE_LABEL};
use crate::metrics::series;

/// Ingestion accounting (engine-side; reported through
/// `FleetReport::ingest` and the deterministic summary).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestMetrics {
    /// Upload batches vehicles sent.
    pub batches_sent: u64,
    /// Telemetry records vehicles sent: `batches_sent` batches of the
    /// configured size, set when the run ends.
    pub records_sent: u64,
    /// Batches made durable by the storage tier.
    pub batches_written: u64,
    /// Records made durable by the storage tier: `batches_written`
    /// batches of the configured size, set when the run ends.
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
    /// awaiting retry), set when the run ends.
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

/// The canonical processing key. The batch identity `(vehicle, seq)` is
/// unique and `sent_at` is fixed at generation, so this order is
/// independent of batch layout and of which path re-offered a batch.
fn canonical_key(b: &UploadBatch) -> (SimTime, u64, u32) {
    (b.sent_at, b.vehicle, b.seq)
}

/// Merges two runs that are each in canonical order into one. Keys are
/// unique, so the result equals sorting the concatenation.
fn merge_canonical(
    a: impl Iterator<Item = Offer>,
    b: impl Iterator<Item = Offer>,
) -> impl Iterator<Item = Offer> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if canonical_key(&y.batch) < canonical_key(&x.batch) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
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
    /// Rung-1 retries in storage order (not canonical; snapshots
    /// encode this order).
    pending: Vec<Pending>,
    /// Rung-2 deferrals, always in canonical order. A barrier re-offers
    /// them from the front while the batches it defers join at the
    /// back, so the cache is never copied into a second list.
    cached: VecDeque<Cached>,
    /// Records occupying each vehicle's mem-tier cache, indexed by
    /// vehicle id: the records of its `cached` batches in that tier.
    /// Every barrier takes the cache out of the tiers before it offers
    /// the cache again, so outside a barrier's ladder this is a sum
    /// over `cached`, which restore takes again.
    mem_used: Vec<u64>,
    /// The same for the disk tier.
    disk_used: Vec<u64>,
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
            cached: VecDeque::new(),
            mem_used: vec![0; cfg.vehicles as usize],
            disk_used: vec![0; cfg.vehicles as usize],
            metrics: IngestMetrics::new(),
            ing,
        }
    }

    /// Re-addresses the crossing vehicles' in-flight batches — pending
    /// retries and TTL-cached deferrals — to their new regions'
    /// collectors in one pass over the backlog, returning how many
    /// batches moved. `dest[id]` is the region vehicle `id` ended the
    /// epoch in if it crossed, `None` otherwise. Called once per
    /// barrier by the engine's mobility pass.
    pub fn readdress(&mut self, dest: &[Option<u32>]) -> u64 {
        let pending = self.pending.iter_mut().map(|p| &mut p.batch);
        let cached = self.cached.iter_mut().map(|c| &mut c.batch);
        let mut moved = 0u64;
        for batch in pending.chain(cached) {
            if let Some(region) = dest[batch.vehicle as usize] {
                moved += u64::from(batch.readdress(region));
            }
        }
        moved
    }

    /// Runs one barrier's ingest pass over the freshly drained batches
    /// and returns its per-epoch series samples, named, for the caller
    /// to record: the pass touches no state outside itself.
    pub fn barrier(
        &mut self,
        mut fresh: Vec<UploadBatch>,
        window: SimDuration,
        end: SimTime,
        injector: Option<&FaultInjector>,
    ) -> [(&'static str, f64); 3] {
        fresh.sort_unstable_by_key(canonical_key);
        self.metrics.batches_sent += fresh.len() as u64;

        // Wake rung-1 retries whose backoff has elapsed; the rest keep
        // their storage order.
        let mut due: Vec<Offer> = self
            .pending
            .extract_if(.., |p| p.due <= end)
            .map(|p| Offer {
                attempts: p.attempts,
                expires: p.expires,
                batch: p.batch,
            })
            .collect();
        due.sort_unstable_by_key(|o| canonical_key(&o.batch));

        // Vehicle caches: TTL-evict what expired (the records never
        // reach storage — a terminal deadline miss), re-offer the rest.
        self.cached.retain(|c| {
            let records = u64::from(c.batch.records);
            let used = if c.disk {
                &mut self.disk_used
            } else {
                &mut self.mem_used
            };
            used[c.batch.vehicle as usize] -= records;
            let expired = c.expires <= end;
            if expired {
                self.metrics.cache_evictions += records;
                self.metrics.deadline_misses += 1;
            }
            !expired
        });

        // Canonical processing order: the fresh batches and woken
        // retries merged with the surviving cache, which is re-offered
        // from the front of its list.
        let fresh = fresh.into_iter().map(|batch| Offer {
            attempts: 0,
            expires: None,
            batch,
        });
        let mut recent = merge_canonical(fresh, due.into_iter()).peekable();
        let mut reoffering = self.cached.len();
        let down: Vec<bool> = self
            .collector_labels
            .iter()
            .map(|label| injector.is_some_and(|inj| inj.is_down(label, end)))
            .collect();
        let mut offered_per_region = vec![0u32; self.collectors.len()];
        let mut last = None;
        loop {
            let from_cache = reoffering > 0
                && recent
                    .peek()
                    .is_none_or(|o| canonical_key(&self.cached[0].batch) < canonical_key(&o.batch));
            let offer = if from_cache {
                reoffering -= 1;
                let c = self.cached.pop_front().expect("a re-offer is queued");
                Offer {
                    attempts: c.attempts,
                    expires: Some(c.expires),
                    batch: c.batch,
                }
            } else if let Some(offer) = recent.next() {
                offer
            } else {
                break;
            };
            let key = canonical_key(&offer.batch);
            debug_assert!(last <= Some(key), "offers out of canonical order");
            last = Some(key);
            let region = offer.batch.region as usize;
            offered_per_region[region] += 1;
            if down[region] {
                self.metrics.outage_bounces += 1;
                self.ladder(offer, end, reoffering);
            } else if let Err(batch) = self.collectors[region].offer(offer.batch) {
                self.metrics.queue_bounces += 1;
                let offer = Offer {
                    attempts: offer.attempts,
                    expires: offer.expires,
                    batch,
                };
                self.ladder(offer, end, reoffering);
            }
        }

        // Contention-priced uplink per region: every batch a region
        // offered this epoch shares its cellular uplink, so each pays
        // the region's price.
        let transfer = self
            .lte
            .transfer_time(Direction::Uplink, self.ing.batch_bytes());
        for &n in &offered_per_region {
            let priced = transfer.mul_f64(self.contention.service_multiplier(n));
            let uplink_ms = (self.lte.latency() + priced).as_millis_f64();
            self.metrics.uplink_ms.record_n(uplink_ms, u64::from(n));
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

        let queued: u64 = self
            .collectors
            .iter()
            .map(RegionCollector::queued_records)
            .sum();
        [
            (series::QUEUED_RECORDS, queued as f64),
            (series::WRITTEN_RECORDS, written_records as f64),
            (series::STORAGE_RHO, rho),
        ]
    }

    /// The ingestion degradation ladder, applied to one bounced offer:
    /// seeded-backoff retry → defer-to-cache (mem, then disk spill) →
    /// shed lowest-priority. The first `reoffering` cached batches are
    /// last barrier's, still waiting for their re-offer.
    fn ladder(&mut self, offer: Offer, end: SimTime, reoffering: usize) {
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
        let mem = &mut self.mem_used[vehicle as usize];
        if *mem + records <= self.ing.cache_mem_records {
            *mem += records;
            self.metrics.deferrals += 1;
            self.cached.push_back(Cached {
                expires,
                attempts,
                disk: false,
                batch: offer.batch,
            });
            return;
        }
        let disk = &mut self.disk_used[vehicle as usize];
        if *disk + records <= self.ing.cache_disk_records {
            *disk += records;
            self.metrics.deferrals += 1;
            self.metrics.disk_spills += 1;
            self.cached.push_back(Cached {
                expires,
                attempts,
                disk: true,
                batch: offer.batch,
            });
            return;
        }
        // Rung 3: shed lowest-priority first. If this vehicle holds a
        // strictly lower-priority batch cached at this barrier, sacrifice
        // that one and cache the newcomer in its tier; otherwise drop
        // the newcomer.
        let victim = self
            .cached
            .iter()
            .enumerate()
            .skip(reoffering)
            .filter(|(_, c)| c.batch.vehicle == vehicle && c.batch.priority < offer.batch.priority)
            .min_by_key(|(_, c)| (c.batch.priority, c.batch.sent_at, c.batch.seq))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            let shed = self.cached.remove(i).expect("victim index in range");
            // The victim's cache slot transfers to the newcomer.
            let tier = if shed.disk {
                &mut self.disk_used
            } else {
                &mut self.mem_used
            };
            tier[vehicle as usize] =
                tier[vehicle as usize] - u64::from(shed.batch.records) + records;
            self.shed(&shed.batch);
            self.cached.push_back(Cached {
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
            // The tiers were only read above: nothing to release.
            self.shed(&offer.batch);
        }
    }

    /// Records one batch shed at rung 3 (a terminal deadline miss).
    fn shed(&mut self, batch: &UploadBatch) {
        self.metrics.records_shed += u64::from(batch.records);
        self.metrics.deadline_misses += 1;
    }

    /// Batches not yet durable: queued in collectors, parked in vehicle
    /// caches, or awaiting a retry.
    pub fn backlog_batches(&self) -> u64 {
        let queued: usize = self
            .collectors
            .iter()
            .map(RegionCollector::queued_batches)
            .sum();
        (queued + self.cached.len() + self.pending.len()) as u64
    }

    /// Closes the ledger at the horizon: the record counts follow from
    /// the batch counts, since every batch carries the configured batch
    /// size, and everything not yet durable is backlog.
    pub fn finish(&mut self) -> IngestMetrics {
        let per_batch = u64::from(self.ing.records_per_batch);
        self.metrics.records_sent = self.metrics.batches_sent * per_batch;
        self.metrics.records_written = self.metrics.batches_written * per_batch;
        self.metrics.backlog_records = self.backlog_batches() * per_batch;
        self.metrics.clone()
    }
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{
    enc_hist, enc_opt_time, enc_rng, hist_field, opt_time_field, rng_field, time_field,
};
use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{get, get_array, get_bool, get_u32, get_u64_hex, val_array, CkptError};

/// Writes the ledger's run-time counters. The record counts of sent,
/// written and backlog batches are not written: `finish` sets them.
fn enc_ingest_metrics(w: &mut JsonWriter, m: &IngestMetrics) {
    w.begin_object();
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
    w.key("records_shed").hex(m.records_shed);
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
        batches_written: get_u64_hex(v, "batches_written")?,
        deadline_misses: get_u64_hex(v, "deadline_misses")?,
        outage_bounces: get_u64_hex(v, "outage_bounces")?,
        queue_bounces: get_u64_hex(v, "queue_bounces")?,
        retries: get_u64_hex(v, "retries")?,
        deferrals: get_u64_hex(v, "deferrals")?,
        disk_spills: get_u64_hex(v, "disk_spills")?,
        cache_evictions: get_u64_hex(v, "cache_evictions")?,
        records_shed: get_u64_hex(v, "records_shed")?,
        storage_rho: hist_field(v, "storage_rho", &empty.storage_rho)?,
        uplink_ms: hist_field(v, "uplink_ms", &empty.uplink_ms)?,
        ingest_latency_ms: hist_field(v, "ingest_latency_ms", &empty.ingest_latency_ms)?,
        ..empty
    })
}

/// Writes one backlog batch. Its records, bytes and deadline are not
/// written: every batch carries the config's batch size, and its
/// deadline is the config's deadline after `sent_at`.
fn enc_batch(w: &mut JsonWriter, b: &UploadBatch) {
    w.begin_object();
    w.key("priority").u32(u32::from(b.priority));
    w.key("region").u32(b.region);
    w.key("sent_at").hex(b.sent_at.as_nanos());
    w.key("seq").u32(b.seq);
    w.key("vehicle").hex(b.vehicle);
    w.end_object();
}

/// Decodes a backlog batch, refusing a vehicle or region the config
/// does not have.
fn dec_batch(
    cfg: &FleetConfig,
    ing: &IngestConfig,
    v: &Value,
    what: &str,
) -> Result<UploadBatch, CkptError> {
    let sent_at = time_field(v, "sent_at")?;
    let batch = UploadBatch {
        vehicle: get_u64_hex(v, "vehicle")?,
        region: get_u32(v, "region")?,
        seq: get_u32(v, "seq")?,
        records: ing.records_per_batch,
        bytes: ing.batch_bytes(),
        sent_at,
        deadline: sent_at + ing.deadline,
        priority: u8::try_from(get_u32(v, "priority")?)
            .map_err(|e| CkptError::new(format!("priority out of range: {e}")))?,
    };
    if batch.vehicle >= u64::from(cfg.vehicles) || batch.region >= cfg.regions {
        return Err(CkptError::new(format!(
            "{what} batch names vehicle {} in region {} ({} vehicles, {} regions)",
            batch.vehicle, batch.region, cfg.vehicles, cfg.regions
        )));
    }
    Ok(batch)
}

impl IngestPass {
    /// Serializes everything the ingest pass carries across barriers:
    /// the ladder RNG position, rung-1 retry queue, rung-2 TTL caches,
    /// the ingestion ledger, and every collector's queued batches. The
    /// config-derived pieces (uplink model, contention capacity, retry
    /// policy, storage tier) and each vehicle's tier occupancy, a sum
    /// over the caches, are rebuilt on restore.
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

    /// Rebuilds the pass from config plus the serialized barrier state,
    /// refusing a backlog no run could leave behind: a batch naming a
    /// vehicle or region the config lacks, a queued batch in another
    /// region's collector, a queue over its record bound, a cache out
    /// of canonical order, or a vehicle caching more records in a tier
    /// than the tier holds.
    pub(crate) fn restore_ckpt(
        cfg: &FleetConfig,
        seeds: &SeedFactory,
        v: &Value,
    ) -> Result<IngestPass, CkptError> {
        let mut pass = IngestPass::new(cfg, seeds);
        let ing = &pass.ing;
        pass.rng = rng_field(v, "rng")?;
        pass.pending = get_array(v, "pending")?
            .iter()
            .map(|p| {
                Ok(Pending {
                    due: time_field(p, "due")?,
                    attempts: get_u32(p, "attempts")?,
                    expires: opt_time_field(p, "expires")?,
                    batch: dec_batch(cfg, ing, get(p, "batch")?, "pending")?,
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
                    batch: dec_batch(cfg, ing, get(c, "batch")?, "cached")?,
                })
            })
            .collect::<Result<VecDeque<_>, CkptError>>()?;
        if !pass
            .cached
            .make_contiguous()
            .is_sorted_by(|a, b| canonical_key(&a.batch) < canonical_key(&b.batch))
        {
            return Err(CkptError::new("cached batches out of canonical order"));
        }
        for c in &pass.cached {
            let (used, capacity, tier) = if c.disk {
                (&mut pass.disk_used, ing.cache_disk_records, "disk")
            } else {
                (&mut pass.mem_used, ing.cache_mem_records, "mem")
            };
            let vehicle = c.batch.vehicle;
            used[vehicle as usize] += u64::from(c.batch.records);
            if used[vehicle as usize] > capacity {
                return Err(CkptError::new(format!(
                    "vehicle {vehicle} caches more than its {capacity}-record {tier} tier"
                )));
            }
        }
        pass.metrics = dec_ingest_metrics(get(v, "metrics")?)?;
        let queues = get_array(v, "collectors")?;
        if queues.len() != pass.collectors.len() {
            return Err(CkptError::new(format!(
                "snapshot has {} collectors, config has {}",
                queues.len(),
                pass.collectors.len()
            )));
        }
        for ((region, queue), collector) in (0u32..).zip(queues).zip(&mut pass.collectors) {
            for enc in val_array(queue)? {
                let batch = dec_batch(cfg, ing, enc, "queued")?;
                if batch.region != region {
                    return Err(CkptError::new(format!(
                        "collector {region} queues a batch for region {}",
                        batch.region
                    )));
                }
                collector.offer(batch).map_err(|_| {
                    CkptError::new(format!(
                        "collector {region} queue exceeds its {} record bound",
                        collector.capacity_records()
                    ))
                })?;
            }
        }
        Ok(pass)
    }

    /// Refuses a ledger no run of `epoch` barriers leaves: a batch is
    /// written and misses its deadline at most once; every record sent
    /// is written, shed, evicted or still in the backlog; each bounce
    /// takes one ladder rung (a retry, a deferral, or a shed) and a disk
    /// spill is a deferral; and a barrier bounces each batch sent so far
    /// at most once.
    pub(crate) fn check_ledger(&self, epoch: u64) -> Result<(), CkptError> {
        let m = &self.metrics;
        let batches = |n: u64| n.checked_mul(u64::from(self.ing.records_per_batch));
        let sent = batches(m.batches_sent);
        let gone = [
            batches(m.batches_written),
            batches(self.backlog_batches()),
            Some(m.records_shed),
            Some(m.cache_evictions),
        ]
        .into_iter()
        .try_fold(0u64, |sum, n| sum.checked_add(n?));
        let bounces = m.outage_bounces.checked_add(m.queue_bounces);
        let problem = if m.batches_written > m.batches_sent || m.deadline_misses > m.batches_sent {
            "writes or misses more batches than it sent"
        } else if sent.is_none() || sent != gone {
            "sends records it neither wrote, shed, evicted nor holds"
        } else if bounces.is_none_or(|b| m.retries.checked_add(m.deferrals).is_none_or(|r| r > b)) {
            "retries or defers more batches than bounced"
        } else if m.disk_spills > m.deferrals {
            "spills more batches to disk than it deferred"
        } else if bounces.is_some_and(|b| b > m.batches_sent.saturating_mul(epoch)) {
            "bounces more offers than its barriers made"
        } else {
            return Ok(());
        };
        Err(CkptError::new(format!("ingest ledger {problem}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn batch_round_trip_is_exact() {
        let cfg = ingest_cfg();
        let ing = cfg.ingest.as_ref().expect("ingest on");
        let b = batch(63, 19, SimTime::from_secs(12), 3);
        assert_eq!(
            (b.records, b.bytes),
            (ing.records_per_batch, ing.batch_bytes())
        );
        let mut w = JsonWriter::new();
        enc_batch(&mut w, &b);
        let v = vdap_ckpt::json::from_str(w.as_str()).expect("encoder output parses");
        assert_eq!(dec_batch(&cfg, ing, &v, "test").unwrap(), b);
    }

    #[test]
    fn healthy_pass_writes_everything_within_deadline() {
        let cfg = ingest_cfg();
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let batches: Vec<UploadBatch> = (0..8)
            .map(|v| batch(v, 0, SimTime::from_secs(1), 2))
            .collect();
        pass.barrier(
            batches,
            SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_millis(1500),
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
        let epoch = SimDuration::from_millis(500);
        let mut sent = vec![batch(
            1,
            0,
            SimTime::ZERO + SimDuration::from_millis(200),
            2,
        )];
        for k in 0..60u64 {
            let end = SimTime::ZERO + epoch * (k + 1);
            pass.barrier(std::mem::take(&mut sent), epoch, end, Some(&inj));
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

    /// The re-addressing the one-pass version replaced: a scan of the
    /// whole backlog per crossing vehicle, in id order.
    fn readdress_per_vehicle(pass: &mut IngestPass, dest: &[Option<u32>]) -> u64 {
        let mut moved = 0u64;
        for (vehicle, region) in (0u64..).zip(dest) {
            let Some(region) = *region else { continue };
            let pending = pass.pending.iter_mut().map(|p| &mut p.batch);
            let cached = pass.cached.iter_mut().map(|c| &mut c.batch);
            for batch in pending.chain(cached) {
                if batch.vehicle == vehicle && batch.readdress(region) {
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Every backlog batch's `(vehicle, seq, region)`, pending first.
    fn backlog_regions(pass: &IngestPass) -> Vec<(u64, u32, u32)> {
        let pending = pass.pending.iter().map(|p| &p.batch);
        let cached = pass.cached.iter().map(|c| &c.batch);
        pending
            .chain(cached)
            .map(|b| (b.vehicle, b.seq, b.region))
            .collect()
    }

    /// A pass whose backlog holds `(vehicle, region, pending?)` batches,
    /// one per entry, with distinct seqs.
    fn with_backlog(backlog: &[(u64, u32, bool)]) -> IngestPass {
        let mut pass = IngestPass::new(&ingest_cfg(), &SeedFactory::new(7));
        for (seq, &(vehicle, region, pending)) in (0u32..).zip(backlog) {
            let mut batch = batch(vehicle, seq, SimTime::from_secs(1), 2);
            batch.region = region;
            if pending {
                pass.pending.push(Pending {
                    due: SimTime::from_secs(2),
                    attempts: 1,
                    expires: None,
                    batch,
                });
            } else {
                pass.cached.push_back(Cached {
                    expires: SimTime::from_secs(20),
                    attempts: 1,
                    disk: false,
                    batch,
                });
            }
        }
        pass
    }

    proptest! {
        #[test]
        fn one_pass_readdress_matches_the_per_vehicle_loop(
            backlog in prop::collection::vec((0u64..64, 0u32..8, any::<bool>()), 0..160),
            crossings in prop::collection::vec((any::<bool>(), 0u32..8), 64),
        ) {
            let dest: Vec<Option<u32>> = crossings
                .iter()
                .map(|&(crossed, region)| crossed.then_some(region))
                .collect();
            let mut pass = with_backlog(&backlog);
            let mut reference = with_backlog(&backlog);
            let moved = pass.readdress(&dest);
            prop_assert_eq!(moved, readdress_per_vehicle(&mut reference, &dest));
            prop_assert_eq!(backlog_regions(&pass), backlog_regions(&reference));
        }
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
            let epoch = SimDuration::from_millis(500);
            for k in 0..10u64 {
                let end = SimTime::ZERO + epoch * (k + 1);
                let sent: Vec<UploadBatch> = (0..4)
                    .map(|v| batch(v, k as u32, end - SimDuration::from_millis(100), 2))
                    .collect();
                pass.barrier(sent, epoch, end, inj.as_ref());
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
