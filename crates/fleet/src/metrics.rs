//! Fleet observability: the outcome record, fleet metrics and the run
//! report.
//!
//! Every request ends in one `RequestOutcome`, built where the outcome
//! is decided (a vehicle tick for collab hits and failovers, the XEdge
//! pass for everything else) and recorded once, at a barrier, into the
//! one [`FleetMetrics`] the engine owns. Vehicle batches carry only
//! per-class request counts. Every field is an integer counter, a
//! [`StreamingHistogram`] of integer ticks, or a key-summed map, so
//! recording order cannot reach a report — the property the run-layout
//! invariance tests (`tests/props.rs`) pin down.
//!
//! Since the workload-class refactor the request stream is accounted
//! twice: fleet-wide (the legacy counters and histograms) and per
//! [`WorkloadClass`] ([`ClassMetrics`]), so a report can show that a
//! missed pBEAM round and a missed pedestrian-alert frame took
//! different degradation paths. The per-tenant served work-unit ledger
//! feeds the DRR fairness property test, and the elastic counters track
//! the lane pool across barriers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vdap_edgeos::WorkloadClass;
use vdap_mobility::MobilityMetrics;
use vdap_obs::{
    sample_keeps, EngineProfile, JsonlSpillSink, MetricsRegistry, RequestSpan, SpanLog,
    SpanOutcome, SPAN_RESIDENT_BYTES,
};
use vdap_sim::{ReliabilityStats, SimDuration, SimTime, StreamingHistogram};

use crate::ckpt::SnapshotDiagnostics;
use crate::ingest::IngestMetrics;

/// One request's terminal outcome: everything the barrier records about
/// it, and the only source of its span.
#[derive(Debug)]
pub(crate) struct RequestOutcome {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    /// The region the vehicle was in when it issued the request.
    pub region: u32,
    pub class: WorkloadClass,
    pub kind: SpanOutcome,
    /// When the vehicle issued the request.
    pub generated: SimTime,
    /// The barrier whose serving pass decided it (edge-served and rung-3
    /// outcomes only).
    pub admitted: Option<SimTime>,
    /// When it began occupying an XEdge lane (edge-served only).
    pub serve_start: Option<SimTime>,
    pub e2e: SimDuration,
    /// Vehicle-side energy (J).
    pub energy_j: f64,
    /// The failover re-planning latency (a reliability sample), or the
    /// degraded-mode time a local fallback charges its tenant; zero for
    /// every other outcome.
    pub cost: SimDuration,
    pub retries: u32,
    pub requeues: u32,
    pub handoff: bool,
}

impl RequestOutcome {
    /// The request's span.
    pub fn span(&self) -> RequestSpan {
        RequestSpan {
            vehicle: self.vehicle,
            seq: self.seq,
            tenant: self.tenant,
            region: self.region,
            shard: 0,
            class: self.class.label(),
            generated: self.generated,
            admitted: self.admitted,
            serve_start: self.serve_start,
            completed: self.generated + self.e2e,
            outcome: self.kind,
            retries: self.retries,
            requeues: self.requeues,
            handoff: self.handoff,
        }
    }
}

/// Per-[`WorkloadClass`] outcome accounting (one lane of the fleet-wide
/// request partition).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// End-to-end latency (ms) of this class's requests, all outcomes.
    pub e2e_latency_ms: StreamingHistogram,
    /// Requests issued.
    pub requests: u64,
    /// Requests served by the XEdge deployment.
    pub edge_served: u64,
    /// Requests satisfied from a V2V-shared result.
    pub collab_hits: u64,
    /// Requests that failed over to on-board compute (regional outage).
    pub failovers: u64,
    /// Requests bounced by admission control under nominal quotas.
    pub rejected: u64,
    /// Requests that fell to the class-specific bottom ladder rung.
    pub local_fallbacks: u64,
}

impl ClassMetrics {
    fn new(class: WorkloadClass) -> Self {
        ClassMetrics {
            e2e_latency_ms: StreamingHistogram::new(class.label()),
            requests: 0,
            edge_served: 0,
            collab_hits: 0,
            failovers: 0,
            rejected: 0,
            local_fallbacks: 0,
        }
    }
}

/// Fleet-level measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// End-to-end request latency (ms), all request outcomes.
    pub e2e_latency_ms: StreamingHistogram,
    /// Vehicle-side energy per request (J).
    pub energy_per_request_j: StreamingHistogram,
    /// Admitted XEdge batch size observed at each epoch barrier.
    pub queue_depth: StreamingHistogram,
    /// XEdge lane-pool size observed at each epoch barrier (constant
    /// unless elastic capacity is on).
    pub elastic_lanes: StreamingHistogram,
    /// Per-class outcome accounting, indexed by [`WorkloadClass::index`].
    pub by_class: [ClassMetrics; 3],
    /// Served work units per tenant (the DRR fairness ledger).
    pub work_units_by_tenant: BTreeMap<u32, u64>,
    /// Requests issued by vehicles.
    pub requests: u64,
    /// Requests served by the shared XEdge deployment.
    pub edge_served: u64,
    /// Requests satisfied from a V2V-shared result.
    pub collab_hits: u64,
    /// Requests that failed over to on-board compute (regional outage).
    pub failovers: u64,
    /// Requests bounced by per-tenant admission control under nominal
    /// quotas (plain overload, not chaos).
    pub rejected: u64,
    /// In-flight requests re-queued off crashed XEdge lanes.
    pub requeued: u64,
    /// Requests rescued by rung-1 deadline-aware retry (sub-count of
    /// `edge_served`).
    pub retry_rescued: u64,
    /// Requests served through a neighbor region's node at a handoff
    /// cost (rung 2, sub-count of `edge_served`).
    pub handoffs: u64,
    /// Requests that fell to rung-3 local degraded execution.
    pub local_fallbacks: u64,
    /// pBEAM training rounds skipped at rung 3 (sub-count of
    /// `local_fallbacks` — a skipped round accrues no degraded time).
    pub training_rounds_skipped: u64,
    /// Elastic barriers at which the lane pool grew.
    pub scale_ups: u64,
    /// Elastic barriers at which the lane pool shrank.
    pub scale_downs: u64,
}

impl Default for FleetMetrics {
    fn default() -> Self {
        FleetMetrics::new()
    }
}

impl FleetMetrics {
    /// Creates empty metrics.
    #[must_use]
    pub fn new() -> Self {
        FleetMetrics {
            e2e_latency_ms: StreamingHistogram::new("e2e_latency_ms"),
            energy_per_request_j: StreamingHistogram::new("energy_per_request_j"),
            queue_depth: StreamingHistogram::new("xedge_queue_depth"),
            elastic_lanes: StreamingHistogram::new("xedge_lanes"),
            by_class: [
                ClassMetrics::new(WorkloadClass::Detection),
                ClassMetrics::new(WorkloadClass::Infotainment),
                ClassMetrics::new(WorkloadClass::PbeamTraining),
            ],
            work_units_by_tenant: BTreeMap::new(),
            requests: 0,
            edge_served: 0,
            collab_hits: 0,
            failovers: 0,
            rejected: 0,
            requeued: 0,
            retry_rescued: 0,
            handoffs: 0,
            local_fallbacks: 0,
            training_rounds_skipped: 0,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// One class's accounting.
    #[must_use]
    pub fn class(&self, class: WorkloadClass) -> &ClassMetrics {
        &self.by_class[class.index()]
    }

    /// Credits served work units to a tenant's ledger.
    pub(crate) fn credit_work(&mut self, tenant: u32, work: u64) {
        *self.work_units_by_tenant.entry(tenant).or_insert(0) += work;
    }

    /// Records requests issued, per class (indexed by
    /// [`WorkloadClass::index`]).
    pub(crate) fn record_requests(&mut self, issued: [u64; 3]) {
        for (class, n) in self.by_class.iter_mut().zip(issued) {
            class.requests += n;
            self.requests += n;
        }
    }

    /// Records one request's terminal outcome in both views, fleet-wide
    /// and per class, which therefore cannot drift apart. A skipped
    /// pBEAM round counts as a local fallback and as a skipped round.
    pub(crate) fn record(
        &mut self,
        outcome: SpanOutcome,
        class: WorkloadClass,
        e2e: SimDuration,
        energy_j: f64,
    ) {
        self.e2e_latency_ms.record_duration(e2e);
        self.energy_per_request_j.record(energy_j);
        let cm = &mut self.by_class[class.index()];
        cm.e2e_latency_ms.record_duration(e2e);
        let (fleet, per_class) = match outcome {
            SpanOutcome::EdgeServed => (&mut self.edge_served, &mut cm.edge_served),
            SpanOutcome::CollabHit => (&mut self.collab_hits, &mut cm.collab_hits),
            SpanOutcome::Failover => (&mut self.failovers, &mut cm.failovers),
            SpanOutcome::Rejected => (&mut self.rejected, &mut cm.rejected),
            SpanOutcome::LocalFallback | SpanOutcome::Skipped => {
                (&mut self.local_fallbacks, &mut cm.local_fallbacks)
            }
        };
        *fleet += 1;
        *per_class += 1;
        if outcome == SpanOutcome::Skipped {
            self.training_rounds_skipped += 1;
        }
    }

    /// Fraction of issued requests served from the V2V cache.
    #[must_use]
    pub fn collab_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.collab_hits as f64 / self.requests as f64
        }
    }
}

/// Deterministic sim-time telemetry captured during a run (present only
/// when [`crate::FleetConfig::with_telemetry`] was used).
///
/// Both halves are derived from values the deterministic serving path
/// already computes: spans carry the canonical per-request lifecycle,
/// the registry holds per-epoch samples taken at barriers. The
/// telemetry of a run is identical at any executor width and batch size
/// (pinned by `tests/telemetry.rs`).
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    /// One span per request, in canonical `(generated, vehicle, seq)`
    /// order (post-sampling; spans already spilled to disk are gone
    /// from here).
    pub spans: SpanLog,
    /// Named counters, gauges, per-epoch time series, and streaming
    /// histograms.
    pub registry: MetricsRegistry,
    /// Segment-rotating JSONL spill writer, when configured.
    pub spill: Option<JsonlSpillSink>,
    /// Active OK-span sampling rate (keep one in N), when on — either
    /// configured up front or auto-activated by a crossed budget.
    pub sample: Option<u32>,
    /// Seed for the sampling hash (the run's master seed).
    pub sample_seed: u64,
    /// Resident-byte budget, when configured.
    pub budget: Option<u64>,
    /// Whether the budget was ever crossed (series rollup active).
    pub rolled: bool,
    /// OK spans dropped by the sampler so far.
    pub sampled_out: u64,
    /// Peak post-enforcement resident telemetry bytes observed at any
    /// barrier (the number the telemetry budget bounds).
    pub peak_bytes: u64,
}

/// Keep-one-in-N rate auto-activated when a telemetry budget is crossed
/// and neither spill nor explicit sampling is configured.
pub const BUDGET_AUTO_SAMPLE: u32 = 8;

/// Recent per-epoch points each series keeps once rollup is active;
/// everything older folds into a same-named streaming histogram.
pub const SERIES_RETENTION: usize = 64;

impl FleetTelemetry {
    /// Telemetry state for a run with the given sink configuration
    /// (`Default` is the plain unbounded in-memory capture).
    #[must_use]
    pub fn configured(
        budget: Option<u64>,
        sample: Option<u32>,
        spill_dir: Option<std::path::PathBuf>,
        seed: u64,
    ) -> Self {
        FleetTelemetry {
            spill: spill_dir.map(|dir| JsonlSpillSink::new(dir, vdap_obs::DEFAULT_SEGMENT_BYTES)),
            sample,
            sample_seed: seed,
            budget,
            ..FleetTelemetry::default()
        }
    }

    /// Accepts one request's span, applying the sampling decision. The
    /// decision reads only `(seed, vehicle, seq, outcome)` — never the
    /// worker, batch, or arrival order — so what survives is identical
    /// across executor widths and batch sizes.
    pub fn absorb(&mut self, span: RequestSpan) {
        if self
            .sample
            .is_some_and(|keep_one_in| !sampler_keeps(self.sample_seed, keep_one_in, &span))
        {
            self.sampled_out += 1;
        } else {
            self.spans.push(span);
        }
    }

    /// Estimated resident telemetry bytes: buffered spans plus the
    /// registry estimate. Count-based on purpose — the estimate, and
    /// every budget decision derived from it, is independent of the run
    /// layout.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.spans.len() as u64 * SPAN_RESIDENT_BYTES + self.registry.approx_bytes()
    }

    /// Budget enforcement at an epoch barrier, in enforcement-ladder
    /// order: spill buffered spans (every barrier when no budget is
    /// set, else only once the budget is crossed), roll over-long
    /// series into histograms, and — with no spill and no explicit
    /// sampling — auto-activate OK-span sampling retroactively. The
    /// `telemetry_bytes` gauge and `peak_bytes` are updated *after*
    /// enforcement: they measure what enforcement achieved. Every
    /// decision reads counts only, never the barrier's index.
    pub fn barrier_flush(&mut self, _epoch: u64) {
        let over = self
            .budget
            .is_some_and(|budget| self.resident_bytes() > budget);
        if self.spill.is_some() && (over || self.budget.is_none()) {
            self.drain_to_spill();
        }
        if over {
            self.rolled = true;
            if self.spill.is_none() && self.sample.is_none() {
                // Last resort: switch sampling on and apply it to the
                // already-buffered spans, so the decision stays a pure
                // function of request identity.
                self.sample = Some(BUDGET_AUTO_SAMPLE);
                let seed = self.sample_seed;
                self.sampled_out += self
                    .spans
                    .retain(|s| sampler_keeps(seed, BUDGET_AUTO_SAMPLE, s));
            }
        }
        if self.rolled {
            self.registry.roll_series(SERIES_RETENTION);
        }
        let resident = self.resident_bytes();
        self.registry.set_gauge("telemetry_bytes", resident as f64);
        self.peak_bytes = self.peak_bytes.max(resident);
    }

    /// End-of-run flush: with spill configured, every still-buffered
    /// span goes to disk regardless of budget, so the JSONL segments
    /// hold the complete (post-sampling) stream.
    pub fn final_flush(&mut self) {
        if self.spill.is_some() {
            self.drain_to_spill();
        }
        let resident = self.resident_bytes();
        self.registry.set_gauge("telemetry_bytes", resident as f64);
        self.peak_bytes = self.peak_bytes.max(resident);
    }

    fn drain_to_spill(&mut self) {
        let spill = self.spill.as_mut().expect("caller checked spill");
        spill.write(std::mem::take(&mut self.spans));
    }
}

/// Whether keep-one-in-`keep_one_in` sampling keeps `span`: every span
/// off the OK path, and OK spans by [`sample_keeps`] of their identity.
fn sampler_keeps(seed: u64, keep_one_in: u32, span: &RequestSpan) -> bool {
    !span.outcome.is_ok_path() || sample_keeps(seed, span.vehicle, span.seq, keep_one_in)
}

/// One region's admission-gate accounting at the end of a mobility run:
/// how many vehicles ended the run registered there and how the gate
/// treated the traffic routed through it. Rush-hour convergence shows
/// up here as registration and rejection spikes at downtown regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionAdmission {
    /// Vehicles registered with this region's gate at the horizon.
    pub registered: u32,
    /// Requests offered to this region's gate over the run.
    pub offered: u64,
    /// Requests this region's gate rejected over the run.
    pub rejected: u64,
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Fleet metrics: every request issued and its outcome.
    pub metrics: FleetMetrics,
    /// Fleet-level reliability accounting (regional outages, node
    /// crashes, per-tenant MTTR, failovers, degraded-mode seconds).
    pub reliability: ReliabilityStats,
    /// Availability per faulted component label (regions, XEdge nodes,
    /// tenants) over the run horizon.
    pub region_availability: Vec<(String, f64)>,
    /// Vehicles simulated.
    pub vehicles: u32,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Total discrete events (request ticks + ingest uploads) processed.
    pub events_processed: u64,
    /// Requests offered to the XEdge admission gate.
    pub admission_offered: u64,
    /// Requests rejected at the admission gate.
    pub admission_rejected: u64,
    /// Geo-mobility ledger, when the run used
    /// [`crate::FleetConfig::with_mobility`] (see [`MobilityMetrics`]).
    pub mobility: Option<MobilityMetrics>,
    /// Per-region admission accounting, present only under mobility
    /// (indexed by region id).
    pub region_admission: Option<Vec<RegionAdmission>>,
    /// DDI ingestion accounting, when the ingestion pipeline ran.
    pub ingest: Option<IngestMetrics>,
    /// Sim-time telemetry (spans + registry), when enabled.
    pub telemetry: Option<FleetTelemetry>,
    /// Wall-clock engine profile: per-worker busy and barrier-idle time.
    /// Always captured; reported only via [`FleetReport::diagnostics`],
    /// never in the deterministic [`FleetReport::summary`].
    pub profile: EngineProfile,
    /// Checkpoint/restore accounting (per-generation snapshot sizes and
    /// write timings, restore decode time, rejected generations).
    /// Wall-clock like the profile: reported only via
    /// [`FleetReport::diagnostics`], never in the summary.
    pub snapshots: SnapshotDiagnostics,
}

impl FleetReport {
    /// Admission reject rate over the run.
    #[must_use]
    pub fn reject_rate(&self) -> f64 {
        if self.admission_offered == 0 {
            0.0
        } else {
            self.admission_rejected as f64 / self.admission_offered as f64
        }
    }

    /// A canonical multi-line text summary of the run's aggregate
    /// metrics.
    ///
    /// Deliberately excludes the run layout and any wall-clock figure:
    /// same-seed runs at any executor width and batch size must produce
    /// **byte-identical** summaries, which is the fleet engine's
    /// determinism contract (and is enforced by `repro -- fleet` and the
    /// property tests).
    #[must_use]
    pub fn summary(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: vehicles={} duration={:.1}s events={} requests={}",
            self.vehicles,
            self.duration.as_secs_f64(),
            self.events_processed,
            m.requests
        );
        let _ = writeln!(
            out,
            "e2e_ms: p50={:.3} p95={:.3} p99={:.3} mean={:.3} max={:.3}",
            m.e2e_latency_ms.quantile(0.5),
            m.e2e_latency_ms.quantile(0.95),
            m.e2e_latency_ms.quantile(0.99),
            m.e2e_latency_ms.mean(),
            m.e2e_latency_ms.max()
        );
        let _ = writeln!(
            out,
            "energy_j: mean={:.4} p95={:.4}",
            m.energy_per_request_j.mean(),
            m.energy_per_request_j.quantile(0.95)
        );
        let _ = writeln!(
            out,
            "xedge: served={} queue_depth_mean={:.2} queue_depth_max={:.0}",
            m.edge_served,
            m.queue_depth.mean(),
            m.queue_depth.max()
        );
        let _ = writeln!(
            out,
            "elastic: lanes_mean={:.2} lanes_max={:.0} scale_ups={} scale_downs={}",
            m.elastic_lanes.mean(),
            m.elastic_lanes.max(),
            m.scale_ups,
            m.scale_downs
        );
        for class in WorkloadClass::ALL {
            let c = m.class(class);
            let _ = writeln!(
                out,
                "class[{class}]: requests={} served={} collab={} failover={} rejected={} \
                 fallback={} e2e_p95_ms={:.3}",
                c.requests,
                c.edge_served,
                c.collab_hits,
                c.failovers,
                c.rejected,
                c.local_fallbacks,
                c.e2e_latency_ms.quantile(0.95)
            );
        }
        let _ = writeln!(
            out,
            "admission: offered={} rejected={} reject_rate={:.4}",
            self.admission_offered,
            self.admission_rejected,
            self.reject_rate()
        );
        let _ = writeln!(
            out,
            "collab: hits={} hit_rate={:.4}",
            m.collab_hits,
            m.collab_hit_rate()
        );
        let mut work = String::new();
        for (tenant, units) in &m.work_units_by_tenant {
            let _ = write!(work, " tenant{tenant}={units}");
        }
        let _ = writeln!(out, "work_units:{work}");
        let _ = writeln!(
            out,
            "reliability: faults={} failovers={} failover_ms_mean={:.3} mttr_ms_mean={:.3}",
            self.reliability.faults_injected(),
            m.failovers,
            self.reliability.failover_latency().mean(),
            self.reliability.mttr().mean()
        );
        let _ = writeln!(
            out,
            "ladder: requeued={} retry_rescued={} retries={} handoffs={} local_fallbacks={} \
             rounds_skipped={} degraded_s={:.3}",
            m.requeued,
            m.retry_rescued,
            self.reliability.retry_count(),
            m.handoffs,
            m.local_fallbacks,
            m.training_rounds_skipped,
            self.reliability.total_degraded_time().as_secs_f64()
        );
        // Mobility lines print only for mobility-enabled runs so the
        // pinned outputs of every earlier experiment stay byte-stable.
        if let Some(mob) = &self.mobility {
            let _ = writeln!(
                out,
                "mobility: crossings={} migrations={} same_domain={} storm_crossings={} \
                 stale_cache_hits={} readdressed={}",
                mob.crossings,
                mob.migrations,
                mob.same_shard_crossings,
                mob.storm_crossings,
                mob.stale_cache_hits,
                mob.readdressed_batches
            );
            let _ = writeln!(
                out,
                "mobility_handoff: total_s={:.3} ms_mean={:.3} ms_p95={:.3} speed_mph_mean={:.1}",
                mob.handoff_seconds,
                mob.handoff_ms.mean(),
                mob.handoff_ms.quantile(0.95),
                mob.crossing_speed_mph.mean()
            );
            if let Some(regions) = &self.region_admission {
                let mut line = String::new();
                for (r, a) in regions.iter().enumerate() {
                    let _ = write!(
                        line,
                        " region{r}={}/{}/{}",
                        a.registered, a.offered, a.rejected
                    );
                }
                let _ = writeln!(out, "mobility_admission(reg/off/rej):{line}");
            }
        }
        if let Some(ing) = &self.ingest {
            let _ = writeln!(
                out,
                "ingest: batches={} records={} written_batches={} written_records={} \
                 miss_rate={:.4} backlog={}",
                ing.batches_sent,
                ing.records_sent,
                ing.batches_written,
                ing.records_written,
                ing.deadline_miss_rate(),
                ing.backlog_records
            );
            let _ = writeln!(
                out,
                "ingest_ladder: outage_bounces={} queue_bounces={} retries={} deferrals={} \
                 disk_spills={} cache_evictions={} shed_records={}",
                ing.outage_bounces,
                ing.queue_bounces,
                ing.retries,
                ing.deferrals,
                ing.disk_spills,
                ing.cache_evictions,
                ing.records_shed
            );
            let _ = writeln!(
                out,
                "ingest_storage: rho_mean={:.3} rho_max={:.3} uplink_ms_p95={:.3} \
                 latency_ms_mean={:.3} latency_ms_p95={:.3}",
                ing.storage_rho.mean(),
                ing.storage_rho.max(),
                ing.uplink_ms.quantile(0.95),
                ing.ingest_latency_ms.mean(),
                ing.ingest_latency_ms.quantile(0.95)
            );
        }
        for (region, avail) in &self.region_availability {
            let _ = writeln!(out, "availability[{region}]={avail:.6}");
        }
        out
    }

    /// The wall-clock diagnostics block: per-worker busy and
    /// barrier-idle time, serial barrier time, and telemetry volume.
    ///
    /// This is the *nondeterministic* counterpart of
    /// [`FleetReport::summary`] — wall-clock readings differ run to run,
    /// so nothing in this block may ever feed a byte-identity
    /// comparison.
    #[must_use]
    pub fn diagnostics(&self) -> String {
        let mut out = self.profile.render();
        if let Some(tel) = &self.telemetry {
            let series = tel.registry.all_series().count();
            let _ = writeln!(
                out,
                "telemetry: spans={} series={} counters={} hists={} resident_bytes={} peak_bytes={}",
                tel.spans.len(),
                series,
                tel.registry.counters().count(),
                tel.registry.all_histograms().count(),
                tel.resident_bytes(),
                tel.peak_bytes
            );
            if let Some(spill) = &tel.spill {
                let _ = writeln!(
                    out,
                    "telemetry_spill: spilled={} segments={} io_errors={}",
                    spill.spilled(),
                    spill.segments().len(),
                    spill.io_errors()
                );
            }
            if let Some(keep_one_in) = tel.sample {
                let _ = writeln!(
                    out,
                    "telemetry_sample: keep_one_in={keep_one_in} sampled_out={}",
                    tel.sampled_out
                );
            }
        }
        if !self.snapshots.is_empty() {
            let _ = write!(out, "{}", self.snapshots);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorders_keep_class_and_aggregate_views_in_lockstep() {
        let mut m = FleetMetrics::new();
        m.record_requests([3, 2, 1]);
        let ms = SimDuration::from_millis;
        m.record(
            SpanOutcome::EdgeServed,
            WorkloadClass::Detection,
            ms(12),
            0.5,
        );
        m.credit_work(1, 8);
        m.record(
            SpanOutcome::CollabHit,
            WorkloadClass::Detection,
            ms(3),
            0.01,
        );
        m.record(
            SpanOutcome::LocalFallback,
            WorkloadClass::Detection,
            ms(20),
            0.3,
        );
        m.record(
            SpanOutcome::Rejected,
            WorkloadClass::Infotainment,
            ms(40),
            1.0,
        );
        m.record(
            SpanOutcome::Failover,
            WorkloadClass::Infotainment,
            ms(50),
            1.1,
        );
        m.record(
            SpanOutcome::Skipped,
            WorkloadClass::PbeamTraining,
            ms(10),
            0.0,
        );
        let class_sum = |f: fn(&ClassMetrics) -> u64| -> u64 {
            WorkloadClass::ALL.iter().map(|&c| f(m.class(c))).sum()
        };
        assert_eq!(m.requests, 6);
        assert_eq!(class_sum(|c| c.requests), m.requests);
        assert_eq!(class_sum(|c| c.edge_served), m.edge_served);
        assert_eq!(class_sum(|c| c.collab_hits), m.collab_hits);
        assert_eq!(class_sum(|c| c.failovers), m.failovers);
        assert_eq!(class_sum(|c| c.rejected), m.rejected);
        assert_eq!(class_sum(|c| c.local_fallbacks), m.local_fallbacks);
        assert_eq!(m.local_fallbacks, 2, "a skipped round is a rung-3 fallback");
        assert_eq!(m.training_rounds_skipped, 1);
        assert_eq!(
            m.e2e_latency_ms.count(),
            6,
            "one latency sample per outcome"
        );
        assert_eq!(
            class_sum(|c| c.e2e_latency_ms.count()),
            m.e2e_latency_ms.count()
        );
        assert_eq!(m.work_units_by_tenant.get(&1), Some(&8));
    }

    #[test]
    fn diagnostics_carries_profile_but_summary_does_not() {
        let report = FleetReport {
            metrics: FleetMetrics::new(),
            reliability: ReliabilityStats::new(),
            region_availability: Vec::new(),
            vehicles: 10,
            duration: SimDuration::from_secs(1),
            events_processed: 0,
            admission_offered: 0,
            admission_rejected: 0,
            mobility: None,
            region_admission: None,
            ingest: None,
            telemetry: Some(FleetTelemetry::default()),
            profile: EngineProfile {
                worker_busy: vec![std::time::Duration::from_millis(5); 2],
                worker_idle: vec![std::time::Duration::from_millis(1); 2],
                worker_steals: vec![1, 0],
                worker_stolen: vec![
                    std::time::Duration::from_millis(1),
                    std::time::Duration::ZERO,
                ],
                barrier: std::time::Duration::from_millis(2),
                epochs: 4,
            },
            snapshots: SnapshotDiagnostics::default(),
        };
        let d = report.diagnostics();
        assert!(d.contains("profile: epochs=4"));
        assert!(d.contains("worker[0]:"));
        assert!(d.contains("barrier_idle_ms="));
        assert!(d.contains("steals="));
        assert!(d.contains("telemetry: spans=0"));
        assert!(
            !d.contains("snapshots:"),
            "no snapshot lines unless checkpointing ran"
        );
        assert!(
            !report.summary().contains("busy_ms"),
            "wall-clock must never leak into the deterministic summary"
        );
        let mut with_snapshots = report.clone();
        with_snapshots.snapshots = SnapshotDiagnostics {
            writes: vec![crate::SnapshotWrite {
                generation: 8,
                bytes: 4096,
                write_ms: 0.5,
                chaos: Some("torn-write"),
            }],
            load_ms: Some(0.25),
            rejected_generations: vec![16],
            resumes: 1,
        };
        let d = with_snapshots.diagnostics();
        assert!(d.contains("snapshots: 1 written, 1 resume(s), 1 generation(s) rejected"));
        assert!(d.contains("write gen 8: 4096 B"));
        assert!(d.contains("(torn-write injected)"));
        assert!(d.contains("rejected gen 16"));
        assert!(
            !with_snapshots.summary().contains("snapshots"),
            "snapshot wall-clock must never leak into the summary"
        );
    }

    #[test]
    fn summary_is_stable_text() {
        let report = FleetReport {
            metrics: FleetMetrics::new(),
            reliability: ReliabilityStats::new(),
            region_availability: vec![("region0/lte".to_string(), 0.9)],
            vehicles: 10,
            duration: SimDuration::from_secs(60),
            events_processed: 0,
            admission_offered: 0,
            admission_rejected: 0,
            mobility: None,
            region_admission: None,
            ingest: None,
            telemetry: None,
            profile: EngineProfile::default(),
            snapshots: SnapshotDiagnostics::default(),
        };
        let s = report.summary();
        assert!(s.contains("fleet: vehicles=10 duration=60.0s"));
        assert!(s.contains("availability[region0/lte]=0.900000"));
        assert!(s.contains("class[detection]:"));
        assert!(s.contains("class[infotainment]:"));
        assert!(s.contains("class[pbeam-training]:"));
        assert!(s.contains("elastic: lanes_mean="));
        assert!(s.contains("rounds_skipped=0"));
        assert!(
            !s.contains("worker"),
            "summary must not leak the run layout"
        );
        assert!(
            !s.contains("ingest:"),
            "no ingest lines unless the pipeline ran"
        );
        let mut with_ingest = report.clone();
        let mut ing = IngestMetrics::new();
        ing.batches_sent = 4;
        ing.deadline_misses = 1;
        with_ingest.ingest = Some(ing);
        let s = with_ingest.summary();
        assert!(s.contains("ingest: batches=4"));
        assert!(s.contains("miss_rate=0.2500"));
        assert!(s.contains("ingest_ladder: outage_bounces=0"));
        assert!(s.contains("ingest_storage: rho_mean="));
    }
}
