//! Layer replays: per-epoch batches of inputs fed through each layer's
//! public functions, each batch timed as one span with an op count.
//!
//! The engine's own passes are not visible from outside the program,
//! so these replays price one call of each layer primitive. The traffic
//! is the traced run's own: its requests per epoch, its class mix and
//! per-class outcome mix from the class ledgers, latencies drawn from its
//! per-class latency histograms, and its upload batches per epoch and
//! storage utilization from the ingest ledger. Only the layers the
//! workload enables are replayed.

use std::hint::black_box;
use std::path::Path;

use vdap_ddi::{RegionCollector, StorageTierModel, UploadBatch};
use vdap_edgeos::{ClassQueueKey, FairQueue, TenantAdmission, TenantId, WorkloadClass};
use vdap_fleet::{FleetConfig, FleetReport, FleetTelemetry, WorkerPool};
use vdap_mobility::{RegionGraph, VehicleTrack};
use vdap_obs::{RequestSpan, SpanOutcome};
use vdap_sim::{RngStream, SeedFactory, SimDuration, SimTime, StreamingHistogram};

use crate::trace::Tracer;

/// Points of each latency or utilization histogram a replay draws from.
const QUANTILES: u64 = 256;

/// Raw draws per request priced by the `sim.rng` replay.
const RNG_DRAWS_PER_REQUEST: u64 = 4;

/// Whether the workload's config switches `layer` on. The fleet, pool,
/// edgeos, sim and bench layers run in every workload.
#[must_use]
pub fn enabled(cfg: &FleetConfig, layer: &str) -> bool {
    match layer {
        "ddi" => cfg.ingest.is_some(),
        "mobility" => cfg.mobility.is_some(),
        "obs" => cfg.telemetry,
        "ckpt" => cfg.checkpoint.is_some(),
        _ => true,
    }
}

/// `QUANTILES` evenly spaced quantiles of `h`, to draw samples from.
fn quantile_table(h: &StreamingHistogram) -> Vec<f64> {
    (0..QUANTILES)
        .map(|i| h.quantile((i as f64 + 0.5) / QUANTILES as f64))
        .collect()
}

/// One item of `weighted`, drawn with probability proportional to its
/// weight. The weights must not all be zero.
fn pick<T: Copy>(rng: &mut RngStream, weighted: &[(T, u64)]) -> T {
    let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
    let mut draw = rng.below(total);
    for &(item, w) in weighted {
        if draw < w {
            return item;
        }
        draw -= w;
    }
    unreachable!("draw below the total weight")
}

/// `total` spread over `epochs`, rounded.
fn per_epoch(total: u64, epochs: u64) -> u64 {
    (total as f64 / epochs as f64).round() as u64
}

/// The traced run's request traffic of one class.
struct ClassTraffic {
    class: WorkloadClass,
    requests: u64,
    outcomes: [(SpanOutcome, u64); 6],
    latency_ms: Vec<f64>,
}

fn traffic_of(report: &FleetReport) -> Vec<ClassTraffic> {
    let m = &report.metrics;
    WorkloadClass::ALL
        .into_iter()
        .map(|class| {
            let c = m.class(class);
            // Skipped pBEAM rounds are a sub-count of its fallbacks.
            let skipped = if class == WorkloadClass::PbeamTraining {
                m.training_rounds_skipped.min(c.local_fallbacks)
            } else {
                0
            };
            ClassTraffic {
                class,
                requests: c.requests,
                outcomes: [
                    (SpanOutcome::EdgeServed, c.edge_served),
                    (SpanOutcome::CollabHit, c.collab_hits),
                    (SpanOutcome::Failover, c.failovers),
                    (SpanOutcome::Rejected, c.rejected),
                    (SpanOutcome::LocalFallback, c.local_fallbacks - skipped),
                    (SpanOutcome::Skipped, skipped),
                ],
                latency_ms: quantile_table(&c.e2e_latency_ms),
            }
        })
        .collect()
}

/// One replayed request.
struct Request {
    vehicle: u32,
    seq: u32,
    class: WorkloadClass,
    latency_ms: f64,
    outcome: SpanOutcome,
}

impl Request {
    /// Whether the request reached XEdge admission: V2V hits and outage
    /// failovers never leave the vehicle.
    fn offered_to_edge(&self) -> bool {
        !matches!(self.outcome, SpanOutcome::CollabHit | SpanOutcome::Failover)
    }
}

/// Replays every enabled layer over the workload's epochs with the
/// traffic of `report`, recording one span per layer call per epoch
/// inside a `replay.epoch` span whose self time is the input
/// generation. Spill from the telemetry replay goes under `scratch`.
pub fn replay(cfg: &FleetConfig, report: &FleetReport, tr: &mut Tracer, scratch: &Path) {
    let seeds = SeedFactory::new(cfg.seed);
    let mut rng = seeds.stream("perf-replay");
    let vehicles = cfg.vehicles;
    let epoch = cfg.epoch;
    let epochs = cfg.total_epochs();
    let requests_per_epoch = per_epoch(report.metrics.requests, epochs);
    let traffic = traffic_of(report);
    let class_weights: Vec<(usize, u64)> = traffic
        .iter()
        .enumerate()
        .map(|(i, t)| (i, t.requests))
        .collect();

    let ingest = report.ingest.as_ref().zip(cfg.ingest.as_ref());
    let uploads_per_epoch = ingest.map_or(0, |(m, _)| per_epoch(m.batches_sent, epochs));
    let rho = ingest.map_or_else(Vec::new, |(m, _)| quantile_table(&m.storage_rho));
    let mut collectors: Vec<RegionCollector> = ingest.map_or_else(Vec::new, |(_, c)| {
        (0..cfg.regions)
            .map(|r| RegionCollector::new(r, c.collector_queue_records))
            .collect()
    });
    let tier = ingest.map(|(_, c)| StorageTierModel::new(c.storage_records_per_sec));

    let mut mobility = cfg.mobility.as_ref().map(|mob| {
        let graph = RegionGraph::seeded(
            cfg.regions,
            mob.chords(cfg.regions),
            mob.segment_capacity,
            &mut seeds.stream("perf-mobility-graph"),
        );
        let tracks = tr.time("mobility.track_build", u64::from(vehicles), 0, || {
            (0..vehicles)
                .map(|id| {
                    VehicleTrack::new(
                        id,
                        cfg.region_of(id),
                        mob,
                        &graph,
                        cfg.duration,
                        seeds.indexed_stream("perf-mobility", u64::from(id)),
                    )
                })
                .collect::<Vec<_>>()
        });
        (graph, tracks)
    });
    let mut crossings = Vec::new();

    // One no-op item per vehicle batch of the engine's tick; the first
    // submission spawns the workers, outside any span.
    let pool = WorkerPool::with_default_size();
    let mut items = vec![0u64; vehicles.div_ceil(cfg.batch_size) as usize];
    pool.for_each_mut(&mut items, |_, x| *x += 1);

    let mut admission = TenantAdmission::new(cfg.tenant_queue_cap);
    let mut admitted = Vec::new();
    let mut drr: FairQueue<u32, ClassQueueKey> =
        FairQueue::new(cfg.class(WorkloadClass::Detection).drr_quantum);
    for tenant in 0..cfg.tenants {
        for class in WorkloadClass::ALL {
            drr.set_quantum(
                ClassQueueKey::new(TenantId::new(tenant), class),
                cfg.class(class).drr_quantum,
            );
        }
    }
    let mut telemetry = cfg.telemetry.then(|| {
        FleetTelemetry::configured(
            cfg.telemetry_budget,
            cfg.span_sample,
            cfg.span_spill
                .as_ref()
                .map(|_| scratch.join("replay-spill")),
            cfg.seed,
        )
    });
    let mut obs_hist = vdap_obs::StreamingHistogram::new("perf_e2e_ms");
    let mut sim_hist = StreamingHistogram::new("perf_e2e_ms");
    let mut draws = seeds.stream("perf-rng");

    for e in 0..epochs {
        let epoch_span = tr.open("replay.epoch");
        let start = SimTime::ZERO + epoch * e;
        let end = start + epoch;
        let requests: Vec<Request> = (0..requests_per_epoch)
            .map(|i| {
                let t = &traffic[pick(&mut rng, &class_weights)];
                Request {
                    vehicle: rng.below(u64::from(vehicles)) as u32,
                    seq: (e * requests_per_epoch + i) as u32,
                    class: t.class,
                    latency_ms: t.latency_ms[rng.below(QUANTILES) as usize],
                    outcome: pick(&mut rng, &t.outcomes),
                }
            })
            .collect();
        let n = requests.len() as u64;
        let to_edge: Vec<&Request> = requests.iter().filter(|r| r.offered_to_edge()).collect();
        let offers = to_edge.len() as u64;

        tr.time("pool.submit", 1, 0, || {
            pool.for_each_mut(&mut items, |_, x| *x = black_box(*x + 1))
        });
        tr.time("edgeos.admit", offers, 0, || {
            for r in &to_edge {
                let tenant = TenantId::new(cfg.tenant_of(r.vehicle));
                if admission.try_admit(tenant) {
                    admitted.push(tenant);
                }
            }
            for tenant in admitted.drain(..) {
                admission.release(tenant);
            }
        });
        tr.time("edgeos.drr", offers, 0, || {
            for r in &to_edge {
                let key = ClassQueueKey::new(TenantId::new(cfg.tenant_of(r.vehicle)), r.class);
                drr.enqueue(key, cfg.class(r.class).work_units, r.vehicle);
            }
            while let Some(served) = drr.pop() {
                black_box(served);
            }
        });

        if let (Some((_, ingest)), Some(tier)) = (ingest, &tier) {
            let uploads: Vec<UploadBatch> = (0..uploads_per_epoch)
                .map(|i| {
                    let vehicle = rng.below(u64::from(vehicles)) as u32;
                    UploadBatch {
                        vehicle: u64::from(vehicle),
                        region: cfg.region_of(vehicle),
                        seq: (e * uploads_per_epoch + i) as u32,
                        records: ingest.records_per_batch,
                        bytes: ingest.batch_bytes(),
                        sent_at: start,
                        deadline: start + ingest.deadline,
                        // Drawn as the engine's vehicles draw it.
                        priority: rng.below(4) as u8,
                    }
                })
                .collect();
            let up = uploads.len() as u64;
            tr.time("ddi.offer", up, up * ingest.batch_bytes(), || {
                for batch in uploads {
                    let region = batch.region as usize;
                    let _ = black_box(collectors[region].offer(batch));
                }
                for collector in &mut collectors {
                    while let Some(batch) = collector.pop() {
                        black_box(batch);
                    }
                }
            });
            // Offered loads at the run's own storage utilization. No
            // workload browns storage out, so the throughput factor is 1.
            let capacity = tier.capacity_in(epoch, 1.0) as f64;
            let offered: Vec<u64> = (0..up)
                .map(|_| (rho[rng.below(QUANTILES) as usize] * capacity).round() as u64)
                .collect();
            tr.time("ddi.write_delay", up, 0, || {
                for &load in &offered {
                    black_box(tier.write_delay(load, epoch, 1.0));
                }
            });
        }

        if let Some((graph, tracks)) = &mut mobility {
            // Congestion is locked from pre-advance occupancy, as the
            // engine's mobility pass does.
            let mut occupancy = vec![0u32; graph.segments().len()];
            for track in tracks.iter() {
                if let Some(edge) = track.driving_edge() {
                    occupancy[edge] += 1;
                }
            }
            let congestion: Vec<f64> = graph
                .segments()
                .iter()
                .zip(&occupancy)
                .map(|(seg, &occ)| seg.congestion_multiplier(occ))
                .collect();
            tr.time("mobility.advance", u64::from(vehicles), 0, || {
                for track in tracks.iter_mut() {
                    crossings.clear();
                    track.advance(start, epoch, graph, &congestion, &mut crossings);
                }
            });
        }

        if let Some(telemetry) = &mut telemetry {
            let spans: Vec<RequestSpan> = requests
                .iter()
                .map(|r| {
                    let served = (r.outcome == SpanOutcome::EdgeServed).then_some(end);
                    RequestSpan {
                        vehicle: r.vehicle,
                        seq: r.seq,
                        tenant: cfg.tenant_of(r.vehicle),
                        region: cfg.region_of(r.vehicle),
                        shard: 0,
                        class: r.class.label(),
                        generated: start,
                        admitted: served,
                        serve_start: served,
                        completed: end + SimDuration::from_millis_f64(r.latency_ms),
                        outcome: r.outcome,
                        retries: 0,
                        requeues: 0,
                        handoff: false,
                    }
                })
                .collect();
            tr.time("obs.absorb", n, 0, || {
                for span in spans {
                    telemetry.absorb(span);
                }
            });
            tr.time("obs.flush", 1, 0, || telemetry.barrier_flush(e));
            tr.time("obs.hist_record", n, 0, || {
                for r in &requests {
                    obs_hist.record(r.latency_ms);
                }
            });
        }
        tr.time("sim.hist_record", n, 0, || {
            for r in &requests {
                sim_hist.record(r.latency_ms);
            }
        });
        let rng_ops = n * RNG_DRAWS_PER_REQUEST;
        tr.time("sim.rng", rng_ops, 0, || {
            let mut acc = 0u64;
            for _ in 0..rng_ops {
                acc ^= draws.next_u64();
            }
            black_box(acc)
        });
        tr.close(epoch_span, n, 0);
    }
    black_box((&obs_hist, &sim_hist, &items));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_follows_the_weights_and_skips_zero_weights() {
        let mut rng = SeedFactory::new(1).stream("pick");
        let weighted = [("a", 3), ("never", 0), ("b", 1)];
        let mut a = 0;
        for _ in 0..4000 {
            match pick(&mut rng, &weighted) {
                "a" => a += 1,
                "b" => {}
                other => panic!("drew {other}"),
            }
        }
        assert!((2800..3200).contains(&a), "{a} of 4000");
    }

    #[test]
    fn only_configured_layers_are_enabled() {
        let plain = FleetConfig::default();
        for layer in ["ddi", "mobility", "obs", "ckpt"] {
            assert!(!enabled(&plain, layer), "{layer}");
        }
        for layer in ["fleet", "pool", "edgeos", "sim", "bench"] {
            assert!(enabled(&plain, layer), "{layer}");
        }
        let all = plain.with_ingest().with_mobility().with_telemetry();
        for layer in ["ddi", "mobility", "obs"] {
            assert!(enabled(&all, layer), "{layer}");
        }
    }
}
