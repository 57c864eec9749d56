//! Fleet-scale DDI ingestion under pressure: 10,000 vehicles batch
//! telemetry records through their regional DDI collectors into a
//! shared storage tier, while a collector outage and a storage
//! brownout land mid-run. Overflow backpressure walks the ingestion
//! degradation ladder — seeded-backoff retry, defer into the vehicle's
//! local TTL cache, shed lowest-priority — and every decision is
//! sampled only at epoch barriers, so the run finishes with a
//! one-worker rerun that matches the parallel run's summary byte for
//! byte.
//!
//! ```text
//! cargo run --release --example fleet_ingest
//! ```

use vdap_fleet::{FleetConfig, FleetEngine, IngestConfig, WorkerPool};
use vdap_sim::{SimDuration, SimTime};

fn main() {
    let vehicles = 10_000;
    // Size the shared tiers to the fleet: nominal storage throughput
    // 1.25x the offered record rate, each regional collector queue
    // three epochs of its arrivals.
    let mut ing = IngestConfig::default();
    let threads = WorkerPool::with_default_size().threads();
    let mut cfg = FleetConfig::sized(vehicles);
    let offered =
        f64::from(vehicles) * f64::from(ing.records_per_batch) / ing.upload_period.as_secs_f64();
    ing.storage_records_per_sec = offered * 1.25;
    let per_region_epoch = offered / f64::from(cfg.regions) * cfg.epoch.as_secs_f64();
    ing.collector_queue_records =
        (3.0 * per_region_epoch) as u64 + u64::from(ing.records_per_batch);
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(24);
    let cfg = cfg
        .with_ingest_config(ing)
        .with_collector_outage(0, SimTime::from_secs(4), SimDuration::from_secs(3))
        .with_storage_brownout(0.4, SimTime::from_secs(8), SimDuration::from_secs(4));

    println!(
        "{vehicles} vehicles, {} regions, {threads} executor workers; offered {offered:.0} records/s",
        cfg.regions
    );
    println!("fault plan: region-0 collector down 4s-7s, storage brownout (x0.4) 8s-12s");
    println!();

    let report = FleetEngine::new(cfg.clone()).run();
    let m = report.ingest.as_ref().expect("ingest enabled");

    println!(
        "sent      {:>9} batches / {:>9} records",
        m.batches_sent, m.records_sent
    );
    println!(
        "durable   {:>9} batches / {:>9} records (miss rate {:.4})",
        m.batches_written,
        m.records_written,
        m.deadline_miss_rate()
    );
    println!();
    println!("degradation ladder:");
    println!(
        "  rung 1 (retry):  {} retries ({} outage bounces, {} queue bounces)",
        m.retries, m.outage_bounces, m.queue_bounces
    );
    println!(
        "  rung 2 (cache):  {} deferrals, {} disk spills, {} TTL evictions",
        m.deferrals, m.disk_spills, m.cache_evictions
    );
    println!(
        "  rung 3 (shed):   {} records shed; backlog at horizon {}",
        m.records_shed, m.backlog_records
    );
    println!();
    println!(
        "storage pressure: rho mean {:.3}, max {:.3}; uplink p95 {:.1} ms; \
         ingest latency p95 {:.1} ms",
        m.storage_rho.mean(),
        m.storage_rho.max(),
        m.uplink_ms.quantile(0.95),
        m.ingest_latency_ms.quantile(0.95)
    );

    // Every record is accounted for, even mid-chaos: written, shed,
    // TTL-evicted, or still queued/cached at the horizon.
    assert_eq!(
        m.records_sent,
        m.records_written + m.records_shed + m.cache_evictions + m.backlog_records,
        "ingestion ledger must partition"
    );

    // Determinism contract: collectors, storage drain, and the ladder
    // all live on the barrier clock, so one worker with an odd batch
    // size reproduces the parallel run byte for byte.
    let single = FleetEngine::new(cfg.with_executor_threads(1).with_batch_size(7)).run();
    assert_eq!(
        single.summary(),
        report.summary(),
        "1-worker and {threads}-worker summaries must be byte-identical"
    );
    println!();
    println!("determinism: 1-worker rerun matches the {threads}-worker summary byte for byte");
}
