//! Mixed-workload fleet serving with elastic XEdge capacity: the §II
//! service catalogue is mapped onto the three fleet workload classes
//! (detection offload, infotainment streaming, pBEAM training rounds),
//! then 1,024 vehicles drive the weighted class mix against a shared
//! XEdge deployment whose lane pool grows and shrinks with observed
//! queue depth. Finishes with a one-worker rerun to demonstrate that
//! elasticity costs nothing in determinism.
//!
//! ```text
//! cargo run --release --example fleet_mixed
//! ```

use openvdap::apps;
use vdap_fleet::{FleetConfig, FleetEngine, WorkerPool, WorkloadClass};
use vdap_sim::SimDuration;

fn main() {
    // Every per-vehicle service bills its XEdge traffic to exactly one
    // fleet workload class; the class then prices the request end to
    // end (bytes, fair-queue work units, deadline, degraded mode).
    println!("service catalogue -> fleet workload class");
    for svc in apps::standard_service_mix() {
        println!("  {:>24} -> {}", svc.name(), apps::workload_class_of(&svc));
    }

    let threads = WorkerPool::with_default_size().threads();
    let mut cfg = FleetConfig::sized(1024).with_elastic_capacity();
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(60);
    cfg.request_period = SimDuration::from_millis(500);
    let report = FleetEngine::new(cfg.clone()).run();

    println!();
    println!(
        "{:>16}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "class", "requests", "served", "collab", "failover", "fallback", "p95 e2e (ms)"
    );
    println!("{}", "-".repeat(76));
    for class in WorkloadClass::ALL {
        let c = report.metrics.class(class);
        println!(
            "{:>16}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>12.1}",
            class.label(),
            c.requests,
            c.edge_served,
            c.collab_hits,
            c.failovers,
            c.local_fallbacks,
            c.e2e_latency_ms.quantile(0.95),
        );
    }
    println!();
    println!(
        "elastic lanes: mean {:.1}, max {:.0} (nominal {}), {} scale-ups, {} scale-downs",
        report.metrics.elastic_lanes.mean(),
        report.metrics.elastic_lanes.max(),
        cfg.edge_capacity,
        report.metrics.scale_ups,
        report.metrics.scale_downs,
    );
    println!(
        "pBEAM rounds skipped under degradation: {}",
        report.metrics.training_rounds_skipped
    );

    // Determinism contract: elastic decisions are sampled only at
    // epoch barriers, so the same seed on one worker reproduces the
    // parallel run's aggregate metrics byte for byte.
    let single = FleetEngine::new(cfg.with_executor_threads(1)).run();
    assert_eq!(
        single.summary(),
        report.summary(),
        "1-worker and {threads}-worker summaries must be byte-identical"
    );
    println!();
    println!("determinism: 1-worker rerun matches the {threads}-worker summary byte for byte");
}
