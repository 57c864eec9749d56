//! Fleet-scale offloading study on the fleet engine: 1,200 vehicles
//! stream detection work to the shared multi-tenant XEdge deployment
//! for 90 simulated seconds, under three levels of edge load, with a
//! regional LTE outage thrown in. Finishes by re-running the heaviest
//! point on a single executor worker to demonstrate the engine's
//! byte-identical determinism contract.
//!
//! ```text
//! cargo run --release --example fleet_offload
//! ```

use openvdap::scenario::{sweep, ScenarioConfig};
use vdap_fleet::{FleetEngine, WorkerPool};
use vdap_sim::{SimDuration, SimTime};

fn main() {
    let threads = WorkerPool::with_default_size().threads();
    let scenario = ScenarioConfig {
        seed: 42,
        vehicles: 1200,
        duration: SimDuration::from_secs(90),
        request_period: SimDuration::from_secs(1),
        ..ScenarioConfig::default()
    };

    // The worker-pool-backed sweep evaluates each load point in
    // parallel (capped at the machine's core count).
    let loads = [1.0, 2.0, 4.0];
    let base = scenario.clone();
    let results = sweep(loads.to_vec(), move |edge_load| {
        let cfg = ScenarioConfig {
            edge_load,
            ..base.clone()
        }
        .fleet()
        .with_regional_outage(0, SimTime::from_secs(30), SimDuration::from_secs(15));
        (edge_load, FleetEngine::new(cfg).run())
    });

    println!(
        "{:>9}  {:>8} {:>12} {:>12} {:>12} {:>14}",
        "edge load", "requests", "p95 e2e (ms)", "reject rate", "collab hits", "energy/req (J)"
    );
    println!("{}", "-".repeat(74));
    for (edge_load, report) in &results {
        let total = report.metrics.total();
        println!(
            "{:>8.1}x  {:>8} {:>12.1} {:>12.4} {:>12} {:>14.3}",
            edge_load,
            report.metrics.requests,
            total.e2e_latency_ms.quantile(0.95),
            report.reject_rate(),
            total.collab_hits,
            report.metrics.energy_per_request_j.mean(),
        );
    }

    let (_, heaviest) = results.last().expect("three load points");
    println!();
    println!("heaviest point ({threads} executor workers):");
    print!("{}", heaviest.summary());

    // Determinism contract: the same seed on a single worker reproduces
    // the parallel run's aggregate metrics byte for byte.
    let single_cfg = ScenarioConfig {
        edge_load: loads[2],
        ..scenario
    }
    .fleet()
    .with_regional_outage(0, SimTime::from_secs(30), SimDuration::from_secs(15))
    .with_executor_threads(1);
    let single = FleetEngine::new(single_cfg).run();
    assert_eq!(
        single.summary(),
        heaviest.summary(),
        "1-worker and {threads}-worker summaries must be byte-identical"
    );
    println!();
    println!("determinism: 1-worker rerun matches the {threads}-worker summary byte for byte");
}
