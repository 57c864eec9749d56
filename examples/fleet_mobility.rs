//! Geo-mobility rush hour: 10,000 vehicles follow seeded route plans
//! over the region graph with a rush-dominated profile mix, with zero
//! injected faults. The synchronized rush departure funnels the fleet
//! into the downtown regions and produces an *organic* handoff storm:
//! crossings spike when the rush window opens, every crossing pays the
//! cellular handoff cost and re-registers the vehicle's tenancy with
//! the destination region's admission gate, in-flight ingest batches
//! re-address to the destination collector, and the vehicle's V2V
//! result cache goes stale. All mobility state advances only at epoch
//! barriers in canonical vehicle order, so the run finishes with a
//! one-worker rerun that matches the parallel run's summary byte for
//! byte.
//!
//! ```text
//! cargo run --release --example fleet_mobility
//! ```

use vdap_fleet::{FleetConfig, FleetEngine, MobilityConfig, WorkerPool};
use vdap_sim::SimDuration;

fn main() {
    let vehicles = 10_000;
    let threads = WorkerPool::with_default_size().threads();
    let mut cfg = FleetConfig::sized(vehicles);
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(24);
    let mobility = MobilityConfig::rush_hour();
    let downtown = mobility.downtown_regions(cfg.regions);
    let cfg = cfg.with_ingest().with_mobility_config(mobility);

    println!(
        "{vehicles} vehicles, {} regions ({downtown} downtown), {threads} executor workers; \
         rush-dominated route mix, zero injected faults",
        cfg.regions
    );
    println!();

    let report = FleetEngine::new(cfg.clone()).run();
    let mob = report.mobility.as_ref().expect("mobility enabled");

    println!(
        "crossings {:>6}  ({} domain migrations + {} same-domain moves)",
        mob.crossings, mob.migrations, mob.same_shard_crossings
    );
    println!(
        "handoffs  {:>6.0} s total, p95 {:.0} ms, crossing speed mean {:.1} mph",
        mob.handoff_seconds,
        mob.handoff_ms.quantile(0.95),
        mob.crossing_speed_mph.mean()
    );
    println!(
        "wake      {:>6} stale V2V lookups suppressed, {} ingest batches re-addressed",
        mob.stale_cache_hits, mob.readdressed_batches
    );

    // The organic storm: rush hour concentrates registrations (and
    // admission rejections) at the downtown gates with no chaos plan.
    let adm = report
        .region_admission
        .as_ref()
        .expect("per-region admission gates active with mobility on");
    println!();
    println!("destination-region admission pressure (registered / offered / rejected):");
    for (r, gate) in adm.iter().enumerate() {
        let tag = if (r as u32) < downtown {
            "downtown"
        } else {
            "uptown"
        };
        println!(
            "  region{r} ({tag:>8}): {:>5} / {:>6} / {:>6}",
            gate.registered, gate.offered, gate.rejected
        );
    }
    assert_eq!(report.reliability.faults_injected(), 0, "storm is organic");
    assert!(
        mob.partitions(),
        "every crossing is a domain migration or a same-domain move"
    );

    // Determinism contract: routes advance only at barriers in vehicle
    // order, so one worker with an odd batch size reproduces the
    // parallel run byte for byte.
    let single = FleetEngine::new(cfg.with_executor_threads(1).with_batch_size(7)).run();
    assert_eq!(
        single.summary(),
        report.summary(),
        "1-worker and {threads}-worker summaries must be byte-identical"
    );
    assert_eq!(single.mobility, report.mobility, "mobility ledger diverged");
    println!();
    println!("determinism: 1-worker rerun matches the {threads}-worker summary byte for byte");
}
