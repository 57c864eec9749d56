//! Property tests for the fleet engine's two determinism contracts:
//! streaming-histogram merges are associative and commutative
//! bit-for-bit, and fleet metrics are invariant to the run layout
//! (executor width and batch size).

use proptest::prelude::*;
use vdap_edgeos::{ClassQueueKey, FairQueue, TenantId};
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, WorkloadClass};
use vdap_sim::{SeedFactory, SimDuration, SimTime, StreamingHistogram};

/// Fills a histogram with `n` samples from a seeded stream.
fn filled(seed: u64, stream: u64, n: u32) -> StreamingHistogram {
    let mut rng = SeedFactory::new(seed).indexed_stream("hist-prop", stream);
    let mut h = StreamingHistogram::new("lat");
    for _ in 0..n {
        h.record(rng.uniform_range(0.0, 500.0));
    }
    h
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(seed in any::<u64>(), n in 1u32..200, m in 1u32..200) {
        let a = filled(seed, 0, n);
        let b = filled(seed, 1, m);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.mean().to_bits(), ba.mean().to_bits());
        prop_assert_eq!(format!("{ab}"), format!("{ba}"));
    }

    #[test]
    fn histogram_merge_is_associative(seed in any::<u64>(), n in 1u32..100) {
        let (a, b, c) = (filled(seed, 0, n), filled(seed, 1, n), filled(seed, 2, n));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.mean().to_bits(), right.mean().to_bits());
    }

    #[test]
    fn merging_empty_is_identity(seed in any::<u64>(), n in 0u32..100) {
        let a = filled(seed, 0, n);
        let mut merged = a.clone();
        merged.merge(&StreamingHistogram::new("lat"));
        prop_assert_eq!(&merged, &a);
    }
}

/// `cfg` under the run layouts every invariance property compares: the
/// default (machine-wide executor, default batch), one worker with
/// single-vehicle batches, and two workers with an odd batch size.
fn layouts(cfg: FleetConfig) -> [FleetConfig; 3] {
    [
        cfg.clone(),
        cfg.clone().with_executor_threads(1).with_batch_size(1),
        cfg.with_executor_threads(2).with_batch_size(7),
    ]
}

/// Runs `cfg` under every layout of [`layouts`].
fn run_layouts(cfg: FleetConfig) -> Vec<FleetReport> {
    layouts(cfg)
        .into_iter()
        .map(|c| FleetEngine::new(c).run())
        .collect()
}

/// A fleet small enough to run many times under proptest but big enough
/// to exercise every outcome path (edge, collab, reject, failover).
fn quick_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn same_seed_shard_count_invariance(seed in any::<u64>()) {
        let reports = run_layouts(quick_config(seed));
        for r in &reports[1..] {
            prop_assert_eq!(reports[0].summary(), r.summary(), "run layouts diverged");
        }
    }
}

/// A chaos plan exercising all three edge-tier fault kinds at once on a
/// fleet with two XEdge nodes (so node 0's crash leaves a live failover
/// target for rung 2).
fn edge_chaos_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.edge_nodes = 2;
    cfg.with_edge_node_crash(0, SimTime::from_secs(2), SimDuration::from_secs(3))
        .with_tenant_quota_flap(1, 0.25, SimTime::from_secs(3), SimDuration::from_secs(2))
        .with_handoff_storm(1, SimTime::from_secs(4), SimDuration::from_secs(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn edge_tier_chaos_is_shard_invariant(seed in any::<u64>()) {
        // Full degradation-ladder chaos (node crash + quota flap +
        // handoff storm): metrics, summary, AND the reliability ledger
        // (per-tenant MTTR, degraded seconds) must be identical in
        // every run layout.
        let reports = run_layouts(edge_chaos_config(seed));
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0].reliability, &r.reliability);
            prop_assert_eq!(&reports[0].metrics, &r.metrics);
            prop_assert_eq!(reports[0].summary(), r.summary());
        }
    }
}

/// Per-class DRR quanta for the fairness property: detection light,
/// pBEAM heavy (mirrors the default [`vdap_fleet::ClassSpec`] mix).
const CLASS_QUANTUM: [u64; 3] = [8, 16, 32];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn drr_work_shares_stay_within_one_quantum(
        seed in any::<u64>(),
        tenants in 2u32..5,
        rounds in 10u32..40,
    ) {
        // Heterogeneous per-item costs: each item in class `c` costs
        // anywhere from half to double the class quantum, so servings
        // per visit vary and deficits genuinely carry between rounds.
        let mut rng = SeedFactory::new(seed).stream("drr-fairness-prop");
        let mut queue: FairQueue<u64, ClassQueueKey> = FairQueue::new(CLASS_QUANTUM[0]);
        let mut remaining: Vec<Vec<u32>> = Vec::new();
        let backlog = 3 * rounds + 16;
        for t in 0..tenants {
            let mut per_flow = Vec::new();
            for class in WorkloadClass::ALL {
                let key = ClassQueueKey::new(TenantId::new(t), class);
                let q = CLASS_QUANTUM[class.index()];
                queue.set_quantum(key, q);
                for _ in 0..backlog {
                    let cost = (q / 2).max(1) + rng.below(2 * q);
                    queue.enqueue(key, cost, cost);
                }
                per_flow.push(backlog);
            }
            remaining.push(per_flow);
        }

        // Pop while every flow stays backlogged, so the interval the
        // DRR fairness bound applies to covers every pop.
        let mut served = vec![0u64; tenants as usize];
        while remaining.iter().flatten().all(|r| *r > 1) {
            let (key, cost) = queue.pop().expect("flows are backlogged");
            served[key.tenant.as_u32() as usize] += cost;
            remaining[key.tenant.as_u32() as usize][key.class.index()] -= 1;
        }

        // Equal quanta ⇒ equal entitlement. Over any backlogged
        // interval each tenant's served work stays within one quantum
        // round (the sum of its per-class quanta) plus one maximal
        // item per flow of every other tenant's.
        let quantum_round: u64 = CLASS_QUANTUM.iter().sum();
        let max_item: u64 = CLASS_QUANTUM.iter().map(|q| 2 * q + q / 2).sum();
        let tolerance = quantum_round + max_item;
        let hi = *served.iter().max().expect("nonempty");
        let lo = *served.iter().min().expect("nonempty");
        prop_assert!(
            hi - lo <= tolerance,
            "work shares diverged beyond one quantum round: {served:?} (tolerance {tolerance})"
        );
    }
}

/// The acceptance-criteria configuration: the full three-class mix AND
/// elastic lane scaling, saturating enough that the scaler really
/// grows and shrinks the pool.
fn elastic_mixed_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64).with_elastic_capacity();
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.request_period = SimDuration::from_millis(400);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn elastic_mixed_workloads_are_shard_invariant(seed in any::<u64>()) {
        // Elastic decisions are sampled only at epoch barriers from the
        // previous barrier's queue depth, so they must not cost any
        // determinism: metrics (including the per-tenant work ledger
        // inside the summary) stay byte-identical in every run layout.
        let reports = run_layouts(elastic_mixed_config(seed));
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0].metrics, &r.metrics);
            prop_assert_eq!(reports[0].summary(), r.summary());
        }
        // The property is vacuous if the scaler never acts: the load
        // level above is chosen so the pool both grows and shrinks.
        let m = &reports[0].metrics;
        prop_assert!(
            m.scale_ups + m.scale_downs > 0,
            "elastic scaler never engaged (lanes mean {})",
            m.elastic_lanes.mean()
        );
    }
}

/// The ingestion pipeline on a healthy fleet: every vehicle batches
/// telemetry through its regional collector into the storage tier.
fn ingest_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64).with_ingest();
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn ingest_enabled_runs_are_shard_invariant(seed in any::<u64>()) {
        // The ingest pass is engine-owned and consumes only canonically
        // sorted barrier data, so the full report — metrics, summary,
        // AND the ingestion ledger — must be identical in every run
        // layout.
        let reports = run_layouts(ingest_config(seed));
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0].metrics, &r.metrics);
            prop_assert_eq!(&reports[0].ingest, &r.ingest);
            prop_assert_eq!(reports[0].summary(), r.summary());
        }
        let ing = reports[0].ingest.as_ref().expect("ingest ledger present");
        prop_assert!(ing.batches_sent > 0, "vehicles must upload");
    }
}

/// DDI/storage chaos on top of ingestion: a collector outage, a deep
/// storage brownout and a hard write-error window, with a storage tier
/// sized tight enough that the brownout genuinely backs queues up.
fn ingest_chaos_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_collector_outage(0, SimTime::from_secs(1), SimDuration::from_secs(3))
        .with_storage_brownout(0.05, SimTime::from_secs(2), SimDuration::from_secs(4))
        .with_storage_write_error(SimTime::from_secs(6), SimDuration::from_secs(1));
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.ingest.as_mut().unwrap().storage_records_per_sec = 400.0;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn ddi_storage_chaos_is_shard_invariant(seed in any::<u64>()) {
        // The ingestion degradation ladder (seeded-backoff retry →
        // defer-to-cache → shed) draws from an engine-owned stream in
        // canonical batch order, so even under collector outages,
        // brownouts and write errors the ledger replays byte-for-byte
        // in any run layout.
        let reports = run_layouts(ingest_chaos_config(seed));
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0].metrics, &r.metrics);
            prop_assert_eq!(&reports[0].ingest, &r.ingest);
            prop_assert_eq!(&reports[0].reliability, &r.reliability);
            prop_assert_eq!(reports[0].summary(), r.summary());
        }
        // The property is vacuous if chaos never bites.
        let ing = reports[0].ingest.as_ref().expect("ingest ledger present");
        prop_assert!(ing.outage_bounces > 0, "collector outage never hit");
        prop_assert!(
            ing.storage_rho.max() > 1.0,
            "brownout never saturated storage (rho max {})",
            ing.storage_rho.max()
        );
    }
}

/// Geo-mobility on top of ingestion plus a seeded handoff storm: the
/// full interaction surface — crossings re-addressing in-flight ingest
/// batches, storm-multiplied handoff costs, and per-region admission
/// re-registration.
fn mobility_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_handoff_storm(1, SimTime::from_secs(3), SimDuration::from_secs(3));
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn mobility_with_ingest_and_storm_is_shard_invariant(seed in any::<u64>()) {
        // Mobility state lives on the engine thread and advances only
        // at barriers in canonical vehicle order, so the full mobility
        // ledger — crossings, domain migrations, storm crossings, stale
        // cache hits, re-addressed batches, handoff histograms — must
        // replay byte-for-byte in every run layout.
        let reports = run_layouts(mobility_config(seed));
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0].metrics, &r.metrics);
            prop_assert_eq!(&reports[0].mobility, &r.mobility);
            prop_assert_eq!(&reports[0].region_admission, &r.region_admission);
            prop_assert_eq!(&reports[0].ingest, &r.ingest);
            prop_assert_eq!(&reports[0].reliability, &r.reliability);
            prop_assert_eq!(reports[0].summary(), r.summary());
        }
        // The property is vacuous if nobody moves: the ledger must show
        // real crossings that partition into domain migrations and
        // same-domain moves.
        let mob = reports[0].mobility.as_ref().expect("mobility ledger present");
        prop_assert!(mob.crossings > 0, "no vehicle ever crossed a region");
        prop_assert!(mob.migrations > 0, "no crossing changed home-node domain");
        prop_assert!(
            mob.partitions(),
            "crossings ({}) != migrations ({}) + same-domain ({})",
            mob.crossings,
            mob.migrations,
            mob.same_shard_crossings
        );
    }
}

/// The full interaction surface — ingest, mobility, and a regional
/// outage — pinned to an explicit executor width and batch size. The
/// executor knobs are pure performance knobs: any (threads, batch)
/// point must replay the reference run byte-for-byte.
fn steal_config(seed: u64, threads: u32, batch: u32) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(3))
        .with_executor_threads(threads)
        .with_batch_size(batch);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn executor_width_cannot_reach_any_report(seed in any::<u64>()) {
        // Reference: single worker, so the tick phase is fully serial
        // and no steal can ever happen. Wider executors (including
        // "whatever the machine has") produce wall-clock-dependent
        // steal schedules — none of which may reach the report.
        let hw = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get) as u32;
        let base = FleetEngine::new(steal_config(seed, 1, 16)).run();
        for threads in [2, 4, hw] {
            let r = FleetEngine::new(steal_config(seed, threads, 16)).run();
            prop_assert_eq!(&base.metrics, &r.metrics, "threads={}", threads);
            prop_assert_eq!(&base.mobility, &r.mobility, "threads={}", threads);
            prop_assert_eq!(&base.ingest, &r.ingest, "threads={}", threads);
            prop_assert_eq!(&base.reliability, &r.reliability, "threads={}", threads);
            prop_assert_eq!(base.summary(), r.summary(), "threads={}", threads);
        }
    }

    #[test]
    fn batch_size_cannot_reach_any_report(seed in any::<u64>()) {
        // Batch size only regroups which vehicles share a work item:
        // one vehicle per batch, a prime that leaves a ragged last
        // chunk, and the whole fleet in one batch must all match the
        // default grouping.
        let base = FleetEngine::new(steal_config(seed, 4, 32)).run();
        for batch in [1u32, 7, 64] {
            let r = FleetEngine::new(steal_config(seed, 4, batch)).run();
            prop_assert_eq!(&base.metrics, &r.metrics, "batch={}", batch);
            prop_assert_eq!(&base.mobility, &r.mobility, "batch={}", batch);
            prop_assert_eq!(&base.ingest, &r.ingest, "batch={}", batch);
            prop_assert_eq!(base.summary(), r.summary(), "batch={}", batch);
        }
    }
}

#[test]
fn full_scale_shard_invariance_smoke() {
    // The acceptance-criteria configuration at reduced duration: 1,000
    // vehicles, default tenants/regions, byte-identical in every run
    // layout.
    let mut cfg = FleetConfig::sized(1000);
    cfg.duration = SimDuration::from_secs(5);
    let reports = run_layouts(cfg);
    for r in &reports[1..] {
        assert_eq!(reports[0].summary(), r.summary());
        assert_eq!(reports[0].metrics, r.metrics);
        assert_eq!(reports[0].events_processed, r.events_processed);
    }
}
