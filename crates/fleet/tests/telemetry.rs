//! Property tests for the telemetry layer's two contracts:
//!
//! 1. **Reconciliation** — the span log partitions the request stream
//!    exactly the way `FleetMetrics`' outcome counters do: one closed
//!    span per request, per-outcome span counts equal to the served /
//!    collab / failover / rejected / fallback counters, and latency
//!    histograms whose counts, tick sums, min/max and quantiles match
//!    the spans' own end-to-end times.
//! 2. **Run-layout invariance** — with telemetry enabled, the
//!    deterministic summary is still byte-identical at any executor
//!    width and batch size, and so are the span log and the metrics
//!    registry.

use proptest::prelude::*;
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, SpanOutcome, WorkloadClass};
use vdap_sim::{SimDuration, SimTime};

/// A fleet small enough for proptest but chaotic enough to produce all
/// six span outcomes: a regional outage (failovers), a node crash on a
/// two-node deployment (retries, handoffs, fallbacks, skipped pBEAM
/// rounds), and tight quotas under load (rejections).
fn chaos_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64).with_telemetry();
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.edge_nodes = 2;
    cfg.with_regional_outage(0, SimTime::from_secs(1), SimDuration::from_secs(2))
        .with_edge_node_crash(0, SimTime::from_secs(3), SimDuration::from_secs(3))
        .with_tenant_quota_flap(1, 0.25, SimTime::from_secs(4), SimDuration::from_secs(2))
}

/// `cfg` under the default run layout, one worker with single-vehicle
/// batches, and two workers with an odd batch size.
fn run_layouts(cfg: FleetConfig) -> Vec<FleetReport> {
    [
        cfg.clone(),
        cfg.clone().with_executor_threads(1).with_batch_size(1),
        cfg.with_executor_threads(2).with_batch_size(7),
    ]
    .into_iter()
    .map(|c| FleetEngine::new(c).run())
    .collect()
}

/// Asserts every span/metrics reconciliation invariant on one report.
fn assert_reconciles(report: &FleetReport) {
    let (m, total) = (&report.metrics, report.metrics.total());
    let tel = report.telemetry.as_ref().expect("telemetry enabled");
    let spans = &tel.spans;
    assert_eq!(
        spans.len() as u64,
        m.requests,
        "one closed span per request"
    );
    assert_eq!(
        spans.outcome_count(SpanOutcome::EdgeServed),
        total.edge_served
    );
    assert_eq!(
        spans.outcome_count(SpanOutcome::CollabHit),
        total.collab_hits
    );
    assert_eq!(spans.outcome_count(SpanOutcome::Failover), total.failovers);
    assert_eq!(spans.outcome_count(SpanOutcome::Rejected), total.rejected);
    assert_eq!(
        spans.outcome_count(SpanOutcome::LocalFallback) + spans.outcome_count(SpanOutcome::Skipped),
        total.local_fallbacks,
        "rung-3 spans split into degraded runs and skipped rounds"
    );
    assert_eq!(
        spans.outcome_count(SpanOutcome::Skipped),
        m.training_rounds_skipped
    );
    // The latency histograms against the spans as independent truth:
    // per-class counts, exact tick aggregates (in a millisecond
    // histogram one tick is one nanosecond), and nearest-rank quantiles
    // within the 1/64 bound (1e-9 absorbs float rounding).
    for class in WorkloadClass::ALL {
        let spans_of_class = spans.iter().filter(|s| s.class == class.label()).count();
        assert_eq!(
            m.class(class).e2e_latency_ms.count(),
            spans_of_class as u64,
            "{class}: one latency sample per span"
        );
    }
    let mut e2e: Vec<u64> = spans.iter().map(|s| s.e2e().as_nanos()).collect();
    e2e.sort_unstable();
    let h = &total.e2e_latency_ms;
    assert_eq!(h.count(), e2e.len() as u64, "one latency sample per span");
    if let (Some(&min), Some(&max)) = (e2e.first(), e2e.last()) {
        let st = h.state();
        assert_eq!(
            st.sum_ticks,
            e2e.iter().map(|&ns| u128::from(ns)).sum::<u128>()
        );
        assert_eq!((st.min_ticks, st.max_ticks), (min, max));
        for q in [0.50, 0.95, 0.99] {
            let rank = ((q * e2e.len() as f64).ceil() as usize).max(1);
            let exact = e2e[rank - 1] as f64 / 1e6;
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() <= exact / 64.0 + 1e-9,
                "q={q}: histogram {est} ms vs exact nearest-rank {exact} ms"
            );
        }
    }
    // Span timestamps are internally consistent. Note `serve_start`
    // may precede `admitted`: the serving pass runs at the barrier but
    // models lane occupancy starting at arrival + uplink.
    for s in spans.iter() {
        assert!(s.completed >= s.generated, "span ends after it starts");
        if let Some(admitted) = s.admitted {
            assert!(admitted >= s.generated, "admission follows generation");
        }
        if let Some(serve_start) = s.serve_start {
            assert!(serve_start >= s.generated, "lane starts after generation");
            assert!(s.completed >= serve_start, "completion follows lane start");
        }
    }
}

#[test]
fn histograms_reconcile_with_spans_on_pinned_seeds() {
    for seed in [1, 2, 3, 99, 12345] {
        assert_reconciles(&FleetEngine::new(chaos_config(seed)).run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn spans_reconcile_with_metrics_at_every_shard_count(seed in any::<u64>()) {
        let reports = run_layouts(chaos_config(seed));
        for report in &reports {
            assert_reconciles(report);
        }

        // Telemetry must not cost determinism: summaries, span logs and
        // registries are byte-identical in every run layout.
        let base = reports[0].telemetry.as_ref().expect("telemetry enabled");
        for r in &reports[1..] {
            prop_assert_eq!(reports[0].summary(), r.summary());
            let tel = r.telemetry.as_ref().expect("telemetry enabled");
            prop_assert_eq!(base.spans.spans(), tel.spans.spans(), "span logs diverged");
            prop_assert_eq!(&base.registry, &tel.registry, "registries diverged");
        }
    }
}

/// The full interaction surface with the bounded-memory telemetry on:
/// ingest + mobility + a telemetry budget + explicit deterministic
/// sampling, with a regional outage (failovers), a crash of the only
/// XEdge node (rung-3 outcomes) and tight quotas (rejections). The
/// sampled span set, histogram series, and deterministic summary must
/// stay byte-identical in every run layout.
fn sampled_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_telemetry_budget(16 * 1024)
        .with_span_sampling(4);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.edge_nodes = 1;
    cfg.tenant_queue_cap = 2;
    cfg.with_regional_outage(0, SimTime::from_secs(1), SimDuration::from_secs(2))
        .with_edge_node_crash(0, SimTime::from_secs(3), SimDuration::from_secs(3))
        .with_tenant_quota_flap(1, 0.25, SimTime::from_secs(4), SimDuration::from_secs(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn sampled_telemetry_with_budget_is_shard_invariant(seed in any::<u64>()) {
        let reports = run_layouts(sampled_config(seed));
        let base = reports[0].telemetry.as_ref().expect("telemetry enabled");
        for r in &reports[1..] {
            // Sampling and budget enforcement must not cost determinism.
            prop_assert_eq!(reports[0].summary(), r.summary());
            let tel = r.telemetry.as_ref().expect("telemetry enabled");
            prop_assert_eq!(base.spans.spans(), tel.spans.spans(), "sampled span sets diverged");
            // Registry equality covers series and rollup histograms, and
            // the peak byte estimate is layout-invariant because it is
            // count-based.
            prop_assert_eq!(&base.registry, &tel.registry, "registries diverged");
            prop_assert_eq!(base.sampled_out, tel.sampled_out, "sampler drop counts diverged");
            prop_assert_eq!(base.peak_bytes, tel.peak_bytes, "peak byte estimates diverged");
        }
        // The property is vacuous unless the sampler actually dropped
        // OK spans and kept every non-OK span.
        prop_assert!(base.sampled_out > 0, "keep-1-in-4 never sampled anything out");
        prop_assert!(!base.spans.is_empty(), "sampling must not drop everything");
        let (m, total) = (&reports[0].metrics, reports[0].metrics.total());
        prop_assert_eq!(
            base.spans.len() as u64 + base.sampled_out,
            m.requests,
            "kept + sampled-out partitions the request stream"
        );
        // Only OK-path spans are sampled: every other outcome keeps the
        // span of each request its counter counts.
        let spans = &base.spans;
        prop_assert_eq!(spans.outcome_count(SpanOutcome::Rejected), total.rejected);
        prop_assert_eq!(spans.outcome_count(SpanOutcome::Failover), total.failovers);
        prop_assert_eq!(
            spans.outcome_count(SpanOutcome::LocalFallback),
            total.local_fallbacks - m.training_rounds_skipped
        );
        prop_assert_eq!(
            spans.outcome_count(SpanOutcome::Skipped),
            m.training_rounds_skipped
        );
        prop_assert!(
            total.failovers > 0 && total.rejected > 0 && total.local_fallbacks > 0,
            "the chaos must produce failovers, rejections and rung-3 outcomes"
        );
    }
}

#[test]
fn crossed_budget_auto_activates_deterministic_sampling() {
    // No spill, no explicit sampling, and a budget far below what 64
    // vehicles over 8 s produce: the engine's last resort is switching
    // OK-span sampling on retroactively.
    let mut cfg = FleetConfig::sized(64).with_telemetry_budget(4 * 1024);
    cfg.seed = 7;
    cfg.duration = SimDuration::from_secs(8);
    let reports = run_layouts(cfg);
    let one = &reports[0];
    let tel = one.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(
        tel.sample,
        Some(vdap_fleet::BUDGET_AUTO_SAMPLE),
        "budget crossing must auto-activate sampling"
    );
    assert!(tel.rolled, "budget crossing must mark rollup active");
    assert!(
        tel.sampled_out > 0,
        "retroactive sampling must drop OK spans"
    );
    // Auto-activation happens at a barrier from a count-based byte
    // estimate, so the surviving set is the same in every run layout.
    for r in &reports[1..] {
        assert_eq!(one.summary(), r.summary());
        let other = r.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(tel.spans.spans(), other.spans.spans());
        assert_eq!(tel.sampled_out, other.sampled_out);
    }
    // Non-OK spans are never sampled out: every metrics-side failure
    // outcome still has its span.
    let total = one.metrics.total();
    assert_eq!(
        tel.spans.outcome_count(SpanOutcome::Rejected),
        total.rejected
    );
    assert_eq!(
        tel.spans.outcome_count(SpanOutcome::Failover),
        total.failovers
    );
}

#[test]
fn span_spill_streams_every_span_to_parseable_segments() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-spill-test");
    let _ = std::fs::remove_dir_all(&dir);
    // No budget: with a spill dir configured, every barrier flushes —
    // pure streaming export, nothing retained in memory.
    let mut cfg = FleetConfig::sized(64).with_span_spill(&dir);
    cfg.seed = 11;
    cfg.duration = SimDuration::from_secs(8);
    let report = FleetEngine::new(cfg).run();
    let tel = report.telemetry.as_ref().expect("telemetry enabled");
    assert!(
        tel.spans.is_empty(),
        "with spill and no budget, every span streams to disk"
    );
    let spill = tel.spill.as_ref().expect("spill sink present");
    assert_eq!(spill.io_errors(), 0);
    assert_eq!(
        spill.spilled(),
        report.metrics.requests,
        "every request's span reaches disk exactly once"
    );
    let segments = spill.segments();
    assert!(!segments.is_empty());
    let mut lines = 0u64;
    for segment in &segments {
        let text = std::fs::read_to_string(segment).expect("segment readable");
        for line in text.lines() {
            let value: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert!(value.get("vehicle").is_some());
            assert!(value.get("outcome").is_some());
            lines += 1;
        }
    }
    assert_eq!(lines, spill.spilled(), "one JSONL line per spilled span");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_off_means_no_spans_and_an_unchanged_summary() {
    let with = |telemetry: bool| {
        let mut cfg = FleetConfig::sized(64);
        cfg.telemetry = telemetry;
        cfg.duration = SimDuration::from_secs(6);
        FleetEngine::new(cfg).run()
    };
    let off = with(false);
    let on = with(true);
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
    assert_eq!(
        off.summary(),
        on.summary(),
        "telemetry is derived data: enabling it cannot perturb the run"
    );
}

#[test]
fn epoch_series_cover_every_barrier() {
    let mut cfg = FleetConfig::sized(64).with_telemetry();
    cfg.duration = SimDuration::from_secs(6);
    let epochs = cfg.duration.as_nanos().div_ceil(cfg.epoch.as_nanos());
    let report = FleetEngine::new(cfg).run();
    let tel = report.telemetry.expect("telemetry enabled");
    let depth = tel.registry.series("xedge.queue_depth");
    assert_eq!(depth.len() as u64, epochs, "one sample per barrier");
    assert_eq!(depth[0].epoch, 0);
    assert_eq!(depth.last().expect("nonempty").epoch, epochs - 1);
    let served: f64 = tel
        .registry
        .series("fleet.served.detection")
        .iter()
        .map(|p| p.value)
        .sum();
    let total_detection_served: f64 = tel
        .registry
        .series("fleet.served.infotainment")
        .iter()
        .chain(tel.registry.series("fleet.served.pbeam-training"))
        .map(|p| p.value)
        .sum::<f64>()
        + served;
    assert!(
        total_detection_served > 0.0,
        "per-class served series should see traffic"
    );
}

#[test]
fn failover_spans_name_the_region_the_vehicle_was_in() {
    // Under mobility vehicles drive out of their home regions, so only
    // the region read at the tick can explain a failover: every one of
    // them must name the region whose LTE was down.
    let mut cfg = FleetConfig::sized(256)
        .with_mobility()
        .with_telemetry()
        .with_regional_outage(0, SimTime::from_secs(5), SimDuration::from_secs(20));
    cfg.seed = 3;
    cfg.duration = SimDuration::from_secs(30);
    let report = FleetEngine::new(cfg).run();
    let tel = report.telemetry.as_ref().expect("telemetry enabled");
    let failovers: Vec<_> = tel
        .spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Failover)
        .collect();
    assert_eq!(failovers.len() as u64, report.metrics.total().failovers);
    assert!(!failovers.is_empty(), "the outage must cause failovers");
    let elsewhere = failovers.iter().filter(|s| s.region != 0).count();
    assert_eq!(
        elsewhere,
        0,
        "{elsewhere} of {} failover spans name a region other than the outage's",
        failovers.len()
    );
}

/// Ingest, mobility and telemetry under a collector outage, a handoff
/// storm and a node crash: every barrier forks serving, ingest and the
/// track advance, and then records their shared writes (the serving
/// outcomes, the ingest series, the crossing fold) after the join.
fn forked_barrier_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(128)
        .with_ingest()
        .with_mobility()
        .with_telemetry();
    cfg.seed = 11;
    cfg.duration = SimDuration::from_secs(10);
    cfg.edge_nodes = 2;
    cfg.with_collector_outage(1, SimTime::from_secs(2), SimDuration::from_secs(4))
        .with_handoff_storm(2, SimTime::from_secs(3), SimDuration::from_secs(4))
        .with_edge_node_crash(0, SimTime::from_secs(4), SimDuration::from_secs(3))
}

#[test]
fn the_forked_barrier_defers_every_shared_write_in_order() {
    let cfg = forked_barrier_config();
    let epochs = cfg.duration.as_nanos().div_ceil(cfg.epoch.as_nanos());
    let regions = cfg.regions;
    let reports = run_layouts(cfg);
    let base = &reports[0];
    let tel = base.telemetry.as_ref().expect("telemetry enabled");
    let (ing, mob) = (
        base.ingest.as_ref().expect("ingest ledger"),
        base.mobility.as_ref().expect("mobility ledger"),
    );
    assert!(
        ing.outage_bounces > 0,
        "the collector outage bounced uploads"
    );
    assert!(mob.storm_crossings > 0, "crossings paid the storm");
    assert!(
        mob.readdressed_batches > 0,
        "the fold moved in-flight batches"
    );

    // Each deferred series holds one point per barrier, in epoch order.
    let deferred: Vec<_> = tel
        .registry
        .all_series()
        .filter(|(name, _)| name.starts_with("ingest.") || name.starts_with("mobility."))
        .collect();
    assert_eq!(deferred.len(), 5, "three ingest and two mobility series");
    for (name, points) in deferred {
        let order: Vec<u64> = points.iter().map(|p| p.epoch).collect();
        assert_eq!(order, (0..epochs).collect::<Vec<_>>(), "{name}");
    }
    let crossings: f64 = tel
        .registry
        .series("mobility.crossings")
        .iter()
        .map(|p| p.value)
        .sum();
    assert_eq!(crossings, mob.crossings as f64);

    // The buffered handoff costs reach the reliability ledger once each.
    let charged: f64 = (0..regions)
        .map(|r| {
            base.reliability
                .degraded_time(&vdap_fleet::handoff_label(r))
                .as_secs_f64()
        })
        .sum();
    assert!(
        (charged - mob.handoff_seconds).abs() < 1e-6,
        "reliability ledger {charged} vs mobility ledger {}",
        mob.handoff_seconds
    );

    for r in &reports[1..] {
        assert_eq!(base.summary(), r.summary());
        let other = r.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(tel.spans.spans(), other.spans.spans(), "span logs diverged");
        assert_eq!(&tel.registry, &other.registry, "registries diverged");
    }
}
