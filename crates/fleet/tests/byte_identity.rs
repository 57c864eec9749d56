//! Byte-identity pins for every serialized artifact: snapshot texts,
//! JSONL spill segments, `spans.jsonl` and the Chrome trace, plus the
//! summaries of a run whose ingest backlog is never empty, of three
//! runs whose reliability ledger records repairs and failovers, of a
//! run whose edge node crashes under an XEdge backlog, and of a run
//! whose edge node crash-loops.
//!
//! Any change to a key order, a number format or the envelope layout
//! moves one of the FNV-1a 64 values below, so an encoder rewrite that
//! passes here writes the same bytes as before.

use vdap_ckpt::fnv1a64;
use vdap_fault::{FaultKind, FaultPlan, FaultSpec};
use vdap_fleet::{edge_node_label, FleetConfig, FleetEngine, SnapshotStore};
use vdap_sim::{SimDuration, SimTime};

/// `(generation, FNV-1a of the stored text)` for every snapshot of the
/// supervised run, the torn generation 8 included.
const SNAPSHOT_PINS: [(u64, u64); 3] = [
    (4, 0x324d_5e94_7acc_188e),
    (8, 0x372a_6563_df4c_667c),
    (12, 0xf643_e5e2_b4a7_dc5a),
];

/// The same for the budgeted run: elastic lanes, a regional outage,
/// series rollup into histograms and spill counters in the payload.
const BUDGET_SNAPSHOT_PINS: [(u64, u64); 4] = [
    (17, 0x4ba8_aca7_0d0f_9b5b),
    (34, 0xeff4_add9_66ad_9e66),
    (51, 0xd49a_a6c9_9c49_c7dd),
    (68, 0xf190_6ef7_e9a0_023e),
];

/// FNV-1a of each spill segment of the spill run, in segment order.
const SPILL_PINS: [u64; 1] = [0xef61_3c68_7b39_5099];

/// FNV-1a of `spans_jsonl` and of the Chrome trace text of the
/// supervised run's telemetry.
const SPANS_JSONL_PIN: u64 = 0x0f65_83e7_f98c_d92c;
const CHROME_TRACE_PIN: u64 = 0xca2e_4576_beab_9e14;

/// Full stack (ingest + mobility + telemetry) at 64 vehicles: snapshots
/// every 4 epochs with every generation retained, a torn write on the
/// epoch-8 snapshot and a crash at epoch 10 that resumes from epoch 4.
fn supervised_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_telemetry();
    cfg.seed = 5;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 16)
        .with_snapshot_torn_write(SimTime::from_secs(4), SimDuration::from_millis(100))
        .with_engine_crash(10, SimDuration::from_secs(1))
}

/// FNV-1a of `summary()` for the supervised run, the budgeted run and
/// the chaos run: the only pins on the ledger's printed MTTR and
/// failover means.
const SUPERVISED_SUMMARY_PIN: u64 = 0x227e_057b_acb8_ad06;
const BUDGET_SUMMARY_PIN: u64 = 0x6d31_d708_7eca_6f1e;
const CHAOS_SUMMARY_PIN: u64 = 0x6b03_3147_475d_414b;

#[test]
fn snapshot_texts_and_span_exports_are_byte_identical() {
    let mut store = SnapshotStore::in_memory();
    let report = FleetEngine::new(supervised_config()).run_supervised(&mut store);
    assert_eq!(report.snapshots.resumes, 1);
    assert!(report.snapshots.rejected_generations.contains(&8));
    let got: Vec<(u64, u64)> = store
        .generations()
        .into_iter()
        .map(|g| (g, fnv1a64(store.get(g).expect("stored").as_bytes())))
        .collect();
    let tel = report.telemetry.as_ref().expect("telemetry on");
    let jsonl = fnv1a64(vdap_obs::spans_jsonl(&tel.spans).as_bytes());
    let trace = fnv1a64(
        serde_json::to_string(&vdap_obs::chrome_trace(&tel.spans, &tel.registry))
            .expect("serialize")
            .as_bytes(),
    );
    assert_eq!(got, SNAPSHOT_PINS);
    assert_eq!(jsonl, SPANS_JSONL_PIN);
    assert_eq!(trace, CHROME_TRACE_PIN);
    assert!(report.summary().contains("mttr_ms_mean=550.000"));
    assert_eq!(fnv1a64(report.summary().as_bytes()), SUPERVISED_SUMMARY_PIN);
}

/// 100 ms epochs over 8 s cross the 64-point series retention, so the
/// snapshots after epoch 64 carry rolled-up histograms; the budget also
/// auto-activates sampling.
fn budget_config(spill: &std::path::Path) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_elastic_capacity()
        .with_telemetry_budget(4 * 1024)
        .with_span_spill(spill)
        .with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(3));
    cfg.seed = 23;
    cfg.duration = SimDuration::from_secs(8);
    cfg.epoch = SimDuration::from_millis(100);
    cfg.with_checkpoint(17, 16)
}

#[test]
fn budgeted_snapshot_texts_are_byte_identical() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-budget-pins");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::in_memory();
    let report = FleetEngine::new(budget_config(&dir)).run_supervised(&mut store);
    let _ = std::fs::remove_dir_all(&dir);
    let tel = report.telemetry.as_ref().expect("telemetry on");
    assert!(tel.rolled && tel.registry.all_histograms().count() > 0);
    let got: Vec<(u64, u64)> = store
        .generations()
        .into_iter()
        .map(|g| (g, fnv1a64(store.get(g).expect("stored").as_bytes())))
        .collect();
    assert_eq!(got, BUDGET_SNAPSHOT_PINS);
    assert!(report.reliability.failover_latency().count() > 0);
    assert!(report.reliability.mttr().count() > 0);
    assert_eq!(fnv1a64(report.summary().as_bytes()), BUDGET_SUMMARY_PIN);
}

/// `(generation, FNV-1a of the stored text)` for every snapshot of the
/// backlogged run, and the FNV-1a of its summary.
const BACKLOG_SNAPSHOT_PINS: [(u64, u64); 3] = [
    (4, 0x5e07_31f1_96d6_ffbd),
    (8, 0xa9bf_0d1f_e181_35b3),
    (12, 0x478d_9357_b834_522b),
];
const BACKLOG_SUMMARY_PIN: u64 = 0xcb10_ab25_8de2_2d84;

/// Ingest + mobility at 256 vehicles with a slow storage tier and short
/// collector queues: every snapshot carries pending retries, cached
/// deferrals and queued batches (gen 12: 508 pending, 63 cached, about
/// 20 queued per collector), and crossing vehicles re-address them.
fn backlog_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(256).with_ingest().with_mobility();
    {
        let ing = cfg.ingest.as_mut().expect("ingest on");
        ing.storage_records_per_sec = 200.0;
        ing.collector_queue_records = 480;
    }
    cfg.seed = 41;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 16)
}

#[test]
fn backlogged_snapshot_texts_and_summary_are_byte_identical() {
    let mut store = SnapshotStore::in_memory();
    let report = FleetEngine::new(backlog_config()).run_supervised(&mut store);
    let mobility = report.mobility.as_ref().expect("mobility on");
    let ingest = report.ingest.as_ref().expect("ingest on");
    assert!(mobility.readdressed_batches > 0, "crossings move batches");
    assert!(ingest.deferrals > 0, "the ladder parks batches in caches");
    let got: Vec<(u64, u64)> = store
        .generations()
        .into_iter()
        .map(|g| (g, fnv1a64(store.get(g).expect("stored").as_bytes())))
        .collect();
    let summary = fnv1a64(report.summary().as_bytes());
    assert_eq!(got, BACKLOG_SNAPSHOT_PINS);
    assert_eq!(summary, BACKLOG_SUMMARY_PIN);
}

#[test]
fn spill_segments_are_byte_identical() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-spill-pins");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FleetConfig::sized(64).with_span_spill(&dir);
    cfg.seed = 11;
    cfg.duration = SimDuration::from_secs(8);
    let report = FleetEngine::new(cfg).run();
    let spill = report
        .telemetry
        .as_ref()
        .and_then(|t| t.spill.as_ref())
        .expect("spill sink present");
    let got: Vec<u64> = spill
        .segments()
        .iter()
        .map(|p| fnv1a64(&std::fs::read(p).expect("segment readable")))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, SPILL_PINS);
}

/// E15's fault mix on a mobile fleet: a node crash, a tenant quota
/// flap, a handoff storm and a regional outage, so the summary prints
/// non-zero fault, failover and MTTR figures.
fn chaos_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(256)
        .with_mobility()
        .with_edge_node_crash(0, SimTime::from_secs(3), SimDuration::from_secs(4))
        .with_tenant_quota_flap(1, 0.25, SimTime::from_secs(2), SimDuration::from_secs(3))
        .with_handoff_storm(1, SimTime::from_secs(1), SimDuration::from_secs(2))
        .with_regional_outage(2, SimTime::from_secs(5), SimDuration::from_secs(2));
    cfg.seed = 5;
    cfg.duration = SimDuration::from_secs(10);
    cfg
}

#[test]
fn chaos_summary_is_byte_identical() {
    let summary = FleetEngine::new(chaos_config()).run().summary();
    assert!(
        summary.contains("faults=7 failovers=83 failover_ms_mean=10.869 mttr_ms_mean=3571.429"),
        "{summary}"
    );
    assert_eq!(fnv1a64(summary.as_bytes()), CHAOS_SUMMARY_PIN);
}

/// FNV-1a of `summary()` for the crash-under-backlog run.
const CRASH_BACKLOG_SUMMARY_PIN: u64 = 0xa9c2_d29b_2fa3_1d96;

/// Elastic lanes at 2,000 vehicles with edge node 1 down from 4 s to
/// 7 s: the crash strips in-flight work off a backlogged node, and the
/// 10.3 s horizon falls between epoch multiples, so the last barrier
/// completes only part of an epoch's in-flight work before the drain.
fn crash_backlog_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(2000)
        .with_elastic_capacity()
        .with_edge_node_crash(1, SimTime::from_secs(4), SimDuration::from_secs(3));
    cfg.seed = 23;
    cfg.duration = SimDuration::from_millis(10_300);
    cfg
}

#[test]
fn crash_under_backlog_summary_is_byte_identical() {
    let cfg = crash_backlog_config();
    assert!(!cfg.duration.as_nanos().is_multiple_of(cfg.epoch.as_nanos()));
    let report = FleetEngine::new(cfg.clone()).run();
    assert!(report.metrics.requeued > 0, "the crash strips work");
    let summary = report.summary();
    let narrow = FleetEngine::new(cfg.with_executor_threads(1).with_batch_size(7)).run();
    assert_eq!(summary, narrow.summary());
    assert_eq!(fnv1a64(summary.as_bytes()), CRASH_BACKLOG_SUMMARY_PIN);
}

/// FNV-1a of `summary()` for the crash-loop run.
const CRASH_LOOP_SUMMARY_PIN: u64 = 0xa737_6cad_2991_4e23;

/// 256 vehicles with ingest, mobility and telemetry whose edge node 0
/// is down for 1.5 s every 3 s from 2 s. Its fourth crash inside 30 s,
/// at the 11 s barrier, breaks the node's crash-loop policy, and the
/// node stays down from there to the horizon.
fn crash_loop_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(256)
        .with_ingest()
        .with_mobility()
        .with_telemetry();
    cfg.seed = 3;
    cfg.duration = SimDuration::from_secs(30);
    let crash = FaultSpec::new(
        FaultKind::EdgeNodeCrash,
        edge_node_label(0),
        SimTime::from_secs(2),
        SimDuration::from_millis(1500),
    )
    .recurring_every(SimDuration::from_secs(3));
    let plan = FaultPlan::new(cfg.duration).with_fault(crash);
    cfg.with_fault_plan(plan)
}

#[test]
fn crash_loop_summary_is_byte_identical() {
    let cfg = crash_loop_config();
    let summary = FleetEngine::new(cfg.clone()).run().summary();
    // Down 4.5 s in three repaired crashes, then for good from 11 s:
    // 23.5 s of 30. Every tenant shares the node pool.
    assert!(
        summary.contains("availability[xedge/node0]=0.216667"),
        "{summary}"
    );
    let narrow = FleetEngine::new(cfg.clone().with_executor_threads(1).with_batch_size(7)).run();
    assert_eq!(summary, narrow.summary());
    assert_eq!(
        fnv1a64(summary.as_bytes()),
        CRASH_LOOP_SUMMARY_PIN,
        "{summary}"
    );

    // A crash at epoch 40, after the loop, resumes from the snapshot of
    // its own barrier and reaches the straight run's summary.
    let supervised = cfg
        .with_checkpoint(8, 16)
        .with_engine_crash(40, SimDuration::from_millis(750));
    let straight = FleetEngine::new(supervised.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(supervised).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    let written: Vec<u64> = resumed
        .snapshots
        .writes
        .iter()
        .map(|w| w.generation)
        .collect();
    assert_eq!(written, [8, 16, 24, 32, 40, 48, 56], "resumed from 40");
    assert_eq!(resumed.summary(), straight.summary());
}
