//! Byte-identity pins for every serialized artifact: snapshot texts,
//! JSONL spill segments, `spans.jsonl` and the Chrome trace.
//!
//! The FNV-1a 64 values below were captured from the `Value`-tree
//! encoders that preceded the streaming writer. Any change to a key
//! order, a number format or the envelope layout moves one of them, so
//! an encoder rewrite that passes here writes the same bytes as before.

use vdap_ckpt::fnv1a64;
use vdap_fleet::{FleetConfig, FleetEngine, SnapshotStore};
use vdap_sim::{SimDuration, SimTime};

/// `(generation, FNV-1a of the stored text)` for every snapshot of the
/// supervised run, the torn generation 8 included.
const SNAPSHOT_PINS: [(u64, u64); 3] = [
    (4, 0xe5ff_5f81_f89f_2bad),
    (8, 0x11a9_e252_7aca_9520),
    (12, 0x1d2e_854e_5bfd_8f0b),
];

/// The same for the budgeted run: elastic lanes, a regional outage,
/// series rollup into histograms and spill counters in the payload.
const BUDGET_SNAPSHOT_PINS: [(u64, u64); 4] = [
    (17, 0xd7f8_d0b0_e54f_d5d6),
    (34, 0x5c06_63f8_7f1d_85f0),
    (51, 0x2263_c526_a47c_3610),
    (68, 0xd8e3_41dd_6fa0_da2c),
];

/// FNV-1a of each spill segment of the spill run, in segment order.
const SPILL_PINS: [u64; 1] = [0x09e8_9c96_ae2f_4333];

/// FNV-1a of `spans_jsonl` and of the Chrome trace text of the
/// supervised run's telemetry.
const SPANS_JSONL_PIN: u64 = 0xc457_6e06_8745_bd71;
const CHROME_TRACE_PIN: u64 = 0xed12_b036_805c_ef5d;

/// Full stack (ingest + mobility + telemetry) at 64 vehicles: snapshots
/// every 4 epochs with every generation retained, a torn write on the
/// epoch-8 snapshot and a crash at epoch 10 that resumes from epoch 4.
fn supervised_config() -> FleetConfig {
    let mut cfg = FleetConfig::sized(64, 2)
        .with_ingest()
        .with_mobility()
        .with_telemetry();
    cfg.seed = 5;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 16)
        .with_snapshot_torn_write(SimTime::from_secs(4), SimDuration::from_millis(100))
        .with_engine_crash(10, SimDuration::from_secs(1))
}

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
}

/// 100 ms epochs over 8 s cross the 64-point series retention, so the
/// snapshots after epoch 64 carry rolled-up histograms; the budget also
/// auto-activates sampling.
fn budget_config(spill: &std::path::Path) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64, 2)
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
}

#[test]
fn spill_segments_are_byte_identical() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-spill-pins");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FleetConfig::sized(64, 2).with_span_spill(&dir);
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
