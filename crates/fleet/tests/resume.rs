//! Crash–resume determinism: a supervised run that dies at an epoch
//! barrier and resumes from a durable snapshot must reproduce the
//! straight run's report byte-for-byte — through snapshot-store chaos
//! (torn writes, bit rot) and even when the restoring engine uses a
//! different executor width and batch size than the writer. A snapshot
//! whose checksum matches but whose vehicles are impossible is refused.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde_json::Value;
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, Snapshot, SnapshotStore};
use vdap_sim::{SimDuration, SimTime};

/// The full-stack scenario: ingest + mobility + telemetry, snapshots
/// every 4 epochs (the 8 s run has 16), keep-last-3 retention.
fn full_stack_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_telemetry();
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 3)
}

/// `cfg` under the default run layout, one worker with single-vehicle
/// batches, and two workers with an odd batch size.
fn layouts(cfg: FleetConfig) -> [FleetConfig; 3] {
    [
        cfg.clone(),
        cfg.clone().with_executor_threads(1).with_batch_size(1),
        cfg.with_executor_threads(2).with_batch_size(7),
    ]
}

/// Straight run vs. supervised crash-at-`epoch` run, on every report
/// surface that must be deterministic.
fn assert_reports_identical(straight: &FleetReport, resumed: &FleetReport) {
    assert_eq!(straight.summary(), resumed.summary());
    assert_eq!(straight.metrics, resumed.metrics);
    assert_eq!(straight.reliability, resumed.reliability);
    assert_eq!(straight.region_availability, resumed.region_availability);
    assert_eq!(straight.events_processed, resumed.events_processed);
    assert_eq!(straight.ingest, resumed.ingest);
    assert_eq!(straight.mobility, resumed.mobility);
    assert_eq!(straight.region_admission, resumed.region_admission);
    let (s, r) = (
        straight.telemetry.as_ref().expect("telemetry on"),
        resumed.telemetry.as_ref().expect("telemetry on"),
    );
    assert_eq!(s.spans.spans(), r.spans.spans());
    assert_eq!(
        s.registry.counters().collect::<Vec<_>>(),
        r.registry.counters().collect::<Vec<_>>()
    );
    assert_eq!(
        s.registry.gauges().collect::<Vec<_>>(),
        r.registry.gauges().collect::<Vec<_>>()
    );
    assert_eq!(
        s.registry.all_series().collect::<Vec<_>>(),
        r.registry.all_series().collect::<Vec<_>>()
    );
}

#[test]
fn supervised_crash_resume_is_byte_identical_at_every_shard_count() {
    for cfg in layouts(full_stack_config(11).with_engine_crash(10, SimDuration::from_secs(1))) {
        let layout = (cfg.executor_threads, cfg.batch_size);
        // run() ignores crash faults (they are still preambled into the
        // availability ledger), so it is the deterministic baseline.
        let straight = FleetEngine::new(cfg.clone()).run();
        let mut store = SnapshotStore::in_memory();
        let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
        assert_reports_identical(&straight, &resumed);
        // The crash really happened and really resumed …
        assert_eq!(resumed.snapshots.resumes, 1, "layout {layout:?}");
        assert!(
            !resumed.snapshots.writes.is_empty(),
            "no snapshot written in layout {layout:?}"
        );
        // … and the scripted downtime is on the availability ledger of
        // both runs (the resume window flows into MTTR either way).
        assert!(
            resumed
                .region_availability
                .iter()
                .any(|(component, _)| component == "engine"),
            "engine downtime missing from the ledger"
        );
        // The snapshot diagnostics surface in diagnostics(), not in the
        // deterministic summary.
        assert!(resumed.diagnostics().contains("snapshots:"));
        assert!(!resumed.summary().contains("snapshots:"));
    }
}

#[test]
fn double_crash_resumes_twice() {
    let cfg = full_stack_config(23)
        .with_engine_crash(6, SimDuration::from_millis(500))
        .with_engine_crash(13, SimDuration::from_millis(500));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 2);
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn torn_write_on_newest_snapshot_falls_back_one_generation() {
    // Writes land at epochs 4, 8, 12 (sim times 2 s, 4 s, 6 s). The
    // torn-write window covers the epoch-8 write, so the crash at
    // epoch 10 must fall back to generation 4.
    let cfg = full_stack_config(5)
        .with_engine_crash(10, SimDuration::from_secs(1))
        .with_snapshot_torn_write(SimTime::from_secs(4), SimDuration::from_millis(100));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert!(
        resumed.snapshots.rejected_generations.contains(&8),
        "torn generation 8 was not rejected: {:?}",
        resumed.snapshots.rejected_generations
    );
    let diag = resumed.diagnostics();
    assert!(diag.contains("torn-write injected"), "diagnostics: {diag}");
    assert!(diag.contains("rejected gen 8"), "diagnostics: {diag}");
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn corrupted_snapshot_is_rejected_by_checksum() {
    let cfg = full_stack_config(7)
        .with_engine_crash(10, SimDuration::from_secs(1))
        .with_snapshot_corruption(SimTime::from_secs(4), SimDuration::from_millis(100));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert!(resumed.snapshots.rejected_generations.contains(&8));
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn all_snapshots_corrupt_restarts_from_scratch() {
    // Corruption covers the whole run: every write is damaged, so the
    // supervisor finds no valid generation and replays from epoch 0.
    let cfg = full_stack_config(3)
        .with_engine_crash(10, SimDuration::from_secs(1))
        .with_snapshot_corruption(SimTime::ZERO, SimDuration::from_secs(8));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert!(resumed.snapshots.rejected_generations.contains(&4));
    assert!(resumed.snapshots.rejected_generations.contains(&8));
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn crash_resume_round_trips_budget_sampling_and_histogram_state() {
    // 100 ms epochs over 8 s → 80 epochs, so the series retention
    // window (64) is crossed and rollup folds points into streaming
    // histograms before the crash at epoch 70; the tiny budget with no
    // spill and no explicit sampling also auto-activates OK-span
    // sampling. The snapshot at epoch 68 therefore carries every piece
    // of new sink state: histograms, the auto-activated sample rate,
    // the sampled-out count, and the rolled flag.
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_telemetry_budget(4 * 1024);
    cfg.seed = 23;
    cfg.duration = SimDuration::from_secs(8);
    cfg.epoch = SimDuration::from_millis(100);
    let cfg = cfg
        .with_checkpoint(4, 3)
        .with_engine_crash(70, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert_eq!(straight.summary(), resumed.summary());
    let (s, r) = (
        straight.telemetry.as_ref().expect("telemetry on"),
        resumed.telemetry.as_ref().expect("telemetry on"),
    );
    // The run must actually have exercised the new machinery …
    assert_eq!(s.sample, Some(vdap_fleet::BUDGET_AUTO_SAMPLE));
    assert!(s.rolled);
    assert!(s.sampled_out > 0);
    assert!(
        s.registry.all_histograms().count() > 0,
        "rollup must have produced histograms before the crash"
    );
    // … and the resumed run must reproduce all of it exactly.
    assert_eq!(s.spans.spans(), r.spans.spans());
    assert_eq!(s.sample, r.sample);
    assert_eq!(s.sampled_out, r.sampled_out);
    assert_eq!(s.rolled, r.rolled);
    assert_eq!(&s.registry, &r.registry);
}

#[test]
fn supervised_without_checkpoint_config_replays_from_scratch() {
    // No checkpoint config: the supervisor has nothing to restore from,
    // so a crash costs a full replay — and nothing else.
    let mut cfg = FleetConfig::sized(64).with_ingest().with_telemetry();
    cfg.duration = SimDuration::from_secs(8);
    let cfg = cfg.with_engine_crash(10, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert!(resumed.snapshots.writes.is_empty());
    assert_eq!(resumed.snapshots.resumes, 1);
    assert_eq!(straight.summary(), resumed.summary());
}

/// Takes the newest snapshot a supervised run under the `from` layout
/// left behind, restores it under the `to` layout, and checks the
/// finished report against the straight `to` run.
fn cross_layout_restore(from: FleetConfig, to: FleetConfig) {
    let mut store = SnapshotStore::in_memory();
    let writer = FleetEngine::new(from).run_supervised(&mut store);
    assert!(!writer.snapshots.writes.is_empty());
    let (snap, rejected) = store.newest_valid();
    let snap = snap.expect("a clean run leaves valid snapshots");
    assert!(rejected.is_empty());

    let straight = FleetEngine::new(to.clone()).run();
    let resumed = FleetEngine::new(to)
        .restore(&snap)
        .expect("snapshot restores across run layouts");
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn snapshot_written_by_8_shards_restores_into_1() {
    let [_, serial, wide] = layouts(full_stack_config(41));
    cross_layout_restore(wide, serial);
}

#[test]
fn snapshot_written_by_1_shard_restores_into_8() {
    let [_, serial, wide] = layouts(full_stack_config(41));
    cross_layout_restore(serial, wide);
}

#[test]
fn restore_rejects_foreign_fingerprint() {
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(full_stack_config(41)).run_supervised(&mut store);
    let (snap, _) = store.newest_valid();
    let snap = snap.expect("valid snapshot");
    // Same shape, different seed: the fingerprint must refuse it.
    let err = FleetEngine::new(full_stack_config(42))
        .restore(&snap)
        .expect_err("foreign seed must be rejected");
    assert!(err.to_string().contains("config mismatch"), "got: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn crash_resume_is_byte_identical_for_any_seed(seed in any::<u64>()) {
        // The flagship property in every run layout: kill at epoch 10,
        // resume from the epoch-8 snapshot, finish — the summary, the
        // ledgers and the telemetry all replay byte-for-byte.
        let crashing = full_stack_config(seed).with_engine_crash(10, SimDuration::from_secs(1));
        for cfg in layouts(crashing) {
            let layout = (cfg.executor_threads, cfg.batch_size);
            let straight = FleetEngine::new(cfg.clone()).run();
            let mut store = SnapshotStore::in_memory();
            let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
            prop_assert_eq!(resumed.snapshots.resumes, 1);
            prop_assert_eq!(straight.summary(), resumed.summary(), "layout {:?} diverged", layout);
            prop_assert_eq!(&straight.metrics, &resumed.metrics);
            prop_assert_eq!(&straight.reliability, &resumed.reliability);
            prop_assert_eq!(&straight.ingest, &resumed.ingest);
            prop_assert_eq!(&straight.mobility, &resumed.mobility);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn crash_resume_under_stealing_matches_serial_run(seed in any::<u64>()) {
        // Crash-at-barrier resume with the work-stealing executor in
        // its most schedule-dependent configuration: machine-wide
        // worker count and single-vehicle batches, so almost every
        // task is eligible for stealing on both the pre-crash and the
        // resumed leg. The baseline is the fully serial engine — one
        // worker, whole-fleet batches, no supervisor — and every
        // deterministic surface must still match byte-for-byte.
        let hw = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get) as u32;
        let serial = {
            let cfg = full_stack_config(seed)
                .with_engine_crash(10, SimDuration::from_secs(1))
                .with_executor_threads(1)
                .with_batch_size(64);
            FleetEngine::new(cfg).run()
        };
        let cfg = full_stack_config(seed)
            .with_engine_crash(10, SimDuration::from_secs(1))
            .with_executor_threads(hw)
            .with_batch_size(1);
        let mut store = SnapshotStore::in_memory();
        let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
        prop_assert_eq!(resumed.snapshots.resumes, 1);
        prop_assert_eq!(serial.summary(), resumed.summary());
        prop_assert_eq!(&serial.metrics, &resumed.metrics);
        prop_assert_eq!(&serial.reliability, &resumed.reliability);
        prop_assert_eq!(&serial.ingest, &resumed.ingest);
        prop_assert_eq!(&serial.mobility, &resumed.mobility);
        prop_assert_eq!(&serial.region_admission, &resumed.region_admission);
    }
}

/// `snap` with one field of the vehicle in `slot` replaced, re-encoded
/// with a valid checksum and decoded again: a well-formed write of an
/// impossible state.
fn with_vehicle_field(snap: &Snapshot, slot: usize, key: &str, value: Value) -> Snapshot {
    let mut payload = snap.payload.clone();
    let Value::Object(fields) = &mut payload else {
        panic!("payload is an object");
    };
    let Some(Value::Array(vehicles)) = fields.get_mut("vehicles") else {
        panic!("payload lists vehicles");
    };
    let Value::Object(vehicle) = &mut vehicles[slot] else {
        panic!("vehicle is an object");
    };
    vehicle.insert(key.to_string(), value);
    Snapshot::decode(&Snapshot::new(snap.generation, payload).encode())
        .expect("a re-encoded snapshot carries a valid checksum")
}

#[test]
fn restore_rejects_impossible_vehicles_with_a_valid_checksum() {
    // Without mobility a vehicle must be in its home region; with it, in
    // its route track's region.
    let stationary = {
        let mut cfg = FleetConfig::sized(64).with_ingest();
        cfg.seed = 3;
        cfg.duration = SimDuration::from_secs(8);
        cfg.with_checkpoint(4, 3)
    };
    for cfg in [stationary, full_stack_config(41)] {
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
        let snap = store.newest_valid().0.expect("valid snapshot");
        let engine = FleetEngine::new(cfg.clone());
        let region = snap
            .payload
            .get("vehicles")
            .and_then(Value::as_array)
            .expect("vehicles")[4]
            .get("region")
            .and_then(Value::as_u64)
            .expect("region") as u32;
        // Rewriting a field with its own value keeps the snapshot valid.
        let same = with_vehicle_field(&snap, 4, "region", Value::from(region));
        assert!(engine.restore(&same).is_ok());

        let hex = |ns: u64| Value::from(format!("{ns:x}"));
        let barrier = snap.generation * cfg.epoch.as_nanos();
        let horizon = cfg.horizon().as_nanos();
        for (key, value) in [
            ("id", Value::from(3u32)),
            ("tenant", Value::from(999u32)),
            ("tenant", Value::from(cfg.tenant_of(5))),
            ("region", Value::from(999u32)),
            ("region", Value::from((region + 1) % cfg.regions)),
            ("next_tick", hex(1)),
            ("next_tick", hex(barrier)),
            ("next_tick", hex(horizon + 1)),
            ("next_ingest", hex(1)),
        ] {
            let tampered = with_vehicle_field(&snap, 4, key, value.clone());
            let err = engine
                .restore(&tampered)
                .expect_err("an impossible vehicle must be refused");
            assert!(
                err.to_string().contains("vehicle slot 4"),
                "{key} = {value}: {err}"
            );
        }
    }
}

/// One real encoded snapshot plus the summary its clean restore yields,
/// computed once for the tamper property below.
fn reference_snapshot() -> &'static (String, String) {
    static REF: OnceLock<(String, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(full_stack_config(41)).run_supervised(&mut store);
        let generation = *store.generations().last().expect("snapshots written");
        let encoded = store.get(generation).expect("newest generation present");
        let snap = Snapshot::decode(&encoded).expect("clean snapshot decodes");
        let summary = FleetEngine::new(full_stack_config(41))
            .restore(&snap)
            .expect("clean snapshot restores")
            .summary();
        (encoded, summary)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn encoded_snapshot_round_trips(extra_decode in 0usize..3) {
        // decode → encode → decode is the identity on a real snapshot.
        let (encoded, _) = reference_snapshot();
        let mut text = encoded.clone();
        for _ in 0..=extra_decode {
            let snap = Snapshot::decode(&text).expect("round trip stays valid");
            text = snap.encode();
        }
        prop_assert_eq!(&text, encoded);
    }

    #[test]
    fn corrupting_any_single_byte_never_silently_resumes_wrong(
        pos in any::<usize>(),
        mask in 1u8..0x80,
    ) {
        // Flip one byte anywhere in a real encoded snapshot (the text
        // is ASCII, so the XOR keeps it valid UTF-8). Whatever happens
        // next — decode failure, restore failure, or (if the damage is
        // somehow survivable) a successful resume — the one forbidden
        // outcome is a *silently different* resumed run.
        let (encoded, expected_summary) = reference_snapshot();
        let mut bytes = encoded.clone().into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= mask;
        let tampered = String::from_utf8(bytes).expect("ascii stays utf-8");
        if let Ok(snap) = Snapshot::decode(&tampered) {
            if let Ok(report) = FleetEngine::new(full_stack_config(41)).restore(&snap) {
                prop_assert_eq!(&report.summary(), expected_summary);
            }
        }
    }
}
