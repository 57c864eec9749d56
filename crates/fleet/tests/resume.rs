//! Crash–resume determinism: a supervised run that dies at an epoch
//! barrier and resumes from a durable snapshot must reproduce the
//! straight run's report byte-for-byte — through snapshot-store chaos
//! (torn writes, bit rot) and even when the restoring engine uses a
//! different executor width and batch size than the writer. A snapshot
//! whose checksum matches but whose vehicles, histograms, ingest
//! backlog, XEdge or mobility state, ledgers or series names are
//! impossible is refused.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde_json::Value;
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, Snapshot, SnapshotStore, WorkloadClass};
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

/// The full stack with span spill at seed 5: snapshots every 4 epochs,
/// every generation retained.
fn spill_config(dir: &std::path::Path) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_telemetry()
        .with_span_spill(dir);
    cfg.seed = 5;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 16)
}

/// The bytes of every spill segment a run left behind, in order, and
/// the spans the run reports spilled.
fn spilled_segments(dir: &std::path::Path, report: &FleetReport) -> (Vec<Vec<u8>>, u64) {
    let spill = report
        .telemetry
        .as_ref()
        .and_then(|t| t.spill.as_ref())
        .expect("spill sink present");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("spill dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    assert_eq!(names, spill.segments(), "no segment outside the stream");
    let segments = names
        .iter()
        .map(|p| std::fs::read(p).expect("segment readable"))
        .collect();
    (segments, spill.spilled())
}

#[test]
fn crash_resume_leaves_the_straight_runs_spill_segments() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-resume-spill");
    let _ = std::fs::remove_dir_all(&root);
    let run = |name: &str, cfg: fn(&std::path::Path) -> FleetConfig| {
        let dir = root.join(name);
        let mut store = SnapshotStore::in_memory();
        let report = FleetEngine::new(cfg(&dir)).run_supervised(&mut store);
        (report.snapshots.clone(), spilled_segments(&dir, &report))
    };
    let (_, straight) = run("straight", spill_config);
    // The epoch-8 snapshot is torn, so the crash at epoch 10 resumes
    // from generation 4 and rewrites six epochs of spans.
    let (resumed, crashed) = run("crashed", |dir| {
        spill_config(dir)
            .with_snapshot_torn_write(SimTime::from_secs(4), SimDuration::from_millis(100))
            .with_engine_crash(10, SimDuration::from_secs(1))
    });
    assert_eq!(resumed.resumes, 1);
    assert_eq!(
        resumed.rejected_generations,
        [8],
        "resumed from generation 4"
    );
    // Every generation torn: the supervisor restarts from scratch over
    // the segments the first leg wrote.
    let (restarted, scratch) = run("scratch", |dir| {
        spill_config(dir)
            .with_snapshot_torn_write(SimTime::ZERO, SimDuration::from_secs(8))
            .with_engine_crash(10, SimDuration::from_secs(1))
    });
    assert_eq!(restarted.resumes, 1);
    assert!(restarted.load_ms.is_none(), "restarted from scratch");
    let _ = std::fs::remove_dir_all(&root);

    let lines = |(segments, _): &(Vec<Vec<u8>>, u64)| -> usize {
        segments
            .iter()
            .map(|s| s.iter().filter(|&&b| b == b'\n').count())
            .sum()
    };
    assert!(straight.1 > 0);
    assert_eq!(lines(&straight) as u64, straight.1, "one line per span");
    for (what, run) in [("restarted", &scratch), ("resumed", &crashed)] {
        assert_eq!(run.1, straight.1, "{what}: spilled count");
        assert!(
            *run == straight,
            "{what} run left {} lines, the straight run {}",
            lines(run),
            lines(&straight)
        );
    }
}

/// Elastic lanes under per-tenant caps tight enough to bounce requests,
/// with mobility's per-region gates or the one global gate: the crash
/// at epoch 10 resumes from generation 8, by when the pool has grown.
fn elastic_capped_config(mobility: bool) -> FleetConfig {
    let mut cfg = FleetConfig::sized(512).with_elastic_capacity();
    if mobility {
        cfg = cfg.with_mobility();
        cfg.tenant_queue_cap = 6;
    } else {
        cfg.tenant_queue_cap = 40;
    }
    cfg.seed = 17;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 16)
        .with_engine_crash(10, SimDuration::from_secs(1))
}

/// Restore rebuilds each gate's cap from the restored lane pool, though
/// every serving pass sizes it again before admitting: this pins what the
/// elastic step reads (lanes and the depth latch) and the rebuilt
/// gates.
#[test]
fn crash_resume_under_elastic_lanes_and_tight_caps_is_byte_identical() {
    for mobility in [false, true] {
        let cfg = elastic_capped_config(mobility);
        let straight = FleetEngine::new(cfg.clone()).run();
        let mut store = SnapshotStore::in_memory();
        let resumed = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
        assert_eq!(resumed.snapshots.resumes, 1);
        let snap = Snapshot::decode(&store.get(8).expect("generation 8")).expect("valid");
        let lanes = value_at(&snap.payload, &["edge", "lanes"])
            .as_array()
            .expect("lanes")
            .len();
        let rejected_by_8 = class_total(&snap, "rejected");
        assert_ne!(lanes, cfg.edge_capacity as usize, "the pool has scaled");
        assert!(
            straight.metrics.total().rejected > rejected_by_8,
            "the caps bounce requests after the snapshot"
        );
        assert_eq!(straight.summary(), resumed.summary(), "mobility {mobility}");
        assert_eq!(straight.metrics, resumed.metrics);
    }
}

/// Tight caps with tenant 1's quota flapped to a quarter from 1.5 s to
/// 4.5 s: the crash at epoch 6 resumes from generation 4 (2.0 s), so
/// the restored gates carry no override though one was in force when
/// the snapshot was taken.
fn flapped_config(mobility: bool, elastic: bool) -> FleetConfig {
    let mut cfg = FleetConfig::sized(512).with_tenant_quota_flap(
        1,
        0.25,
        SimTime::ZERO + SimDuration::from_millis(1500),
        SimDuration::from_secs(3),
    );
    if mobility {
        cfg = cfg.with_mobility();
    }
    if elastic {
        cfg = cfg.with_elastic_capacity();
    }
    cfg.tenant_queue_cap = 12;
    cfg.seed = 3;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 16)
        .with_engine_crash(6, SimDuration::from_millis(500))
}

/// The barrier after a restore sets every quota-flap override again
/// before it admits, so a snapshot taken inside a flap need not carry
/// the overrides.
#[test]
fn crash_resume_inside_a_quota_flap_is_byte_identical() {
    for mobility in [false, true] {
        for elastic in [false, true] {
            let cfg = flapped_config(mobility, elastic);
            let straight = FleetEngine::new(cfg.clone()).run();
            let mut store = SnapshotStore::in_memory();
            let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
            let what = format!("mobility {mobility}, elastic {elastic}");
            assert_eq!(resumed.snapshots.resumes, 1, "{what}");
            assert!(
                resumed.snapshots.rejected_generations.is_empty(),
                "{what}: resumed from generation 4"
            );
            let detection = straight.metrics.class(WorkloadClass::Detection);
            assert!(detection.local_fallbacks > 0, "{what}: the flap bites");
            assert_eq!(straight.summary(), resumed.summary(), "{what}");
            assert_eq!(straight.metrics, resumed.metrics, "{what}");
        }
    }
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
    assert_eq!(s.registry, r.registry);
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
        // Generations 4 and 8 before the crash at epoch 10, 12 after
        // the resume from 8, each stored by the writer thread.
        let writes = &resumed.snapshots.writes;
        let generations: Vec<u64> = writes.iter().map(|w| w.generation).collect();
        assert_eq!(generations, [4, 8, 12], "layout {layout:?}");
        assert!(
            writes.iter().all(|w| w.bytes > 0 && w.store_ms > 0.0),
            "a write without its store side in layout {layout:?}: {writes:?}"
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
        // The resumed leg decoded a snapshot, and its wall-clock cost
        // stays in the typed accounting, out of the summary.
        assert!(resumed.snapshots.load_ms.is_some(), "layout {layout:?}");
        assert!(resumed.snapshots.rejected_generations.is_empty());
        assert!(!resumed.summary().contains("snapshots"));
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
    // Both legs write generation 8 inside the torn-write window.
    let mut torn: Vec<u64> = resumed
        .snapshots
        .writes
        .iter()
        .filter(|w| w.chaos == Some("torn-write"))
        .map(|w| w.generation)
        .collect();
    torn.dedup();
    assert_eq!(torn, [8], "writes: {:?}", resumed.snapshots.writes);
    assert_reports_identical(&straight, &resumed);
    // The torn half is refused before it is parsed.
    let torn = store.get(8).expect("generation 8 retained");
    let err = Snapshot::decode(&torn).expect_err("torn");
    assert!(err.to_string().contains("torn envelope"), "{err}");
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

/// The sum of the hex counter `key` over `snap`'s metrics class rows.
fn class_total(snap: &Snapshot, key: &str) -> u64 {
    value_at(&snap.payload, &["metrics", "by_class"])
        .as_array()
        .expect("class rows")
        .iter()
        .map(|row| {
            let count = value_at(row, &[key]).as_str().expect("hex count");
            u64::from_str_radix(count, 16).expect("hex count")
        })
        .sum()
}

/// The value at `path` inside `v`: object keys, or array indices in
/// decimal.
fn value_at<'a>(mut v: &'a Value, path: &[&str]) -> &'a Value {
    for step in path {
        v = match v {
            Value::Array(items) => &items[step.parse::<usize>().expect("array index")],
            _ => v.get(step).expect("path key present"),
        };
    }
    v
}

/// `snap` with the payload value at `path` replaced (see [`value_at`]),
/// re-encoded with a valid checksum and decoded again: a well-formed
/// write of a possibly impossible state.
fn with_value_at(snap: &Snapshot, path: &[&str], value: Value) -> Snapshot {
    let mut payload = snap.payload.clone();
    let mut at = &mut payload;
    for step in path {
        at = match at {
            Value::Object(fields) => fields.get_mut(*step).expect("path key present"),
            Value::Array(items) => &mut items[step.parse::<usize>().expect("array index")],
            _ => panic!("path step {step:?} into a leaf"),
        };
    }
    *at = value;
    Snapshot::decode(&Snapshot::new(snap.generation, payload).encode())
        .expect("a re-encoded snapshot carries a valid checksum")
}

/// `snap` with one field of the vehicle in `slot` replaced.
fn with_vehicle_field(snap: &Snapshot, slot: usize, key: &str, value: Value) -> Snapshot {
    with_value_at(snap, &["vehicles", &slot.to_string(), key], value)
}

#[test]
fn restore_rejects_impossible_vehicles_with_a_valid_checksum() {
    // A vehicle's next events must lie in what is left of the run, with
    // mobility and without it.
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
        let seq = value_at(&snap.payload, &["vehicles", "4", "seq"]).clone();
        // Rewriting a field with its own value keeps the snapshot valid.
        let same = with_vehicle_field(&snap, 4, "seq", seq);
        assert!(engine.restore(&same).is_ok());

        let hex = |ns: u64| Value::from(format!("{ns:x}"));
        let barrier = snap.generation * cfg.epoch.as_nanos();
        let horizon = cfg.horizon().as_nanos();
        for (key, value) in [
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

/// The backlogged run of `byte_identity.rs`: a slow storage tier and
/// short collector queues leave pending, cached and queued batches in
/// every snapshot.
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
fn restore_rejects_an_impossible_ingest_backlog_with_a_valid_checksum() {
    let cfg = backlog_config();
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap = store.newest_valid().0.expect("valid snapshot");
    assert_eq!(snap.generation, 12);
    let engine = FleetEngine::new(cfg);
    let ingest = value_at(&snap.payload, &["ingest"]);
    let len = |key: &str| {
        ingest
            .get(key)
            .and_then(Value::as_array)
            .map_or(0, Vec::len)
    };
    assert!(len("pending") > 0 && len("cached") > 1);
    let hex = |x: u64| Value::from(format!("{x:x}"));

    // Rewriting the backlog with itself keeps the snapshot valid.
    assert!(engine
        .restore(&with_value_at(&snap, &["ingest"], ingest.clone()))
        .is_ok());

    let mut cases: Vec<(String, Snapshot, String)> = Vec::new();
    for (list, batch) in [
        ("pending", vec!["ingest", "pending", "0", "batch"]),
        ("cached", vec!["ingest", "cached", "0", "batch"]),
        ("queued", vec!["ingest", "collectors", "0", "0"]),
    ] {
        for (key, value) in [("region", Value::from(999u32)), ("vehicle", hex(99_999))] {
            let path: Vec<&str> = batch.iter().copied().chain([key]).collect();
            cases.push((
                format!("{list} batch {key}"),
                with_value_at(&snap, &path, value),
                format!("{list} batch names vehicle"),
            ));
        }
    }
    cases.push((
        "queued batch from another region".into(),
        with_value_at(
            &snap,
            &["ingest", "collectors", "0", "0", "region"],
            Value::from(1u32),
        ),
        "queues a batch for region 1".into(),
    ));
    // Nine batches of one vehicle in its 192-record (eight-batch) mem
    // tier, in canonical order.
    let first = value_at(ingest, &["cached", "0"]);
    let seq = value_at(first, &["batch", "seq"]).as_u64().expect("seq") as u32;
    let crammed: Vec<Value> = (0..9)
        .map(|i| {
            let batch = with_key(value_at(first, &["batch"]), "seq", Value::from(seq + i));
            with_key(&with_key(first, "batch", batch), "disk", Value::from(false))
        })
        .collect();
    cases.push((
        "mem tier over its capacity".into(),
        with_value_at(&snap, &["ingest", "cached"], Value::Array(crammed)),
        "caches more than its 192-record mem tier".into(),
    ));
    // One batch more than the bound of a queue already holding batches.
    let queue = value_at(ingest, &["collectors", "0"])
        .as_array()
        .expect("collector queue");
    let overfull: Vec<Value> = queue.iter().chain(queue).cloned().collect();
    cases.push((
        "overfull queue".into(),
        with_value_at(
            &snap,
            &["ingest", "collectors", "0"],
            Value::Array(overfull),
        ),
        "record bound".into(),
    ));
    let mut cached = value_at(ingest, &["cached"])
        .as_array()
        .expect("cached")
        .clone();
    cached.swap(0, 1);
    cases.push((
        "cache out of canonical order".into(),
        with_value_at(&snap, &["ingest", "cached"], Value::Array(cached)),
        "canonical order".into(),
    ));

    for (what, tampered, expect) in cases {
        let err = engine
            .restore(&tampered)
            .expect_err("an impossible backlog must be refused");
        assert!(err.to_string().contains(&expect), "{what}: {err}");
    }
}

#[test]
fn restore_rejects_impossible_edge_and_mobility_state_with_a_valid_checksum() {
    let cfg = full_stack_config(41);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap = store.newest_valid().0.expect("valid snapshot");
    assert_eq!(snap.generation, 12);
    let engine = FleetEngine::new(cfg.clone());
    let array = |path: &[&str]| {
        value_at(&snap.payload, path)
            .as_array()
            .expect("array")
            .clone()
    };
    let lanes = array(&["edge", "lanes"]);
    assert!(lanes.len() >= cfg.edge_nodes as usize && !array(&["edge", "in_flight"]).is_empty());
    let driving = array(&["mobility", "tracks"])
        .iter()
        .position(|t| value_at(t, &["motion", "kind"]).as_str() == Some("drive"))
        .expect("a driving track")
        .to_string();

    // Rewriting either payload with itself keeps the snapshot valid.
    for key in ["edge", "mobility"] {
        let same = value_at(&snap.payload, &[key]).clone();
        assert!(engine.restore(&with_value_at(&snap, &[key], same)).is_ok());
    }

    // One field of in-flight entry 0's served record.
    let in_flight = |key: &str, value: Value| {
        with_value_at(&snap, &["edge", "in_flight", "0", "served", key], value)
    };
    let track = |slot: &str, path: &[&str], value: Value| {
        let full: Vec<&str> = ["mobility", "tracks", slot]
            .iter()
            .chain(path)
            .copied()
            .collect();
        with_value_at(&snap, &full, value)
    };
    // An entry served on its region's node: without a handoff, the
    // only node it can sit on.
    let entries = array(&["edge", "in_flight"]);
    let homed = entries
        .iter()
        .position(|f| *value_at(f, &["served", "handoff"]) == Value::from(false))
        .expect("an entry without a handoff");
    let region = value_at(&entries[homed], &["served", "region"])
        .as_u64()
        .expect("region");
    let off_home = ((region + 1) % u64::from(cfg.edge_nodes)) as u32;
    let homed = homed.to_string();
    let hex_zero = Value::from("0");
    let mut cases = vec![
        (
            "one lane for every node",
            with_value_at(&snap, &["edge", "lanes"], Value::Array(lanes[..1].to_vec())),
            "1 lanes for 4 edge nodes",
        ),
        (
            "16 more lanes than the fixed pool",
            with_lanes(&snap, 32),
            "32 lanes for 4 edge nodes, the run keeps 16 to 16",
        ),
        (
            "in-flight node",
            with_value_at(
                &snap,
                &["edge", "in_flight", "0", "node"],
                Value::from(999u32),
            ),
            "sits on node 999",
        ),
        (
            "in-flight vehicle",
            in_flight("vehicle", Value::from(99_999u32)),
            "names no vehicle",
        ),
        (
            "in-flight region",
            in_flight("region", Value::from(999u32)),
            "names region 999",
        ),
        (
            "in-flight node off its region's without a handoff",
            with_value_at(
                &snap,
                &["edge", "in_flight", &homed, "node"],
                Value::from(off_home),
            ),
            "without a handoff",
        ),
        (
            "serve start before arrival",
            in_flight("serve_start", hex_zero.clone()),
            "starts serving before it arrived",
        ),
        (
            "finish before serve start",
            with_value_at(
                &snap,
                &["edge", "in_flight", "0", "finish"],
                hex_zero.clone(),
            ),
            "finishes before it starts serving",
        ),
        (
            "track region",
            track("0", &["region"], Value::from(999u32)),
            "mobility track 0 names region 999",
        ),
        (
            "track rng",
            track("0", &["rng"], Value::Array(vec![hex_zero; 4])),
            "all-zero",
        ),
        (
            "driving segment",
            track(&driving, &["motion", "edge"], Value::from(99_999u32)),
            "drives on segment 99999",
        ),
        (
            "driving path",
            track(
                &driving,
                &["motion", "path"],
                Value::Array(vec![Value::from(999u32)]),
            ),
            "routes through region 999",
        ),
        (
            "empty driving path",
            track(&driving, &["motion", "path"], Value::Array(Vec::new())),
            "off its path",
        ),
    ];
    cases.extend(gates_offering_more_than_was_issued(&snap));
    for (what, tampered, expect) in cases {
        let err = engine
            .restore(&tampered)
            .expect_err("impossible edge or mobility state must be refused");
        assert!(err.to_string().contains(expect), "{what}: {err}");
    }

    // An elastic pool stays between the policy's floor and ceiling
    // (8 and 64 lanes around the nominal 16), with or without mobility.
    for mobility in [false, true] {
        let cfg = elastic_capped_config(mobility);
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
        let snap = Snapshot::decode(&store.get(12).expect("generation 12")).expect("valid");
        let engine = FleetEngine::new(cfg);
        let mut cases = vec![
            (
                "below the policy's floor",
                with_lanes(&snap, 7),
                "7 lanes for 4 edge nodes, the run keeps 8 to 64",
            ),
            (
                "above the policy's ceiling",
                with_lanes(&snap, 65),
                "65 lanes for 4 edge nodes, the run keeps 8 to 64",
            ),
        ];
        cases.extend(gates_offering_more_than_was_issued(&snap));
        for (what, tampered, expect) in cases {
            let err = engine
                .restore(&tampered)
                .expect_err("an impossible elastic pool or gate must be refused");
            assert!(
                err.to_string().contains(expect),
                "mobility {mobility}, {what}: {err}"
            );
        }
    }
}

/// `snap` with its lane pool cut or padded with idle lanes to `n`.
fn with_lanes(snap: &Snapshot, n: usize) -> Snapshot {
    let mut lanes = value_at(&snap.payload, &["edge", "lanes"])
        .as_array()
        .expect("lanes")
        .clone();
    lanes.resize(n, Value::from("0"));
    with_value_at(snap, &["edge", "lanes"], Value::Array(lanes))
}

/// Gate 0 counting more offers than the run issued requests: its
/// `admitted` or `rejected` at `u64::MAX`, which would overflow at the
/// next admission, or its `admitted` one past the restored request
/// count.
fn gates_offering_more_than_was_issued(
    snap: &Snapshot,
) -> Vec<(&'static str, Snapshot, &'static str)> {
    let requests = class_total(snap, "requests");
    [
        ("admitted", u64::MAX),
        ("rejected", u64::MAX),
        ("admitted", requests + 1),
    ]
    .into_iter()
    .map(|(key, n)| {
        (
            key,
            with_value_at(
                snap,
                &["edge", "gates", "0", key],
                Value::from(format!("{n:x}")),
            ),
            "more offers than the",
        )
    })
    .collect()
}

#[test]
fn restore_rejects_spans_naming_what_the_run_does_not_have() {
    let cfg = full_stack_config(41);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap = store.newest_valid().0.expect("valid snapshot");
    let engine = FleetEngine::new(cfg);
    let span =
        |key: &str, value: Value| with_value_at(&snap, &["telemetry", "spans", "0", key], value);
    let cases = [
        (
            "vehicle",
            span("vehicle", Value::from(99_999u32)),
            "span names vehicle 99999",
        ),
        (
            "region",
            span("region", Value::from(999u32)),
            "in region 999",
        ),
        (
            "class",
            span("class", Value::from("bogus-class")),
            "unknown class \"bogus-class\"",
        ),
    ];
    for (what, tampered, expect) in cases {
        let err = engine
            .restore(&tampered)
            .expect_err("a span the run cannot have must be refused");
        assert!(err.to_string().contains(expect), "{what}: {err}");
    }
}

#[test]
fn restore_refuses_sink_counts_past_the_requests() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-resume-sink-tamper");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = spill_config(&dir).with_span_sampling(4);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap =
        Snapshot::decode(&store.get(12).expect("generation 12 retained")).expect("valid snapshot");
    let engine = FleetEngine::new(cfg);
    let max = Value::from(format!("{:x}", u64::MAX));
    let sink = |snap: &Snapshot, key: &str, value: Value| {
        with_value_at(snap, &["telemetry", "sink", key], value)
    };
    let cases = [
        (
            "spilled",
            sink(&snap, "spilled", max.clone()),
            "more spans than the",
        ),
        (
            "sampled_out",
            sink(&snap, "sampled_out", max.clone()),
            "more spans than the",
        ),
        (
            "spill_index",
            sink(
                &sink(&snap, "spill_index", Value::from(format!("{:x}", u32::MAX))),
                "spill_bytes",
                max,
            ),
            "spill segment 4294967295 follows only",
        ),
    ];
    for (what, tampered, expect) in cases {
        let err = engine
            .restore(&tampered)
            .expect_err("a sink counting spans no request made must be refused");
        assert!(err.to_string().contains(expect), "{what}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_refuses_series_names_the_engine_does_not_sample() {
    // The budgeted run of `crash_resume_round_trips_budget_...` without
    // its crash: past epoch 64 every series has rolled its oldest points
    // into a same-named histogram.
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_telemetry_budget(4 * 1024);
    cfg.seed = 23;
    cfg.duration = SimDuration::from_secs(8);
    cfg.epoch = SimDuration::from_millis(100);
    let cfg = cfg.with_checkpoint(4, 3);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap = store.newest_valid().0.expect("valid snapshot");
    let engine = FleetEngine::new(cfg);
    engine
        .restore(&snap)
        .expect("the untampered snapshot restores");
    let hists = value_at(&snap.payload, &["telemetry", "hists"]);
    assert!(!hists.as_array().expect("hists").is_empty(), "rollup ran");
    for (what, path) in [("series", "series"), ("histogram", "hists")] {
        let tampered = with_value_at(
            &snap,
            &["telemetry", path, "0", "0"],
            Value::from("fleet.requests"),
        );
        let err = engine
            .restore(&tampered)
            .expect_err("a name the engine never samples must be refused");
        assert!(
            err.to_string()
                .contains("telemetry names unknown series \"fleet.requests\""),
            "{what}: {err}"
        );
    }
}

#[test]
fn restore_refuses_ledgers_that_disagree() {
    let cfg = full_stack_config(41);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap = store.newest_valid().0.expect("valid snapshot");
    let engine = FleetEngine::new(cfg);
    let hex = |x: u64| Value::from(format!("{x:x}"));
    let hex_at = |path: &[&str]| {
        let count = value_at(&snap.payload, path).as_str().expect("hex count");
        u64::from_str_radix(count, 16).expect("hex count")
    };
    let u32_at = |path: &[&str]| value_at(&snap.payload, path).as_u64().expect("u32") as u32;
    let requests = hex_at(&["metrics", "by_class", "0", "requests"]);
    let sent = hex_at(&["ingest", "metrics", "batches_sent"]);
    let credited = hex_at(&["metrics", "work_units_by_tenant", "0", "1"]);
    // A sequence number at the top, with its ledger raised to match so
    // that the sums still agree.
    let at_top = |seq_path: &[&str], ledger_path: &[&str], ledger: u64| {
        let lift = u64::from(u32::MAX) - u64::from(u32_at(seq_path));
        with_value_at(
            &with_value_at(&snap, seq_path, Value::from(u32::MAX)),
            ledger_path,
            hex(ledger + lift),
        )
    };
    let mut cases = vec![
        (
            "vehicle seq",
            with_vehicle_field(
                &snap,
                0,
                "seq",
                Value::from(u32_at(&["vehicles", "0", "seq"]) + 1),
            ),
            "vehicles issued",
        ),
        (
            "DDI seq",
            with_value_at(
                &snap,
                &["vehicles", "0", "ddi", "seq"],
                Value::from(u32_at(&["vehicles", "0", "ddi", "seq"]) + 1),
            ),
            "vehicles uploaded",
        ),
        (
            "class outcomes",
            with_value_at(
                &snap,
                &["metrics", "by_class", "0", "collab_hits"],
                hex(requests + 1),
            ),
            "ends more requests than the",
        ),
        (
            "work units",
            with_value_at(
                &snap,
                &["metrics", "work_units_by_tenant", "0", "1"],
                hex(credited + 1),
            ),
            "work units, served requests earned",
        ),
        (
            "vehicle seq at the top",
            at_top(
                &["vehicles", "0", "seq"],
                &["metrics", "by_class", "0", "requests"],
                requests,
            ),
            "vehicle slot 0: seq 4294967295 past the ticks",
        ),
        (
            "DDI seq at the top",
            at_top(
                &["vehicles", "0", "ddi", "seq"],
                &["ingest", "metrics", "batches_sent"],
                sent,
            ),
            "vehicle slot 0: ddi seq 4294967295 past the ticks",
        ),
        (
            "work-unit overflow",
            with_value_at(
                &snap,
                &["metrics", "work_units_by_tenant", "0", "1"],
                hex(u64::MAX),
            ),
            "work units overflow",
        ),
    ];
    // One case per relation of the ingest and mobility ledgers, each
    // breaking only its own.
    let ingest = |key: &str, n: u64| with_value_at(&snap, &["ingest", "metrics", key], hex(n));
    let mobility = |key: &str, n: u64| with_value_at(&snap, &["mobility", "metrics", key], hex(n));
    let counter = |path: &[&str]| hex_at(path);
    let offers = sent * snap.generation;
    let bounces = counter(&["ingest", "metrics", "outage_bounces"])
        + counter(&["ingest", "metrics", "queue_bounces"]);
    let deferrals = counter(&["ingest", "metrics", "deferrals"]);
    let crossings = counter(&["mobility", "metrics", "migrations"])
        + counter(&["mobility", "metrics", "same_shard_crossings"]);
    assert!(sent > 0 && crossings > 0, "the ledgers are live");
    cases.extend([
        (
            "records sent",
            ingest(
                "records_shed",
                counter(&["ingest", "metrics", "records_shed"]) + 1,
            ),
            "ingest ledger sends records it neither wrote",
        ),
        (
            "batches written",
            ingest("batches_written", sent + 1),
            "ingest ledger writes or misses more batches than it sent",
        ),
        (
            "deadline misses",
            ingest("deadline_misses", sent + 1),
            "ingest ledger writes or misses more batches than it sent",
        ),
        (
            "ladder rungs",
            ingest("retries", bounces - deferrals + 1),
            "ingest ledger retries or defers more batches than bounced",
        ),
        (
            "disk spills",
            ingest("disk_spills", deferrals + 1),
            "ingest ledger spills more batches to disk than it deferred",
        ),
        (
            "bounces",
            ingest("outage_bounces", offers + 1),
            "ingest ledger bounces more offers than its barriers made",
        ),
        (
            "re-addressed batches",
            mobility("readdressed_batches", offers + 1),
            "mobility ledger re-addresses more batches than its barriers held",
        ),
        (
            "crossings",
            mobility(
                "migrations",
                counter(&["mobility", "metrics", "migrations"]) + 1,
            ),
            "mobility ledger records a handoff cost or speed per crossing",
        ),
        (
            "storm crossings",
            mobility("storm_crossings", crossings + 1),
            "mobility ledger storms more crossings than it counts",
        ),
        (
            "stale cache hits",
            mobility("stale_cache_hits", class_total(&snap, "requests") + 1),
            "mobility ledger suppresses more cache hits than requests",
        ),
    ]);
    for (what, tampered, expect) in cases {
        let err = engine
            .restore(&tampered)
            .expect_err("ledgers that disagree must be refused");
        assert!(err.to_string().contains(expect), "{what}: {err}");
    }
    // Any counter of either ledger at the top is refused: the next
    // barrier would overflow it.
    for (ledger, keys) in [
        (
            "ingest",
            &[
                "batches_written",
                "cache_evictions",
                "deadline_misses",
                "deferrals",
                "disk_spills",
                "outage_bounces",
                "queue_bounces",
                "records_shed",
                "retries",
            ][..],
        ),
        (
            "mobility",
            &[
                "migrations",
                "readdressed_batches",
                "same_shard_crossings",
                "stale_cache_hits",
                "storm_crossings",
            ][..],
        ),
    ] {
        for key in keys {
            let tampered = with_value_at(&snap, &[ledger, "metrics", key], hex(u64::MAX));
            let err = engine
                .restore(&tampered)
                .expect_err("a counter at u64::MAX must be refused");
            assert!(err.to_string().contains("ledger"), "{ledger}.{key}: {err}");
        }
    }
}

/// Object keys a version-8 payload never writes: restore rebuilds each
/// value from the config, the seed, the fault plan or the rest of the
/// payload, or the engine no longer keeps it (registry counters and
/// gauges, elastic lane counters).
const DROPPED_KEYS: [&str; 34] = [
    "admission",
    "backlog_records",
    "bytes",
    "cap_overrides",
    "counters",
    "crash_history",
    "crash_looped",
    "crossings",
    "deadline",
    "depth",
    "disk_used",
    "dwell_mean",
    "events_base",
    "gauges",
    "home",
    "id",
    "mem_used",
    "node_down",
    "outbound_at",
    "profile",
    "queue_cap",
    "records",
    "records_sent",
    "records_written",
    "region_admission",
    "registrations",
    "rejected_by_tenant",
    "req",
    "retry_rescued",
    "return_at",
    "scaler",
    "shard",
    "tenant",
    "work",
];

/// The fleet-wide counters and histogram of `metrics`, which restore
/// sums or merges from the per-class rows.
const FLEET_TOTALS: [&str; 7] = [
    "collab_hits",
    "e2e_latency_ms",
    "edge_served",
    "failovers",
    "local_fallbacks",
    "rejected",
    "requests",
];

/// Every object key anywhere inside `v`.
fn object_keys<'a>(v: &'a Value, out: &mut Vec<&'a str>) {
    match v {
        Value::Object(fields) => {
            for (key, child) in fields {
                out.push(key);
                object_keys(child, out);
            }
        }
        Value::Array(items) => items.iter().for_each(|item| object_keys(item, out)),
        _ => {}
    }
}

#[test]
fn keys_restore_rebuilds_leave_the_format_and_are_ignored_when_written_back() {
    let hex = |x: u64| Value::from(format!("{x:x}"));
    let request = || {
        let mut fields = std::collections::BTreeMap::new();
        for (key, value) in [
            ("arrival", hex(0)),
            ("attempts", Value::from(7u32)),
            ("class", Value::from(2u32)),
            ("handoff", hex(u64::MAX)),
            ("region", Value::from(999u32)),
            ("seq", Value::from(u32::MAX)),
            ("tenant", Value::from(999u32)),
            ("vehicle", Value::from(99_999u32)),
        ] {
            fields.insert(key.to_string(), value);
        }
        Value::Object(fields)
    };
    let pair = |t: u32, n: u64| Value::Array(vec![Value::Array(vec![Value::from(t), hex(n)])]);
    let gate = || {
        vec![
            ("queue_cap", hex(0)),
            ("depth", pair(0, u64::MAX)),
            ("registrations", pair(0, 500)),
            ("rejected_by_tenant", Value::Array(Vec::new())),
            ("cap_overrides", pair(1, 1)),
            ("cap_overrides", pair(999, 0xffff_ffff)),
        ]
    };
    let batch = || {
        vec![
            ("records", Value::from(0u32)),
            ("records", Value::from(4_000_000u32)),
            ("bytes", hex(1 << 40)),
            ("deadline", hex(u64::MAX)),
            ("deadline", hex(0)),
        ]
    };
    // `(path, key, value)`: write `key` into the object at `path`.
    let at = |path: &[&'static str], fields: Vec<(&'static str, Value)>| {
        fields
            .into_iter()
            .map(|(key, value)| (path.to_vec(), key, value))
            .collect::<Vec<_>>()
    };

    for (cfg, full_stack) in [(full_stack_config(41), true), (backlog_config(), false)] {
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
        // No object of any generation carries a dropped key.
        for generation in store.generations() {
            let snap =
                Snapshot::decode(&store.get(generation).expect("stored")).expect("valid snapshot");
            let mut keys = Vec::new();
            object_keys(&snap.payload, &mut keys);
            for key in DROPPED_KEYS {
                assert!(
                    !keys.contains(&key),
                    "generation {generation} writes {key:?}"
                );
            }
            let edge = value_at(&snap.payload, &["edge"]);
            assert!(edge.get("requeued").is_none(), "generation {generation}");
            let metrics = value_at(&snap.payload, &["metrics"]);
            for key in FLEET_TOTALS {
                assert!(
                    metrics.get(key).is_none(),
                    "generation {generation} writes {key:?}"
                );
            }
        }

        let snap = store.newest_valid().0.expect("valid snapshot");
        assert_eq!(snap.generation, 12);
        let straight = FleetEngine::new(cfg.clone()).run();
        let engine = FleetEngine::new(cfg.clone());
        let mut cases = Vec::new();
        if full_stack {
            let edge_served = class_total(&snap, "edge_served");
            // A histogram no sequence of samples produces.
            let impossible_hist = with_key(
                value_at(
                    &snap.payload,
                    &["metrics", "by_class", "0", "e2e_latency_ms"],
                ),
                "count",
                hex(1),
            );
            cases.extend(at(
                &["vehicles", "4"],
                vec![
                    ("id", Value::from(3u32)),
                    ("tenant", Value::from(999u32)),
                    ("region", Value::from(999u32)),
                ],
            ));
            cases.extend(at(
                &["edge"],
                vec![("requeued", Value::Array(vec![request()]))],
            ));
            cases.extend(at(&["edge", "in_flight", "0"], vec![("req", request())]));
            cases.extend(at(
                &["edge", "in_flight", "0", "served"],
                vec![("tenant", Value::from(999u32)), ("work", hex(0))],
            ));
            cases.extend(at(
                &[],
                vec![("events_base", hex(u64::MAX)), ("events_base", hex(0))],
            ));
            cases.extend(at(
                &["telemetry"],
                vec![
                    (
                        "counters",
                        Value::Array(vec![Value::Array(vec![
                            Value::from("fleet.served"),
                            hex(u64::MAX),
                        ])]),
                    ),
                    (
                        "gauges",
                        Value::Array(vec![Value::Array(vec![
                            Value::from("telemetry_bytes"),
                            hex(f64::NAN.to_bits()),
                        ])]),
                    ),
                ],
            ));
            cases.extend(at(
                &["metrics"],
                vec![
                    ("retry_rescued", hex(u64::MAX)),
                    ("edge_served", hex(edge_served + 1000)),
                    ("requests", hex(u64::MAX)),
                    ("collab_hits", hex(0)),
                    ("failovers", hex(u64::MAX)),
                    ("rejected", hex(u64::MAX)),
                    ("local_fallbacks", hex(u64::MAX)),
                    ("e2e_latency_ms", impossible_hist),
                ],
            ));
            cases.extend(at(
                &["telemetry", "spans", "0"],
                vec![
                    ("tenant", Value::from(999u32)),
                    ("shard", Value::from(7u32)),
                ],
            ));
            cases.extend(at(
                &["mobility", "tracks", "0"],
                vec![
                    ("id", Value::from(999u32)),
                    ("profile", Value::from(7u32)),
                    ("home", Value::from(999u32)),
                    ("work", Value::from(999u32)),
                    ("outbound_at", hex(0)),
                    ("return_at", hex(0)),
                    ("dwell_mean", hex(0)),
                ],
            ));
            cases.extend(at(&["edge", "gates", "0"], gate()));
            let flags = |b: bool| Value::Array(vec![Value::from(b); 4]);
            let mut counters = std::collections::BTreeMap::new();
            counters.insert("scale_downs".to_string(), hex(u64::MAX));
            counters.insert("scale_ups".to_string(), hex(u64::MAX));
            cases.extend(at(
                &["edge"],
                vec![
                    ("node_down", flags(true)),
                    ("crash_looped", flags(true)),
                    (
                        "crash_history",
                        Value::Array(vec![Value::Array(vec![hex(1); 9]); 4]),
                    ),
                    ("scaler", Value::Object(counters)),
                ],
            ));
            cases.extend(at(
                &["ingest"],
                vec![
                    ("mem_used", pair(0, u64::MAX)),
                    ("disk_used", pair(99_999, 1)),
                ],
            ));
            cases.extend(at(
                &["ingest", "metrics"],
                vec![
                    ("records_sent", hex(u64::MAX)),
                    ("records_written", hex(u64::MAX)),
                    ("backlog_records", hex(u64::MAX)),
                ],
            ));
            cases.extend(at(
                &["mobility", "metrics"],
                vec![("crossings", hex(u64::MAX)), ("crossings", hex(0))],
            ));
        } else {
            cases.extend(at(&["ingest", "pending", "0", "batch"], batch()));
            cases.extend(at(&["ingest", "cached", "0", "batch"], batch()));
            cases.extend(at(&["ingest", "collectors", "0", "0"], batch()));
        }
        for (path, key, value) in cases {
            let object = with_key(value_at(&snap.payload, &path), key, value.clone());
            let tampered = with_value_at(&snap, &path, object);
            let resumed = engine
                .restore(&tampered)
                .unwrap_or_else(|e| panic!("{path:?}.{key} = {value}: {e}"));
            assert_eq!(
                resumed.summary(),
                straight.summary(),
                "{path:?}.{key} = {value}"
            );
            assert_eq!(
                resumed.metrics, straight.metrics,
                "{path:?}.{key} = {value}"
            );
        }
    }
}

/// `body`, an object, with `key` set to `value`.
fn with_key(body: &Value, key: &str, value: Value) -> Value {
    let mut body = body.clone();
    let Value::Object(fields) = &mut body else {
        panic!("{body} is not an object");
    };
    fields.insert(key.to_string(), value);
    body
}

/// Named impossible variants of `body`, a histogram object with at
/// least two occupied buckets.
fn impossible_histograms(body: &Value) -> Vec<(&'static str, Value)> {
    let hex = |x: u64| Value::from(format!("{x:x}"));
    let pairs: Vec<(u64, u64)> = body
        .get("buckets")
        .and_then(Value::as_array)
        .expect("buckets")
        .iter()
        .map(|pair| {
            let pair = pair.as_array().expect("bucket pair");
            let count = pair[1].as_str().expect("hex count");
            (
                pair[0].as_u64().expect("bucket index"),
                u64::from_str_radix(count, 16).expect("hex count"),
            )
        })
        .collect();
    assert!(pairs.len() >= 2, "two occupied buckets");
    let buckets = |pairs: &[(u64, u64)]| {
        Value::Array(
            pairs
                .iter()
                .map(|&(i, n)| Value::Array(vec![Value::from(i), hex(n)]))
                .collect(),
        )
    };
    let last = pairs.len() - 1;
    let mut high = pairs.clone();
    high[last].0 = 5000;
    let mut top = pairs.clone();
    top[last].0 = u64::from(u32::MAX);
    let mut wrap = pairs.clone();
    wrap[0].1 = u64::MAX;
    let wrapped = wrap.iter().fold(0u64, |sum, &(_, n)| sum.wrapping_add(n));
    vec![
        (
            "bucket index 5000",
            with_key(body, "buckets", buckets(&high)),
        ),
        (
            "bucket index u32::MAX",
            with_key(body, "buckets", buckets(&top)),
        ),
        ("count 1", with_key(body, "count", hex(1))),
        (
            "min above max",
            with_key(body, "min", hex(1_000_000_000_000_000)),
        ),
        (
            "counts wrap past u64::MAX",
            with_key(
                &with_key(body, "buckets", buckets(&wrap)),
                "count",
                hex(wrapped),
            ),
        ),
    ]
}

#[test]
fn restore_rejects_impossible_histograms_with_a_valid_checksum() {
    // 100 ms epochs over 8 s under a small budget roll the registry's
    // series into histograms before the last snapshot; the regional
    // outage fills the reliability ledger's failover histogram.
    let budgeted = {
        let mut cfg = FleetConfig::sized(64)
            .with_ingest()
            .with_telemetry_budget(4 * 1024)
            .with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(3));
        cfg.seed = 23;
        cfg.duration = SimDuration::from_secs(8);
        cfg.epoch = SimDuration::from_millis(100);
        cfg.with_checkpoint(17, 3)
    };
    for (cfg, rolled) in [(full_stack_config(41), false), (budgeted, true)] {
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
        let snap = store.newest_valid().0.expect("valid snapshot");
        let engine = FleetEngine::new(cfg);
        // A registry histogram with two occupied buckets, when rolled.
        let registry = rolled.then(|| {
            value_at(&snap.payload, &["telemetry", "hists"])
                .as_array()
                .expect("registry histograms")
                .iter()
                .position(|entry| {
                    value_at(entry, &["1", "buckets"])
                        .as_array()
                        .is_some_and(|b| b.len() >= 2)
                })
                .expect("a rolled-up registry histogram with two buckets")
                .to_string()
        });
        let mut paths = vec![vec!["metrics", "by_class", "0", "e2e_latency_ms"]];
        if let Some(i) = &registry {
            paths.push(vec!["telemetry", "hists", i, "1"]);
            paths.push(vec!["reliability", "failover"]);
        }
        for path in paths {
            let body = value_at(&snap.payload, &path);
            // Rewriting a histogram with itself keeps the snapshot valid.
            assert!(engine
                .restore(&with_value_at(&snap, &path, body.clone()))
                .is_ok());
            for (what, tampered) in impossible_histograms(body) {
                let err = engine
                    .restore(&with_value_at(&snap, &path, tampered))
                    .expect_err("an impossible histogram must be refused");
                assert!(
                    err.to_string().contains("histogram"),
                    "{path:?}, {what}: {err}"
                );
            }
        }
    }
}

#[test]
fn restore_rejects_degraded_time_for_components_the_engine_never_degrades() {
    let cfg = full_stack_config(41);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let snap = store.newest_valid().0.expect("valid snapshot");
    let engine = FleetEngine::new(cfg.clone());
    let path = ["reliability", "degraded"];
    let degraded = value_at(&snap.payload, &path)
        .as_array()
        .expect("degraded pairs")
        .clone();
    assert!(degraded.len() >= 2, "handoffs degrade several regions");
    // Rewriting the ledger with itself keeps the snapshot valid.
    assert!(engine
        .restore(&with_value_at(&snap, &path, Value::Array(degraded.clone())))
        .is_ok());

    let entry = |label: String| Value::Array(vec![Value::from(label), Value::from("3e8")]);
    let mut cases: Vec<(String, Vec<Value>)> = [
        format!("tenant{}", cfg.tenants),
        format!("region{}/handoff", cfg.regions),
        "tenant01".to_string(),
        "region0/lte".to_string(),
        "engine".to_string(),
    ]
    .into_iter()
    .map(|label| (label.clone(), vec![entry(label)]))
    .collect();
    let mut swapped = degraded.clone();
    swapped.swap(0, 1);
    cases.push(("out of order".into(), swapped));
    cases.push((
        "duplicate".into(),
        vec![degraded[0].clone(), degraded[0].clone()],
    ));
    for (what, pairs) in cases {
        let err = engine
            .restore(&with_value_at(&snap, &path, Value::Array(pairs)))
            .expect_err("an impossible degraded label must be refused");
        assert!(err.to_string().contains("degraded"), "{what}: {err}");
    }
}

#[test]
fn reliability_snapshot_size_does_not_grow_with_failovers() {
    // A regional outage over most of the run: every request in the
    // region fails over. When the ledger kept raw samples, each
    // failover added about 19 B to every later snapshot.
    let mut cfg = FleetConfig::sized(512).with_regional_outage(
        0,
        SimTime::from_secs(1),
        SimDuration::from_secs(6),
    );
    cfg.seed = 7;
    cfg.duration = SimDuration::from_secs(8);
    let cfg = cfg.with_checkpoint(2, 16);
    let mut store = SnapshotStore::in_memory();
    let report = FleetEngine::new(cfg).run_supervised(&mut store);
    assert!(report.reliability.failover_latency().count() > 300);
    let mut sizes = Vec::new();
    for generation in store.generations() {
        let text = store.get(generation).expect("stored");
        let snap = Snapshot::decode(&text).expect("valid snapshot");
        let failovers = value_at(&snap.payload, &["reliability", "failover", "count"])
            .as_str()
            .map(|hex| u64::from_str_radix(hex, 16).expect("hex count"))
            .expect("failover count");
        let bytes = value_at(&snap.payload, &["reliability"]).to_string().len();
        sizes.push((generation, failovers, bytes));
    }
    assert!(sizes.iter().any(|&(_, failovers, _)| failovers > 300));
    assert!(sizes.iter().any(|&(_, failovers, _)| failovers == 0));
    assert!(
        sizes.iter().all(|&(_, _, bytes)| bytes < 1024),
        "(generation, failovers, reliability bytes): {sizes:?}"
    );
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
