//! A snapshot store that fails its write fails the supervised run: the
//! writer thread's panic reaches the caller, and the thread does not
//! outlive the run. This file holds one test, so no other test's writer
//! thread runs in the process while it looks for one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use vdap_fleet::{FleetConfig, FleetEngine, SnapshotStore};
use vdap_sim::SimDuration;

/// Threads of this process named like the snapshot writer (Linux; an
/// empty list elsewhere).
fn writer_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "ckpt-writer")
        .collect()
}

#[test]
fn a_failed_store_write_panics_the_run_and_leaves_no_writer_thread() {
    let dir = std::env::temp_dir().join(format!("vdap-store-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::in_dir(&dir).expect("create the store");
    std::fs::remove_dir_all(&dir).expect("remove the store's directory");
    let mut cfg = FleetConfig::sized(64).with_telemetry();
    cfg.duration = SimDuration::from_secs(6);
    let engine = FleetEngine::new(cfg.with_checkpoint(4, 3));

    let panic = catch_unwind(AssertUnwindSafe(|| engine.run_supervised(&mut store)))
        .expect_err("the first snapshot write fails");
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(msg.contains("snapshot store write failed"), "{msg:?}");

    // The run joined its writer before the panic left it; allow the
    // kernel a moment to drop the exited task from the listing.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !writer_threads().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(writer_threads(), Vec::<String>::new());
}
