//! Runs one workload in this process: a warm-up, timed reps with the
//! calibration kernel and a set-up sample after each, the peak-RSS
//! reading, a correctness check run at another executor width and batch
//! size, and (when tracing) one traced run plus the layer replays.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, Snapshot, SnapshotStore, WorkloadClass};

use crate::calibrate::{calibrated, kernel_s};
use crate::layers;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Workload;

/// One-epoch set-up runs per workload; their median is `setup_s`. The
/// smallest of them (resume-500) lasts about a millisecond and spreads
/// by 20% within a run, so the median needs many samples to hold still.
/// They are taken one after each timed rep, and any still missing after
/// the last rep follow it.
pub const SETUP_SAMPLES: usize = 31;
/// Timed reps always run; more follow until the run's seconds are up.
/// Peak RSS is read right after this many, so it covers the same work
/// whatever the run length.
pub const MIN_REPS: usize = 5;
/// The check run's executor width and batch size: both must be
/// invisible in the deterministic summary.
const CHECK_THREADS: u32 = 1;
const CHECK_BATCH: u32 = 7;
const MIB: f64 = 1024.0 * 1024.0;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Minimum wall time of the timed reps.
    pub seconds: f64,
    /// Also make the traced run and the layer replays.
    pub trace: bool,
    /// Fleets run at `1/scale_div` of their size (1 in the benchmark).
    pub scale_div: u32,
    /// Directory for scratch files, run documents and traces.
    pub out: PathBuf,
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for single readings and counts).
    pub samples: usize,
}

/// A named correctness check, aggregated over every attempt it ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What the check asserts.
    pub name: &'static str,
    /// Whether it held on every attempt.
    pub ok: bool,
    /// The first failure, if any.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Fleet size it ran at.
    pub vehicles: u32,
    /// Attempts: the warm-up, each timed rep, the check run and the
    /// traced run.
    pub attempted: u64,
    /// Attempts that panicked or failed a check.
    pub failed: u64,
    /// Every check that ran.
    pub checks: Vec<Check>,
    /// FNV-1a of the deterministic summary (informational).
    pub summary_fnv1a: Option<u64>,
    /// End-to-end metrics (medians over the timed reps, calibrated).
    pub end_to_end: Vec<Metric>,
    /// Uncalibrated medians and the kernel time behind the calibration
    /// (informational).
    pub raw: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Where the Chrome trace went (traced runs only).
    pub trace_file: Option<PathBuf>,
    /// Every timed-rep wall time, set-up sample and kernel time,
    /// calibrated and raw, in run order (s).
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl WorkloadResult {
    /// No attempt failed and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; `None`
/// where `/proc/self/status` does not exist.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Removes `dir` and everything under it, if present.
fn wipe(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot clear {}: {e}", dir.display()),
    }
}

struct Bench<'a> {
    w: &'static Workload,
    opts: &'a Options,
    cfg: FleetConfig,
    scratch: PathBuf,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    reference: Option<String>,
}

impl Bench<'_> {
    /// Records the outcome of check `name`; returns `ok`.
    fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let idx = match self.checks.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.checks.push(Check {
                    name,
                    ok: true,
                    detail: String::new(),
                });
                self.checks.len() - 1
            }
        };
        let entry = &mut self.checks[idx];
        if !ok && entry.ok {
            entry.ok = false;
            entry.detail = detail();
        }
        ok
    }

    /// Runs one attempt; a panic or a `false` result counts it failed.
    fn attempt<T>(
        &mut self,
        what: &'static str,
        f: impl FnOnce(&mut Self) -> (T, bool),
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok((out, ok)) => {
                if !ok {
                    self.failed += 1;
                }
                Some(out)
            }
            Err(panic) => {
                self.failed += 1;
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                self.check(what, false, || format!("panicked: {msg}"));
                None
            }
        }
    }

    /// One full run of `cfg` on a wiped scratch directory, under the
    /// crash supervisor or as a straight `run()`, timed from the engine
    /// call to its report.
    fn execute(&self, cfg: FleetConfig, supervised: bool) -> (FleetReport, f64) {
        wipe(&self.scratch);
        let engine = FleetEngine::try_new(cfg).unwrap_or_else(|e| panic!("config rejected: {e}"));
        let started = Instant::now();
        let report = if supervised {
            let mut store = SnapshotStore::in_dir(self.scratch.join("snapshots"))
                .unwrap_or_else(|e| panic!("snapshot store: {e}"));
            engine.run_supervised(&mut store)
        } else {
            engine.run()
        };
        (report, started.elapsed().as_secs_f64())
    }

    /// Times one run of the one-epoch set-up config; `None` (and a
    /// failed check) when it panics.
    fn setup_sample(&mut self, cfg: &FleetConfig) -> Option<f64> {
        let sample = catch_unwind(AssertUnwindSafe(|| {
            wipe(&self.scratch);
            let engine = FleetEngine::try_new(cfg.clone())
                .unwrap_or_else(|e| panic!("config rejected: {e}"));
            let started = Instant::now();
            drop(engine.run());
            started.elapsed().as_secs_f64()
        }));
        if sample.is_err() {
            self.check("set-up runs complete", false, || {
                "one-epoch run panicked".into()
            });
        }
        sample.ok()
    }

    /// Checks a run's report against the first one and its own ledgers;
    /// a `supervised` run must also have resumed past a rejected
    /// generation.
    fn audit(&mut self, report: &FleetReport, supervised: bool) -> bool {
        let summary = report.summary();
        let mut ok = match self.reference.clone() {
            None => {
                self.reference = Some(summary);
                true
            }
            Some(reference) => self.check("summaries byte-identical", reference == summary, || {
                format!("--- first ---\n{reference}--- this ---\n{summary}")
            }),
        };
        let m = &report.metrics;
        for class in WorkloadClass::ALL {
            let c = m.class(class);
            let ended =
                c.edge_served + c.collab_hits + c.failovers + c.rejected + c.local_fallbacks;
            ok &= self.check("class ledgers close", ended == c.requests, || {
                format!("{class}: {ended} outcomes for {} requests", c.requests)
            });
        }
        if let Some(ing) = &report.ingest {
            let gone =
                ing.records_written + ing.records_shed + ing.cache_evictions + ing.backlog_records;
            ok &= self.check("ingest ledger closes", gone == ing.records_sent, || {
                format!(
                    "sent {} != written+shed+evicted+backlog {gone}",
                    ing.records_sent
                )
            });
        }
        if let Some(mob) = &report.mobility {
            ok &= self.check("mobility ledger closes", mob.partitions(), || {
                format!(
                    "crossings {} != migrations {} + same-domain {}",
                    mob.crossings, mob.migrations, mob.same_shard_crossings
                )
            });
        }
        if let Some(tel) = &report.telemetry {
            let spilled = tel.spill.as_ref().map_or(0, |s| s.spilled());
            let kept = spilled + tel.sampled_out + tel.spans.len() as u64;
            ok &= self.check("telemetry ledger closes", kept == m.requests, || {
                format!(
                    "spilled {spilled} + sampled out {} + resident {} != requests {}",
                    tel.sampled_out,
                    tel.spans.len(),
                    m.requests
                )
            });
        }
        if supervised {
            let s = &report.snapshots;
            ok &= self.check(
                "supervisor resumed past a rejected generation",
                s.resumes >= 1 && !s.rejected_generations.is_empty(),
                || {
                    format!(
                        "{} resumes, rejected {:?}",
                        s.resumes, s.rejected_generations
                    )
                },
            );
        }
        ok
    }

    /// Re-parses every spilled JSONL line; returns (bytes on disk, ok).
    fn reparse_spill(&mut self, report: &FleetReport) -> (u64, bool) {
        let Some(spill) = report.telemetry.as_ref().and_then(|t| t.spill.as_ref()) else {
            return (0, true);
        };
        let mut bytes = 0;
        let mut lines = 0u64;
        let mut bad = None;
        for segment in spill.segments() {
            match std::fs::read_to_string(&segment) {
                Ok(text) => {
                    bytes += text.len() as u64;
                    for line in text.lines() {
                        lines += 1;
                        if let Err(e) = serde_json::from_str(line) {
                            bad.get_or_insert_with(|| format!("{}: {e}", segment.display()));
                        }
                    }
                }
                Err(e) => {
                    bad.get_or_insert_with(|| format!("{}: {e}", segment.display()));
                }
            }
        }
        let ok = self.check("spilled JSONL re-parses", bad.is_none(), || {
            bad.unwrap_or_default()
        }) & self.check(
            "one spilled line per span, no I/O errors",
            lines == spill.spilled() && spill.io_errors() == 0,
            || {
                format!(
                    "{lines} lines for {} spans, {} I/O errors",
                    spill.spilled(),
                    spill.io_errors()
                )
            },
        );
        (bytes, ok)
    }
}

/// Runs workload `w` with `opts` in this process.
///
/// # Panics
///
/// Panics when the output directory cannot be written.
#[must_use]
pub fn run_workload(w: &'static Workload, opts: &Options) -> WorkloadResult {
    let scratch = opts.out.join("scratch").join(w.name);
    let mut b = Bench {
        w,
        opts,
        cfg: w.config(opts.seed, opts.scale_div, &scratch),
        scratch,
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        reference: None,
    };

    let supervised = w.supervised();
    b.attempt("warm-up completes", |b| {
        let (report, _) = b.execute(b.cfg.clone(), supervised);
        ((), b.audit(&report, supervised))
    });

    let setup_cfg = w.setup_config(opts.seed, opts.scale_div, &b.scratch);
    let mut raw_setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut raw_walls = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut peak_rss = None;
    // The kernel runs after the warm-up, whose freed memory it reuses.
    let mut kernels = vec![kernel_s()];
    let mut set_up = |b: &mut Bench<'_>, kernel: f64| {
        if let Some(s) = b.setup_sample(&setup_cfg) {
            raw_setup.push(s);
            setup.push(calibrated(s, kernel));
        }
    };
    let timed = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || timed.elapsed().as_secs_f64() < opts.seconds {
        reps += 1;
        let rep = b.attempt("timed reps complete", |b| {
            let (report, wall) = b.execute(b.cfg.clone(), supervised);
            wipe(&b.scratch);
            let ok = b.audit(&report, supervised);
            ((wall, report.events_processed), ok)
        });
        let before = kernels[kernels.len() - 1];
        let after = kernel_s();
        kernels.push(after);
        if let Some((wall, events)) = rep {
            // The kernel runs right before and right after the rep.
            let wall_cal = calibrated(wall, (before + after) / 2.0);
            raw_walls.push(wall);
            walls.push(wall_cal);
            rates.push(events as f64 / wall_cal);
        }
        // One set-up sample after each rep, so a slow spell of the host
        // lasting a few seconds cannot shift most of them at once.
        if reps <= SETUP_SAMPLES {
            set_up(&mut b, after);
        }
        if reps == MIN_REPS {
            peak_rss = peak_rss_mib();
        }
    }
    for _ in reps..SETUP_SAMPLES {
        let kernel = kernel_s();
        kernels.push(kernel);
        set_up(&mut b, kernel);
    }
    let wall_s = median(&walls);
    let raw_wall_s = median(&raw_walls);

    b.attempt("check run completes", |b| {
        let cfg = b
            .cfg
            .clone()
            .with_executor_threads(CHECK_THREADS)
            .with_batch_size(CHECK_BATCH);
        let (report, _) = b.execute(cfg, supervised);
        let mut ok = b.audit(&report, supervised);
        ok &= b.reparse_spill(&report).1;
        if supervised {
            let (straight, _) = b.execute(b.cfg.clone(), false);
            let (resumed, plain) = (report.summary(), straight.summary());
            ok &= b.check(
                "supervised summary equals a straight run()",
                resumed == plain,
                || format!("--- supervised ---\n{resumed}--- straight ---\n{plain}"),
            );
        }
        wipe(&b.scratch);
        ((), ok)
    });

    let mut values = Values::new();
    values.insert("wall_s", (wall_s, walls.len()));
    values.insert("events_per_s", (median(&rates), rates.len()));
    values.insert("peak_rss_mb", (peak_rss.unwrap_or(f64::NAN), 1));
    values.insert("setup_s", (median(&setup), setup.len()));
    let end_to_end = lay_out(&END_TO_END, &values);
    let mut values = Values::new();
    values.insert("wall_raw_s", (raw_wall_s, raw_walls.len()));
    values.insert("setup_raw_s", (median(&raw_setup), raw_setup.len()));
    values.insert("kernel_s", (median(&kernels), kernels.len()));
    let raw = lay_out(&RAW, &values);

    let (per_layer, trace_file) = if opts.trace {
        let (values, file) = traced(&mut b, raw_wall_s);
        (lay_out(&PER_LAYER, &values), Some(file))
    } else {
        (Vec::new(), None)
    };
    wipe(&b.scratch);

    WorkloadResult {
        workload: w.name,
        vehicles: b.cfg.vehicles,
        attempted: b.attempted,
        failed: b.failed,
        summary_fnv1a: b
            .reference
            .as_deref()
            .map(|s| vdap_ckpt::fnv1a64(s.as_bytes())),
        checks: b.checks,
        end_to_end,
        raw,
        per_layer,
        trace_file,
        samples: vec![
            ("wall_s", walls),
            ("setup_s", setup),
            ("wall_raw_s", raw_walls),
            ("setup_raw_s", raw_setup),
            ("kernel_s", kernels),
        ],
    }
}

/// Every end-to-end metric, `(name, unit)`, in output order. Times are
/// calibrated: in the reference kernel's seconds (see `calibrate`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The uncalibrated medians of `wall_s` and `setup_s`, and the median
/// kernel time, `(name, unit)`.
pub const RAW: [(&str, &str); 3] = [("wall_raw_s", "s"), ("setup_raw_s", "s"), ("kernel_s", "s")];

/// Every per-layer metric, `(name, unit)`, in output order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("fleet.tick_wall_s", "s"),
    ("fleet.tick_busy_s", "s"),
    ("fleet.tick_idle_frac", "ratio"),
    ("fleet.steals", "count"),
    ("fleet.barrier_s", "s"),
    ("fleet.barrier_ms_per_epoch", "ms"),
    ("fleet.unprofiled_s", "s"),
    ("fleet.epochs", "count"),
    ("fleet.events", "count"),
    ("pool.width_speedup", "ratio"),
    ("pool.submit_us", "us"),
    ("edgeos.admit_ns", "ns"),
    ("edgeos.drr_ns", "ns"),
    ("edgeos.offered", "count"),
    ("edgeos.reject_frac", "ratio"),
    ("ddi.offer_ns", "ns"),
    ("ddi.write_delay_ns", "ns"),
    ("ddi.batches_sent", "count"),
    ("ddi.retry_frac", "ratio"),
    ("ddi.queue_bounce_frac", "ratio"),
    ("mobility.track_build_ms", "ms"),
    ("mobility.advance_ns", "ns"),
    ("mobility.crossings", "count"),
    ("obs.absorb_ns", "ns"),
    ("obs.flush_ms_per_epoch", "ms"),
    ("obs.spill_mb", "MiB"),
    ("obs.spill_mb_per_s", "MiB/s"),
    ("obs.spans_spilled", "count"),
    ("obs.spill_io_errors", "count"),
    ("obs.peak_mb_est", "MiB"),
    ("obs.hist_record_ns", "ns"),
    ("ckpt.writes", "count"),
    ("ckpt.write_s", "s"),
    ("ckpt.snapshot_mb", "MiB"),
    ("ckpt.decode_ms", "ms"),
    ("ckpt.newest_valid_ms", "ms"),
    ("ckpt.restore_s", "s"),
    ("ckpt.rejected_gens", "count"),
    ("sim.rng_ns", "ns"),
    ("sim.hist_record_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Measured values by metric name: `(value, samples)`.
type Values = BTreeMap<&'static str, (f64, usize)>;

/// Lays `values` out in `table` order, NaN where a value is missing.
fn lay_out(table: &[(&'static str, &'static str)], values: &Values) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the table"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((f64::NAN, 0));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// What the traced attempt measured.
struct Traced {
    /// The traced run, under the supervisor when the workload is.
    report: FleetReport,
    wall: f64,
    /// The straight `run()` whose engine profile the fleet metrics use,
    /// with its wall time; `None` when that is the traced run itself.
    straight: Option<(FleetReport, f64)>,
    spill_bytes: u64,
    width1_wall: f64,
}

/// The traced run: the engine once more inside a span, the checkpoint
/// read side, a straight run of a supervised workload, a run at
/// executor width 1, then the layer replays. Writes the trace file and
/// returns the per-layer values. `raw_wall_s` is the uncalibrated
/// median of the timed reps, which single runs are compared against.
fn traced(b: &mut Bench<'_>, raw_wall_s: f64) -> (Values, PathBuf) {
    let supervised = b.w.supervised();
    let mut tr = Tracer::new();
    let root = tr.open("bench.traced");
    let traced = b.attempt("traced run completes", |b| {
        let run = tr.open("fleet.run");
        let (report, wall) = b.execute(b.cfg.clone(), supervised);
        tr.close(run, report.events_processed, 0);
        let mut ok = b.audit(&report, supervised);
        let (spill_bytes, spill_ok) = b.reparse_spill(&report);
        ok &= spill_ok;
        let straight = if supervised {
            let cfg = b.cfg.clone();
            ok &= ckpt_read(b, &mut tr, &cfg, &report.summary());
            // A supervised report profiles only the leg after the last
            // crash. A straight run of the same config ignores crash
            // faults and writes no snapshots, so its profile covers every
            // epoch.
            let span = tr.open("fleet.run_straight");
            let (straight, straight_wall) = b.execute(cfg, false);
            tr.close(span, straight.events_processed, 0);
            ok &= b.audit(&straight, false);
            Some((straight, straight_wall))
        } else {
            None
        };
        // Width alone: the check run also shrinks the batch size, whose
        // per-batch cost would swamp the executor's contribution.
        let span = tr.open("fleet.run_width1");
        let (narrow, width1_wall) = b.execute(b.cfg.clone().with_executor_threads(1), supervised);
        tr.close(span, narrow.events_processed, 0);
        ok &= b.audit(&narrow, supervised);
        let traced = Traced {
            report,
            wall,
            straight,
            spill_bytes,
            width1_wall,
        };
        (traced, ok)
    });

    if let Some(t) = &traced {
        let replay = tr.open("bench.replay");
        wipe(&b.scratch);
        layers::replay(&b.cfg, &t.report, &mut tr, &b.scratch);
        tr.close(replay, 0, 0);
    }
    tr.close(root, 0, 0);

    let mut v = Values::new();
    let mut put = |name: &'static str, value: f64| {
        v.insert(name, (value, 1));
    };
    if let Some(t) = &traced {
        let report = &t.report;
        let (profiled, profiled_wall) = t
            .straight
            .as_ref()
            .map_or((report, t.wall), |(r, wall)| (r, *wall));
        let p = &profiled.profile;
        let tick_wall = p
            .worker_busy
            .iter()
            .zip(&p.worker_idle)
            .map(|(busy, idle)| (*busy + *idle).as_secs_f64())
            .fold(0.0, f64::max);
        let barrier = p.barrier.as_secs_f64();
        let snapshots = &report.snapshots;
        let write_s =
            |r: &FleetReport| r.snapshots.writes.iter().map(|w| w.write_ms).sum::<f64>() / 1e3;
        put("fleet.tick_wall_s", tick_wall);
        put(
            "fleet.tick_busy_s",
            p.worker_busy.iter().map(|d| d.as_secs_f64()).sum(),
        );
        put("fleet.tick_idle_frac", p.mean_idle_fraction());
        put("fleet.steals", p.total_steals() as f64);
        put("fleet.barrier_s", barrier);
        put("fleet.barrier_ms_per_epoch", p.mean_barrier_ms());
        put(
            "fleet.unprofiled_s",
            profiled_wall - tick_wall - barrier - write_s(profiled),
        );
        put("fleet.epochs", p.epochs as f64);
        put("fleet.events", report.events_processed as f64);
        put("edgeos.offered", report.admission_offered as f64);
        put("edgeos.reject_frac", report.reject_rate());
        let ing = report.ingest.as_ref();
        let sent = ing.map_or(0, |i| i.batches_sent);
        let share = |n: u64| {
            if sent == 0 {
                0.0
            } else {
                n as f64 / sent as f64
            }
        };
        put("ddi.batches_sent", sent as f64);
        put("ddi.retry_frac", share(ing.map_or(0, |i| i.retries)));
        put(
            "ddi.queue_bounce_frac",
            share(ing.map_or(0, |i| i.queue_bounces)),
        );
        put(
            "mobility.crossings",
            report.mobility.as_ref().map_or(0, |m| m.crossings) as f64,
        );
        let tel = report.telemetry.as_ref();
        let spill = tel.and_then(|t| t.spill.as_ref());
        let spill_mib = t.spill_bytes as f64 / MIB;
        put("obs.spill_mb", spill_mib);
        put("obs.spill_mb_per_s", spill_mib / t.wall);
        put("obs.spans_spilled", spill.map_or(0, |s| s.spilled()) as f64);
        put(
            "obs.spill_io_errors",
            spill.map_or(0, |s| s.io_errors()) as f64,
        );
        put(
            "obs.peak_mb_est",
            tel.map_or(0, |t| t.peak_bytes) as f64 / MIB,
        );
        put("ckpt.writes", snapshots.writes.len() as f64);
        put("ckpt.write_s", write_s(report));
        put(
            "ckpt.snapshot_mb",
            snapshots.writes.iter().map(|w| w.bytes).sum::<usize>() as f64 / MIB,
        );
        put(
            "ckpt.rejected_gens",
            snapshots.rejected_generations.len() as f64,
        );
        put("ckpt.decode_ms", tr.self_s("ckpt.decode") * 1e3);
        put("ckpt.newest_valid_ms", tr.self_s("ckpt.newest_valid") * 1e3);
        put("ckpt.restore_s", tr.self_s("ckpt.restore"));
        put(
            "bench.trace_overhead_frac",
            (t.wall - raw_wall_s) / raw_wall_s,
        );
        put("pool.width_speedup", t.width1_wall / raw_wall_s);
        put("pool.submit_us", tr.ns_per_op("pool.submit") / 1e3);
        put("edgeos.admit_ns", tr.ns_per_op("edgeos.admit"));
        put("edgeos.drr_ns", tr.ns_per_op("edgeos.drr"));
        put("ddi.offer_ns", tr.ns_per_op("ddi.offer"));
        put("ddi.write_delay_ns", tr.ns_per_op("ddi.write_delay"));
        put(
            "mobility.track_build_ms",
            tr.self_s("mobility.track_build") * 1e3,
        );
        put("mobility.advance_ns", tr.ns_per_op("mobility.advance"));
        put("obs.absorb_ns", tr.ns_per_op("obs.absorb"));
        put("obs.flush_ms_per_epoch", tr.ns_per_op("obs.flush") / 1e6);
        put("obs.hist_record_ns", tr.ns_per_op("obs.hist_record"));
        put("sim.rng_ns", tr.ns_per_op("sim.rng"));
        put("sim.hist_record_ns", tr.ns_per_op("sim.hist_record"));
        // A layer the workload does not enable did no work.
        for (name, _) in PER_LAYER {
            let layer = name.split('.').next().unwrap_or(name);
            if !layers::enabled(&b.cfg, layer) {
                v.insert(name, (0.0, 0));
            }
        }
    }

    let dir = b.opts.out.join("trace");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let file = dir.join(format!("{}.json", b.w.name));
    std::fs::write(&file, tr.chrome_trace(b.w.name).to_string())
        .unwrap_or_else(|e| panic!("write {}: {e}", file.display()));
    (v, file)
}

/// The checkpoint read side on the store under scratch: find the newest
/// valid generation, read and decode it, and restore a run from it,
/// whose summary must equal `expected`.
fn ckpt_read(b: &mut Bench<'_>, tr: &mut Tracer, cfg: &FleetConfig, expected: &str) -> bool {
    let store = SnapshotStore::in_dir(b.scratch.join("snapshots"))
        .unwrap_or_else(|e| panic!("snapshot store: {e}"));
    let (newest, _) = tr.time("ckpt.newest_valid", 1, 0, || store.newest_valid());
    let Some(newest) = newest else {
        return b.check("a valid snapshot survives", false, || "none".into());
    };
    let generation = newest.generation;
    let decode = tr.open("ckpt.decode");
    let text = store.get(generation).unwrap_or_default();
    let decoded = Snapshot::decode(&text);
    tr.close(decode, 1, text.len() as u64);
    let snapshot = match decoded {
        Ok(snapshot) => snapshot,
        Err(e) => return b.check("newest valid snapshot decodes", false, || e.to_string()),
    };
    let engine =
        FleetEngine::try_new(cfg.clone()).unwrap_or_else(|e| panic!("config rejected: {e}"));
    let restored = tr.time("ckpt.restore", 1, 0, || engine.restore(&snapshot));
    let summary = restored.map(|report| report.summary());
    let ok = summary.as_ref().is_ok_and(|s| s == expected);
    b.check(
        "restore from the newest snapshot matches the run",
        ok,
        || format!("generation {generation}: {summary:?}\n--- run ---\n{expected}"),
    )
}
