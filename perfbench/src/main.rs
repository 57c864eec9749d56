//! Command line of the fleet-engine benchmark.
//!
//! ```text
//! vdap-perf [--seed N] [--seconds S]
//!     every workload, each in a child process of this binary, one at a
//!     time; writes target/results.json and target/trace/<workload>.json
//! vdap-perf --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of standard output is
//!     one JSON object with its correctness and metrics
//! vdap-perf --compare A.json B.json
//!     checks results B against results A within the bounds in
//!     BENCHMARK.json, next to this package
//! ```
//!
//! A workload is always measured in a child process of this binary,
//! started with fixed allocator settings (see `MALLOC_TUNABLES`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::Value;
use vdap_perf::results::{self, SCHEMA};
use vdap_perf::run::{run_workload, Options};
use vdap_perf::workload::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: vdap-perf [--workload W [--trace 0|1]] [--seed N] [--seconds S]\n       \
                     vdap-perf --compare A.json B.json";

/// Marks the process that measures a workload.
const MEASURING: &str = "VDAP_PERF_MEASURING";

/// glibc malloc settings of every measuring process. Under the defaults
/// glibc's dynamic mmap threshold settles differently from one process
/// to the next, so the engine either re-faults ~290k pages per serve-5k
/// run (0.8-1.2 s, half of it in the kernel) or none (0.45 s), and run
/// medians jumped between the two; and with one arena per thread, peak
/// RSS at a fixed seed varied by 15% with the thread interleaving.
/// Fixed thresholds keep freed memory in the heap and a single arena
/// makes the heap layout repeat; every commit is measured under the
/// same settings.
const MALLOC_TUNABLES: &str = "glibc.malloc.trim_threshold=1073741824:\
                               glibc.malloc.mmap_threshold=33554432:glibc.malloc.arena_max=1";

/// A command that runs this binary as a measuring process.
fn measuring(exe: &Path) -> Command {
    let mut cmd = Command::new(exe);
    cmd.env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .env(MEASURING, "1");
    cmd
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Results, traces and scratch files all live under the package's
/// `target/` directory.
fn out_dir() -> PathBuf {
    manifest_dir().join("target")
}

enum Cmd {
    All {
        seed: u64,
        seconds: f64,
    },
    One {
        workload: &'static Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two files")?);
                compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(match (compare, workload) {
        (Some((a, b)), _) => Cmd::Compare { a, b },
        (None, Some(workload)) => Cmd::One {
            workload,
            seed,
            seconds,
            trace,
        },
        (None, None) => Cmd::All { seed, seconds },
    })
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_doc_path(out: &Path, workload: &str) -> PathBuf {
    out.join("runs").join(format!("{workload}.json"))
}

fn one(workload: &'static Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let opts = Options {
        seed,
        seconds,
        trace,
        scale_div: 1,
        out: out_dir(),
    };
    let result = run_workload(workload, &opts);
    for line in results::human_lines(&result) {
        println!("{line}");
    }
    let doc = run_doc_path(&opts.out, workload.name);
    let written = std::fs::create_dir_all(doc.parent().expect("runs dir has a parent"))
        .and_then(|()| std::fs::write(&doc, results::run_doc(&result, &opts).to_string()));
    if let Err(e) = written {
        eprintln!("vdap-perf: cannot write {}: {e}", doc.display());
        return ExitCode::FAILURE;
    }
    println!("{}", results::result_line(&result, trace));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// HEAD of the repository the benchmark was built from, if it is a git
/// checkout.
fn git_rev() -> Value {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(manifest_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or(Value::Null, |s| Value::from(s.trim()))
}

fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let started = Instant::now();
    let out = out_dir();
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut docs = std::collections::BTreeMap::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        // A fresh process per workload, one at a time: VmHWM belongs to
        // that workload alone and no two workloads share the cores.
        let doc_path = run_doc_path(&out, w.name);
        let _ = std::fs::remove_file(&doc_path);
        let child = measuring(&exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.pop();
        for line in lines {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        all_ok &= child.status.success();
        match read_json(&doc_path) {
            Ok(doc) => {
                docs.insert(w.name.to_string(), doc);
            }
            Err(e) => {
                eprintln!("vdap-perf: {} left no run document: {e}", w.name);
                all_ok = false;
            }
        }
    }
    let mut host = results::host();
    if let Value::Object(fields) = &mut host {
        fields.insert("git_rev".into(), git_rev());
    }
    let total_s = started.elapsed().as_secs_f64();
    let doc = vdap_perf::trace::object([
        ("schema", Value::from(SCHEMA)),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("host", host),
        ("total_s", Value::from(total_s)),
        ("workloads", Value::Object(docs)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results {}", path.display());
    println!("total {total_s:.1} s");
    Ok(all_ok)
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = read_json(&manifest_dir().join("../BENCHMARK.json"))?;
    let (lines, ok) = results::compare(&read_json(a)?, &read_json(b)?, &bounds)?;
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("vdap-perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd {
        Cmd::One {
            workload,
            seed,
            seconds,
            trace,
        } if std::env::var_os(MEASURING).is_some() => {
            return one(workload, seed, seconds, trace);
        }
        // Measure in a fresh child under fixed allocator settings; its
        // output, including the final result line, is this process's.
        Cmd::One { .. } => {
            return match std::env::current_exe()
                .and_then(|exe| measuring(&exe).args(&args).status())
            {
                Ok(status) => status
                    .code()
                    .and_then(|c| u8::try_from(c).ok())
                    .map_or(ExitCode::FAILURE, ExitCode::from),
                Err(e) => {
                    eprintln!("vdap-perf: cannot start the measuring process: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Cmd::All { seed, seconds } => all(seed, seconds),
        Cmd::Compare { a, b } => compare(&a, &b),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("vdap-perf: {msg}");
            ExitCode::from(2)
        }
    }
}
