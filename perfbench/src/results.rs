//! Result documents: the one-line result a single-workload run ends
//! with, the per-workload run document, the full results file, and the
//! `--compare` check of two results files against the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use serde_json::Value;
use vdap_fleet::WorkerPool;

use crate::run::{Metric, Options, WorkloadResult};
use crate::trace::object;

/// Version of the run-document and results-file layout.
pub const SCHEMA: &str = "vdap-perf/1";

/// The machine the numbers came from: cores, the engine's default
/// executor width, and the kernel release (null off Linux).
#[must_use]
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or(Value::Null, |s| Value::from(s.trim()));
    object([
        ("nproc", Value::from(nproc as u64)),
        (
            "executor_width",
            Value::from(WorkerPool::with_default_size().threads() as u64),
        ),
        ("kernel", kernel),
    ])
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = BTreeMap::new();
                fields.insert("value".to_string(), Value::from(m.value));
                fields.insert("unit".to_string(), Value::from(m.unit));
                if with_samples {
                    fields.insert("samples".to_string(), Value::from(m.samples as u64));
                }
                (m.name.to_string(), Value::Object(fields))
            })
            .collect(),
    )
}

/// The single-line result: correctness, attempt counts, and the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
#[must_use]
pub fn result_line(r: &WorkloadResult, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    object([
        ("correct", Value::from(r.correct())),
        ("attempted", Value::from(r.attempted)),
        ("failed", Value::from(r.failed)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .to_string()
}

/// `failed / attempted`.
#[must_use]
pub fn failed_frac(r: &WorkloadResult) -> f64 {
    r.failed as f64 / r.attempted.max(1) as f64
}

/// Everything one workload run produced, as a JSON document.
#[must_use]
pub fn run_doc(r: &WorkloadResult, opts: &Options) -> Value {
    let checks = r
        .checks
        .iter()
        .map(|c| {
            object([
                ("name", Value::from(c.name)),
                ("ok", Value::from(c.ok)),
                ("detail", Value::from(c.detail.as_str())),
            ])
        })
        .collect();
    object([
        ("schema", Value::from(SCHEMA)),
        ("workload", Value::from(r.workload)),
        ("vehicles", Value::from(r.vehicles)),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("host", host()),
        ("correct", Value::from(r.correct())),
        ("attempted", Value::from(r.attempted)),
        ("failed", Value::from(r.failed)),
        ("failed_frac", Value::from(failed_frac(r))),
        ("checks", Value::Array(checks)),
        (
            "summary_fnv1a",
            r.summary_fnv1a
                .map_or(Value::Null, |h| Value::from(format!("{h:016x}"))),
        ),
        ("end_to_end", metrics_json(&r.end_to_end, true)),
        ("raw", metrics_json(&r.raw, true)),
        ("per_layer", metrics_json(&r.per_layer, true)),
        (
            "samples",
            Value::Object(
                r.samples
                    .iter()
                    .map(|(name, values)| {
                        let values = values.iter().map(|&v| Value::from(v)).collect();
                        ((*name).to_string(), Value::Array(values))
                    })
                    .collect(),
            ),
        ),
        (
            "trace",
            r.trace_file
                .as_ref()
                .map_or(Value::Null, |p| Value::from(p.display().to_string())),
        ),
    ])
}

/// One `<workload> <name> <value> <unit> (n=<samples>)` line per
/// metric, then the failure share, checks, summary hash and trace.
#[must_use]
pub fn human_lines(r: &WorkloadResult) -> Vec<String> {
    let w = r.workload;
    let mut lines: Vec<String> = r
        .end_to_end
        .iter()
        .chain(&r.raw)
        .chain(&r.per_layer)
        .map(|m| format!("{w} {} {:.6} {} (n={})", m.name, m.value, m.unit, m.samples))
        .collect();
    lines.push(format!(
        "{w} failed_frac {:.6} ratio (n={})",
        failed_frac(r),
        r.attempted
    ));
    for c in &r.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        lines.push(format!("{w} check {verdict}: {} {}", c.name, c.detail));
    }
    if let Some(h) = r.summary_fnv1a {
        lines.push(format!("{w} summary_fnv1a {h:016x} (informational)"));
    }
    if let Some(file) = &r.trace_file {
        lines.push(format!("{w} trace {}", file.display()));
    }
    lines
}

fn metric_value(results: &Value, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compares results file `b` against `a`: every (workload, end-to-end
/// metric) pair of `a` must be no worse in `b` than the bound
/// `benchmark` (the parsed `BENCHMARK.json`) fixes for that metric, and
/// `b` may fail no larger share of its attempts. Returns one line per
/// pair and whether every pair held.
///
/// # Errors
///
/// When `benchmark` lists no end-to-end metrics or `a` no workloads.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<(Vec<String>, bool), String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let Some(Value::Object(workloads)) = a.get("workloads") else {
        return Err("first results file has no workloads".into());
    };
    let mut lines = vec![format!(
        "{:<14} {:<13} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    )];
    let mut all_ok = true;
    for (workload, doc_a) in workloads {
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let va = metric_value(a, workload, name).unwrap_or(f64::NAN);
            let vb = metric_value(b, workload, name).unwrap_or(f64::NAN);
            let delta = (vb - va) / va;
            let worse = if lower { delta } else { -delta };
            // NaN (a missing or failed reading) never passes.
            let ok = worse <= bound;
            all_ok &= ok;
            lines.push(format!(
                "{workload:<14} {name:<13} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>5.1}%  {}",
                delta * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "REGRESSION" }
            ));
        }
        let frac = |doc: Option<&Value>| {
            doc.and_then(|d| d.get("failed_frac"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let fa = frac(Some(doc_a));
        let fb = frac(b.get("workloads").and_then(|w| w.get(workload)));
        let ok = fb <= fa;
        all_ok &= ok;
        lines.push(format!(
            "{workload:<14} {:<13} {fa:>14.6} {fb:>14.6} {:>9} {:>5.1}%  {}",
            "failed_frac",
            "",
            0.0,
            if ok { "ok" } else { "REGRESSION" }
        ));
    }
    Ok((lines, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(wall: f64, rate: f64, failed_frac: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"workloads": {{"w": {{"failed_frac": {failed_frac},
                "end_to_end": {{"wall_s": {{"value": {wall}}},
                                "events_per_s": {{"value": {rate}}}}}}}}}}}"#
        ))
        .expect("valid json")
    }

    fn benchmark() -> Value {
        serde_json::from_str(
            r#"{"end_to_end": [
                {"name": "wall_s", "better": "lower", "bound": 0.1},
                {"name": "events_per_s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("valid json")
    }

    #[test]
    fn within_bounds_passes_in_both_directions() {
        let (_, ok) = compare(
            &results(1.0, 100.0, 0.0),
            &results(1.09, 91.0, 0.0),
            &benchmark(),
        )
        .expect("comparable");
        assert!(ok);
    }

    #[test]
    fn a_slower_wall_or_lower_rate_past_the_bound_fails() {
        let bench = benchmark();
        let base = results(1.0, 100.0, 0.0);
        assert!(
            !compare(&base, &results(1.2, 100.0, 0.0), &bench)
                .expect("comparable")
                .1
        );
        assert!(
            !compare(&base, &results(1.0, 80.0, 0.0), &bench)
                .expect("comparable")
                .1
        );
    }

    #[test]
    fn more_failures_or_a_missing_workload_fail() {
        let bench = benchmark();
        let base = results(1.0, 100.0, 0.0);
        assert!(
            !compare(&base, &results(1.0, 100.0, 0.1), &bench)
                .expect("comparable")
                .1
        );
        let empty = serde_json::from_str(r#"{"workloads": {}}"#).expect("valid json");
        assert!(!compare(&base, &empty, &bench).expect("comparable").1);
    }
}
