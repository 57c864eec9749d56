//! Every workload at 1/100 scale: every metric `BENCHMARK.json` names
//! is emitted, finite and in its unit, every check holds, and the
//! trace, run document and result line re-parse.

use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::Value;
use vdap_perf::layers::enabled;
use vdap_perf::results::{result_line, run_doc};
use vdap_perf::run::{run_workload, Metric, Options};
use vdap_perf::workload::WORKLOADS;

/// Fleets run at 1/100 of their benchmark size.
const SMOKE_SCALE: u32 = 100;

fn parse(text: &str) -> Value {
    serde_json::from_str(text).expect("re-parses through the serde_json shim")
}

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("string field")
}

/// `(name, unit)` of every entry in one of BENCHMARK.json's lists.
fn listed(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn assert_emitted(workload: &str, list: &[(String, String)], metrics: &[Metric]) {
    assert_eq!(
        metrics.len(),
        list.len(),
        "{workload}: emits exactly the listed metrics"
    );
    for (name, unit) in list {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
        assert_eq!(m.unit, unit, "{workload}: unit of {name}");
    }
}

#[test]
fn every_workload_at_one_hundredth_scale() {
    let started = Instant::now();
    let bench = benchmark();
    let workloads: Vec<(&str, &str)> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect::<Vec<_>>(),
        "BENCHMARK.json lists the benchmark's workloads"
    );
    let end_to_end = listed(&bench, "end_to_end");
    let per_layer = listed(&bench, "per_layer");
    let opts = Options {
        seed: 7,
        seconds: 0.0,
        trace: true,
        scale_div: SMOKE_SCALE,
        out: Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    };
    for w in &WORKLOADS {
        let r = run_workload(w, &opts);
        assert!(r.correct(), "{}: {:#?}", w.name, r.checks);
        assert_emitted(w.name, &end_to_end, &r.end_to_end);
        assert_emitted(w.name, &per_layer, &r.per_layer);
        let cfg = w.config(opts.seed, SMOKE_SCALE, &opts.out);
        let epochs = r
            .per_layer
            .iter()
            .find(|m| m.name == "fleet.epochs")
            .map(|m| m.value);
        assert_eq!(
            epochs,
            Some(cfg.total_epochs() as f64),
            "{}: the fleet profile covers every epoch",
            w.name
        );

        let trace_file = r.trace_file.as_ref().expect("traced run writes a trace");
        let trace = parse(&std::fs::read_to_string(trace_file).expect("trace written"));
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("trace events");
        for layer in [
            "fleet", "pool", "edgeos", "ddi", "mobility", "obs", "ckpt", "sim",
        ] {
            let traced = events
                .iter()
                .any(|e| e.get("cat").and_then(Value::as_str) == Some(layer));
            assert_eq!(
                traced,
                enabled(&cfg, layer),
                "{}: a {layer} span in the trace exactly when the layer is on",
                w.name
            );
        }

        let doc = run_doc(&r, &opts);
        assert_eq!(parse(&doc.to_string()), doc, "{}: run document", w.name);
        for traced in [false, true] {
            let Value::Object(line) = parse(&result_line(&r, traced)) else {
                panic!("result line is an object");
            };
            let keys: Vec<&str> = line.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }
    let _ = std::fs::remove_dir_all(&opts.out);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "smoke run took {:?}",
        started.elapsed()
    );
}
