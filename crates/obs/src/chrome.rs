//! Chrome trace-event JSON export.
//!
//! Builds the [trace-event format] consumed by `about://tracing` and
//! Perfetto: each request span becomes a `ph: "X"` complete event
//! (timestamps in microseconds of sim time), each registry time series
//! becomes a stream of `ph: "C"` counter events, and `ph: "M"` metadata
//! events name the processes. Spans are grouped with `pid = shard + 1`
//! (the span's `shard` attribute) and `tid = tenant`; counters live
//! under `pid = 0`.
//!
//! Everything is built on the vendored `serde_json` shim, whose
//! `BTreeMap`-backed objects serialize key-sorted — so the exported
//! bytes are a deterministic function of the (already deterministic)
//! span log and registry. The JSONL span dump skips the tree and the
//! writer: each line is fixed key fragments in the same key-sorted
//! order, with every value appended by the shim's own integer and
//! string primitives, so the bytes are the ones `JsonWriter` would
//! emit.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use serde_json::{push_escaped, push_u64, Value};

use vdap_sim::SimTime;

use crate::registry::MetricsRegistry;
use crate::span::{RequestSpan, SpanLog};

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

fn micros(nanos: u64) -> Value {
    Value::from(nanos / 1_000)
}

/// One span as a Chrome `ph: "X"` complete event.
#[must_use]
pub fn span_event(span: &RequestSpan) -> Value {
    let mut args = vec![
        ("vehicle", Value::from(span.vehicle)),
        ("seq", Value::from(span.seq)),
        ("region", Value::from(span.region)),
        ("outcome", Value::from(span.outcome.label())),
        ("retries", Value::from(span.retries)),
        ("requeues", Value::from(span.requeues)),
        ("handoff", Value::from(span.handoff)),
    ];
    if let Some(at) = span.admitted {
        args.push(("admitted_us", micros(at.as_nanos())));
    }
    if let Some(at) = span.serve_start {
        args.push(("serve_start_us", micros(at.as_nanos())));
    }
    object(vec![
        ("name", Value::from(span.class)),
        ("cat", Value::from(span.outcome.label())),
        ("ph", Value::from("X")),
        ("ts", micros(span.generated.as_nanos())),
        ("dur", micros(span.e2e().as_nanos())),
        ("pid", Value::from(span.shard + 1)),
        ("tid", Value::from(span.tenant)),
        ("args", object(args)),
    ])
}

/// The full trace document: span events, counter events from every
/// registry time series, and process-name metadata. Loadable in
/// `about://tracing` and Perfetto.
#[must_use]
pub fn chrome_trace(spans: &SpanLog, registry: &MetricsRegistry) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + 16);

    let mut shards: Vec<u32> = spans.iter().map(|s| s.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    events.push(object(vec![
        ("name", Value::from("process_name")),
        ("ph", Value::from("M")),
        ("pid", Value::from(0u32)),
        ("args", object(vec![("name", Value::from("fleet-metrics"))])),
    ]));
    for shard in shards {
        events.push(object(vec![
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(shard + 1)),
            (
                "args",
                object(vec![("name", Value::from(format!("shard-{shard}")))]),
            ),
        ]));
    }

    for span in spans.iter() {
        events.push(span_event(span));
    }
    for (name, points) in registry.all_series() {
        for p in points {
            events.push(object(vec![
                ("name", Value::from(name)),
                ("ph", Value::from("C")),
                ("ts", micros(p.at.as_nanos())),
                ("pid", Value::from(0u32)),
                ("tid", Value::from(0u32)),
                ("args", object(vec![("value", Value::from(p.value))])),
            ]));
        }
    }

    object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
    ])
}

/// Output bytes reserved per span line: the mean line on telemetry-25k
/// is 234 bytes. A capacity hint only; longer lines just grow the
/// buffer.
const SPAN_LINE_BYTES: usize = 256;

/// Appends an optional instant as nanoseconds, or `null`.
fn push_opt_nanos(out: &mut String, t: Option<SimTime>) {
    match t {
        Some(t) => push_u64(out, t.as_nanos()),
        None => out.push_str("null"),
    }
}

/// The whole log as JSON Lines: one flat span object per line
/// (nanosecond-precision timestamps, keys sorted), canonical span
/// order, trailing newline. This is also the block format
/// [`crate::JsonlSpillSink`] appends to its segments.
///
/// The schema is fixed, so each line is written as literal fragments
/// (separator, quoted key, colon) around its values, and only the
/// values go through the shim's primitives: [`push_u64`] for every
/// integer and [`push_escaped`] for the class and outcome labels. The
/// bytes are exactly what the shim's `JsonWriter` emits for the same
/// object; a differential test against a writer-based reference pins
/// that.
#[must_use]
pub fn spans_jsonl(spans: &SpanLog) -> String {
    let mut out = String::with_capacity(spans.len() * SPAN_LINE_BYTES);
    for span in spans.iter() {
        out.push_str("{\"admitted_ns\":");
        push_opt_nanos(&mut out, span.admitted);
        out.push_str(",\"class\":");
        push_escaped(&mut out, span.class);
        out.push_str(",\"completed_ns\":");
        push_u64(&mut out, span.completed.as_nanos());
        out.push_str(",\"generated_ns\":");
        push_u64(&mut out, span.generated.as_nanos());
        out.push_str(",\"handoff\":");
        out.push_str(if span.handoff { "true" } else { "false" });
        out.push_str(",\"outcome\":");
        push_escaped(&mut out, span.outcome.label());
        out.push_str(",\"region\":");
        push_u64(&mut out, u64::from(span.region));
        out.push_str(",\"requeues\":");
        push_u64(&mut out, u64::from(span.requeues));
        out.push_str(",\"retries\":");
        push_u64(&mut out, u64::from(span.retries));
        out.push_str(",\"seq\":");
        push_u64(&mut out, u64::from(span.seq));
        out.push_str(",\"serve_start_ns\":");
        push_opt_nanos(&mut out, span.serve_start);
        out.push_str(",\"shard\":");
        push_u64(&mut out, u64::from(span.shard));
        out.push_str(",\"tenant\":");
        push_u64(&mut out, u64::from(span.tenant));
        out.push_str(",\"vehicle\":");
        push_u64(&mut out, u64::from(span.vehicle));
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::span::SpanOutcome;

    /// The line writer [`spans_jsonl`] replaced: the same lines through
    /// the shim's `JsonWriter`, one checked token at a time. Kept as the
    /// reference the fragment writer is compared against.
    fn spans_jsonl_reference(spans: &SpanLog) -> String {
        let mut w = serde_json::JsonWriter::with_capacity(spans.len() * SPAN_LINE_BYTES);
        let opt_nanos = |w: &mut serde_json::JsonWriter, t: Option<SimTime>| {
            match t {
                Some(t) => w.u64(t.as_nanos()),
                None => w.null(),
            };
        };
        for span in spans.iter() {
            w.begin_object();
            w.key("admitted_ns");
            opt_nanos(&mut w, span.admitted);
            w.key("class").str(span.class);
            w.key("completed_ns").u64(span.completed.as_nanos());
            w.key("generated_ns").u64(span.generated.as_nanos());
            w.key("handoff").bool(span.handoff);
            w.key("outcome").str(span.outcome.label());
            w.key("region").u32(span.region);
            w.key("requeues").u32(span.requeues);
            w.key("retries").u32(span.retries);
            w.key("seq").u32(span.seq);
            w.key("serve_start_ns");
            opt_nanos(&mut w, span.serve_start);
            w.key("shard").u32(span.shard);
            w.key("tenant").u32(span.tenant);
            w.key("vehicle").u32(span.vehicle);
            w.end_object().end_line();
        }
        w.into_string()
    }

    /// Class labels: the fleet's three workload classes, and labels
    /// holding every kind of byte the escaper treats specially.
    const CLASSES: [&str; 8] = [
        "detection",
        "infotainment",
        "pbeam-training",
        "say \"hi\"",
        "C:\\traces",
        "line\nbreak",
        "bell\u{1}",
        "détection",
    ];

    /// A seeded stream of arbitrary span fields.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = vdap_sim::splitmix64(self.0);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A `u32` at either end of its range or anywhere between.
        fn u32(&mut self) -> u32 {
            match self.below(4) {
                0 => 0,
                1 => u32::MAX,
                _ => self.next() as u32 >> self.below(32),
            }
        }

        /// An instant at either end of the clock or anywhere between.
        fn time(&mut self) -> SimTime {
            SimTime::from_nanos(match self.below(4) {
                0 => 0,
                1 => u64::MAX,
                _ => self.next() >> self.below(64),
            })
        }

        fn opt_time(&mut self) -> Option<SimTime> {
            (self.below(3) != 0).then(|| self.time())
        }

        /// A log of 0–64 spans whose every field is drawn on its own.
        fn log(&mut self) -> SpanLog {
            let mut log = SpanLog::new();
            for _ in 0..self.below(65) {
                log.push(RequestSpan {
                    vehicle: self.u32(),
                    seq: self.u32(),
                    tenant: self.u32(),
                    region: self.u32(),
                    shard: self.u32(),
                    class: CLASSES[self.below(CLASSES.len() as u64) as usize],
                    generated: self.time(),
                    admitted: self.opt_time(),
                    serve_start: self.opt_time(),
                    completed: self.time(),
                    outcome: SpanOutcome::ALL[self.below(6) as usize],
                    retries: self.u32(),
                    requeues: self.u32(),
                    handoff: self.below(2) == 1,
                });
            }
            log
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fragment_writer_matches_the_json_writer(seed in any::<u64>()) {
            let log = Draws(seed).log();
            prop_assert_eq!(spans_jsonl(&log), spans_jsonl_reference(&log));
        }
    }

    fn sample_log() -> (SpanLog, MetricsRegistry) {
        let mut log = SpanLog::new();
        log.push(RequestSpan {
            vehicle: 7,
            seq: 2,
            tenant: 3,
            region: 1,
            shard: 0,
            class: "detection",
            generated: SimTime::from_nanos(1_500_000),
            admitted: Some(SimTime::from_nanos(2_000_000)),
            serve_start: Some(SimTime::from_nanos(2_250_000)),
            completed: SimTime::from_nanos(9_500_000),
            outcome: SpanOutcome::EdgeServed,
            retries: 1,
            requeues: 0,
            handoff: true,
        });
        log.push(RequestSpan {
            vehicle: 9,
            seq: 0,
            tenant: 1,
            region: 4,
            shard: 1,
            class: "pbeam-training",
            generated: SimTime::from_nanos(3_000_000),
            admitted: None,
            serve_start: None,
            completed: SimTime::from_nanos(13_000_000),
            outcome: SpanOutcome::Skipped,
            retries: 0,
            requeues: 2,
            handoff: false,
        });
        let mut registry = MetricsRegistry::new();
        registry.sample(
            "xedge.queue_depth",
            0,
            SimTime::from_nanos(500_000_000),
            4.0,
        );
        registry.sample("xedge.queue_depth", 1, SimTime::from_secs(1), 9.0);
        (log, registry)
    }

    #[test]
    fn trace_round_trips_through_the_serde_shim() {
        let (log, registry) = sample_log();
        let doc = chrome_trace(&log, &registry);
        let text = serde_json::to_string(&doc).expect("serialize");
        let back = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, doc, "export must survive a serialize/parse cycle");
        // And the re-serialized bytes are stable (deterministic export).
        assert_eq!(serde_json::to_string(&back).expect("serialize"), text);
    }

    #[test]
    fn trace_has_span_counter_and_metadata_events() {
        let (log, registry) = sample_log();
        let doc = chrome_trace(&log, &registry);
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 2 spans + 2 counter points + 3 process_name records
        // (metrics pid plus shards 0 and 1).
        assert_eq!(events.len(), 7);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn span_event_uses_microseconds() {
        let (log, _) = sample_log();
        let ev = span_event(&log.spans()[0]);
        assert_eq!(ev.get("ts").and_then(Value::as_u64), Some(1_500));
        assert_eq!(ev.get("dur").and_then(Value::as_u64), Some(8_000));
        assert_eq!(ev.get("pid").and_then(Value::as_u64), Some(1));
        let args = ev.get("args").expect("args");
        assert_eq!(args.get("admitted_us").and_then(Value::as_u64), Some(2_000));
        assert_eq!(
            args.get("outcome").and_then(Value::as_str),
            Some("edge-served")
        );
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let (log, _) = sample_log();
        let dump = spans_jsonl(&log);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = serde_json::from_str(line).expect("line parses");
            assert!(v.get("vehicle").is_some());
            assert!(v.get("completed_ns").is_some());
        }
        let second = serde_json::from_str(lines[1]).expect("parse");
        assert_eq!(second.get("admitted_ns"), Some(&Value::Null));
        assert_eq!(second.get("requeues").and_then(Value::as_u64), Some(2));
    }
}
