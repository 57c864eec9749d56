//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as one Chrome trace (Perfetto-loadable) per
//! workload when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One timed call: when it ran, which span caused it, and how much
/// work it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `<layer>.<operation>`, e.g. `edgeos.admit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Operations performed inside the span.
    pub ops: u64,
    /// Bytes moved inside the span.
    pub bytes: u64,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to: its name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span's duration minus the part of its interval that its direct
/// children cover. Children may overlap each other; the covered part
/// is their union, clipped to the parent.
#[must_use]
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(lo, hi)| hi > lo)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (lo, hi) in kids {
        run = match run {
            Some((run_lo, run_hi)) if lo <= run_hi => Some((run_lo, run_hi.max(hi))),
            Some((run_lo, run_hi)) => {
                covered += run_hi - run_lo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    if let Some((run_lo, run_hi)) = run {
        covered += run_hi - run_lo;
    }
    parent.dur_ns() - covered
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            ops: 0,
            bytes: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`. Spans opened inside it and still open (left
    /// behind by a panic) end with it.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not open.
    pub fn close(&mut self, id: usize, ops: u64, bytes: u64) {
        assert!(self.open.contains(&id), "span {id} is not open");
        let end_ns = self.now_ns();
        while let Some(inner) = self.open.pop() {
            self.spans[inner].end_ns = end_ns;
            if inner == id {
                break;
            }
        }
        let span = &mut self.spans[id];
        span.ops = ops;
        span.bytes = bytes;
    }

    /// Runs `f` inside a span named `name` carrying the given counts.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        ops: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, ops, bytes);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (ns) and ops over every span named `name`.
    #[must_use]
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, ops), s| {
                (ns + self_time_ns(&self.spans, s.id), ops + s.ops)
            })
    }

    /// Self time per operation over every span named `name`, in ns
    /// (NaN when no span of that name did any work).
    #[must_use]
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (ns, ops) = self.totals(name);
        ns as f64 / ops as f64
    }

    /// Total self time over every span named `name`, in seconds.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        self.totals(name).0 as f64 / 1e9
    }

    /// The spans as a Chrome trace-event document: one complete ("X")
    /// event per span on a single track, timestamps in microseconds,
    /// with id, parent, work counts and self time as arguments.
    #[must_use]
    pub fn chrome_trace(&self, process: &str) -> Value {
        let mut events = vec![object([
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(1u32)),
            ("args", object([("name", Value::from(process))])),
        ])];
        for s in &self.spans {
            events.push(object([
                ("name", Value::from(s.name)),
                ("cat", Value::from(s.layer())),
                ("ph", Value::from("X")),
                ("pid", Value::from(1u32)),
                ("tid", Value::from(1u32)),
                ("ts", Value::from(s.start_ns as f64 / 1e3)),
                ("dur", Value::from(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    object([
                        ("id", Value::from(s.id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("ops", Value::from(s.ops)),
                        ("bytes", Value::from(s.bytes)),
                        (
                            "self_us",
                            Value::from(self_time_ns(&self.spans, s.id) as f64 / 1e3),
                        ),
                    ]),
                ),
            ]));
        }
        object([
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            start_ns,
            end_ns,
            ops: 1,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40), so together they cover 50 ns, not 60.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 90),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_parent_twice() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 10, 20),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 0, 15)];
        assert_eq!(self_time_ns(&spans, 0), 5);
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut tr = Tracer::new();
        let root = tr.open("bench.root");
        let sum = tr.time("sim.work", 3, 24, || (0..1000u64).sum::<u64>());
        tr.close(root, 0, 0);
        assert_eq!(sum, 499_500);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!((spans[1].ops, spans[1].bytes), (3, 24));
        assert_eq!(tr.totals("sim.work").1, 3);
        let doc = tr.chrome_trace("unit");
        let text = doc.to_string();
        assert_eq!(serde_json::from_str(&text).expect("re-parses"), doc);
    }

    #[test]
    fn closing_a_parent_ends_children_left_open() {
        let mut tr = Tracer::new();
        let root = tr.open("bench.root");
        let abandoned = tr.open("fleet.run");
        tr.close(root, 0, 0);
        let spans = tr.spans();
        assert_eq!(spans[abandoned].end_ns, spans[root].end_ns);
        let next = tr.open("bench.next");
        assert_eq!(tr.spans()[next].parent, None);
    }
}
