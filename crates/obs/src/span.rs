//! Typed request spans: one record per fleet request, from generation
//! to its terminal outcome.
//!
//! A span is *derived data*: the fleet engine builds it from the
//! request's outcome record at the barrier that records the outcome,
//! and every timestamp in it is a sim-time value the engine already
//! computed on the deterministic serving path (request arrival, the
//! epoch barrier that admitted it, the lane start instant, the
//! completion instant). Spans therefore inherit the engine's invariance
//! to executor width and batch size: the same seed yields the same
//! spans, field for field.

use vdap_sim::{SimDuration, SimTime};

/// The terminal state of one request's lifecycle.
///
/// Exactly one outcome per request: the six variants partition the
/// request stream the same way `FleetMetrics`' outcome counters do,
/// which is what the span/metrics reconciliation property test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanOutcome {
    /// Served by the XEdge deployment (includes rung-1 retry rescues
    /// and rung-2 neighbor-region handoffs — see the span's `retries`
    /// and `handoff` attributes).
    EdgeServed,
    /// Satisfied from a V2V-shared neighbour result over DSRC.
    CollabHit,
    /// Regional LTE outage: re-planned and ran on-board.
    Failover,
    /// Bounced by per-tenant admission control under nominal quotas.
    Rejected,
    /// Fell to rung-3 local degraded execution.
    LocalFallback,
    /// A pBEAM training round skipped at rung 3 (nothing ran; training
    /// converges a round later).
    Skipped,
}

impl SpanOutcome {
    /// Every outcome, in canonical order.
    pub const ALL: [SpanOutcome; 6] = [
        SpanOutcome::EdgeServed,
        SpanOutcome::CollabHit,
        SpanOutcome::Failover,
        SpanOutcome::Rejected,
        SpanOutcome::LocalFallback,
        SpanOutcome::Skipped,
    ];

    /// Stable text label (used in exports and trace categories).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SpanOutcome::EdgeServed => "edge-served",
            SpanOutcome::CollabHit => "collab-hit",
            SpanOutcome::Failover => "failover",
            SpanOutcome::Rejected => "rejected",
            SpanOutcome::LocalFallback => "local-fallback",
            SpanOutcome::Skipped => "skipped",
        }
    }

    /// Parses a label produced by [`SpanOutcome::label`] (checkpoint
    /// restore reads outcomes back from their stable text form).
    #[must_use]
    pub fn from_label(label: &str) -> Option<SpanOutcome> {
        SpanOutcome::ALL.into_iter().find(|o| o.label() == label)
    }

    /// True for the happy-path outcomes (edge-served, collab hits) —
    /// the only spans telemetry sampling is allowed to drop. Everything on
    /// the degradation ladder (failover, rejection, local fallback,
    /// skipped rounds) is kept unconditionally: rare-event telemetry is
    /// the part you can least afford to sample away.
    #[must_use]
    pub const fn is_ok_path(self) -> bool {
        matches!(self, SpanOutcome::EdgeServed | SpanOutcome::CollabHit)
    }
}

impl std::fmt::Display for SpanOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One request's lifecycle: generate → admit → serve → complete, with
/// the degradation-ladder detours recorded as attributes.
///
/// Timestamp semantics:
/// - `generated` — the vehicle tick that issued the request.
/// - `admitted` — the epoch barrier at which the serving pass that
///   decided the request's fate ran. `None` for requests resolved on
///   the vehicle side (collab hits, regional-outage failovers) or
///   bounced at the admission gate before entering the queue.
/// - `serve_start` — the instant the request began occupying an XEdge
///   lane (or the reconstructed start of a successful rung-1 retry).
///   `None` when nothing ever ran at the edge.
/// - `completed` — when the vehicle had its answer (all outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Fleet-wide vehicle id.
    pub vehicle: u32,
    /// Per-vehicle request sequence number.
    pub seq: u32,
    /// Owning service tenant.
    pub tenant: u32,
    /// LTE region the vehicle was driving in.
    pub region: u32,
    /// Trace process group. The fleet engine stamps 0; the field names
    /// the Chrome trace process the span is drawn under.
    pub shard: u32,
    /// Workload-class label, shared by every span of the class.
    pub class: &'static str,
    /// When the vehicle issued the request.
    pub generated: SimTime,
    /// The epoch barrier whose serving pass decided this request.
    pub admitted: Option<SimTime>,
    /// When the request started occupying an XEdge lane.
    pub serve_start: Option<SimTime>,
    /// When the vehicle had its answer.
    pub completed: SimTime,
    /// Terminal outcome.
    pub outcome: SpanOutcome,
    /// Rung-1 retry probes spent on this request.
    pub retries: u32,
    /// Times the request was re-queued off a crashed lane.
    pub requeues: u32,
    /// Whether the request was served through a neighbor region's node
    /// (rung 2).
    pub handoff: bool,
}

impl RequestSpan {
    /// End-to-end latency: `completed - generated`.
    #[must_use]
    pub fn e2e(&self) -> SimDuration {
        self.completed.duration_since(self.generated)
    }

    /// The canonical sort key: `(generated, vehicle, seq)` — unique per
    /// request, so sorting by it is total and independent of the order
    /// spans were produced in.
    #[must_use]
    pub fn key(&self) -> (SimTime, u32, u32) {
        (self.generated, self.vehicle, self.seq)
    }
}

/// An append-only log of request spans with a canonical order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    spans: Vec<RequestSpan>,
}

impl SpanLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Appends a span.
    pub fn push(&mut self, span: RequestSpan) {
        self.spans.push(span);
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The recorded spans, in their current order.
    #[must_use]
    pub fn spans(&self) -> &[RequestSpan] {
        &self.spans
    }

    /// Iterates the recorded spans.
    pub fn iter(&self) -> impl Iterator<Item = &RequestSpan> {
        self.spans.iter()
    }

    /// Sorts the log into canonical `(generated, vehicle, seq)` order.
    /// The key is unique per request, so the result is independent of
    /// insertion order.
    pub fn sort_canonical(&mut self) {
        self.spans.sort_unstable_by_key(RequestSpan::key);
    }

    /// Keeps only the spans for which `keep` returns true, preserving
    /// order; returns how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&RequestSpan) -> bool) -> u64 {
        let before = self.spans.len();
        self.spans.retain(|s| keep(s));
        (before - self.spans.len()) as u64
    }

    /// Spans that ended with `outcome`.
    #[must_use]
    pub fn outcome_count(&self, outcome: SpanOutcome) -> u64 {
        self.spans.iter().filter(|s| s.outcome == outcome).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(vehicle: u32, seq: u32, at: u64, outcome: SpanOutcome) -> RequestSpan {
        RequestSpan {
            vehicle,
            seq,
            tenant: vehicle % 4,
            region: 0,
            shard: vehicle % 2,
            class: "detection",
            generated: SimTime::from_nanos(at),
            admitted: None,
            serve_start: None,
            completed: SimTime::from_nanos(at + 500),
            outcome,
            retries: 0,
            requeues: 0,
            handoff: false,
        }
    }

    #[test]
    fn canonical_sort_is_insertion_order_independent() {
        let mut a = SpanLog::new();
        let mut b = SpanLog::new();
        let spans = [
            span(3, 0, 700, SpanOutcome::EdgeServed),
            span(1, 0, 100, SpanOutcome::CollabHit),
            span(1, 1, 700, SpanOutcome::Rejected),
        ];
        for s in &spans {
            a.push(s.clone());
        }
        for s in spans.iter().rev() {
            b.push(s.clone());
        }
        a.sort_canonical();
        b.sort_canonical();
        assert_eq!(a, b);
        assert_eq!(a.spans()[0].vehicle, 1);
        assert_eq!(a.spans()[1].vehicle, 1);
        assert_eq!(a.spans()[2].vehicle, 3);
    }

    #[test]
    fn retain_reports_dropped_count() {
        let mut log = SpanLog::new();
        log.push(span(0, 0, 0, SpanOutcome::EdgeServed));
        log.push(span(1, 0, 1, SpanOutcome::Rejected));
        log.push(span(2, 0, 2, SpanOutcome::EdgeServed));
        let dropped = log.retain(|s| !s.outcome.is_ok_path());
        assert_eq!(dropped, 2);
        assert_eq!(log.len(), 1);
        assert_eq!(log.spans()[0].outcome, SpanOutcome::Rejected);
    }

    #[test]
    fn ok_path_partitions_the_outcomes() {
        let ok: Vec<_> = SpanOutcome::ALL.iter().filter(|o| o.is_ok_path()).collect();
        assert_eq!(ok, vec![&SpanOutcome::EdgeServed, &SpanOutcome::CollabHit]);
    }

    #[test]
    fn outcome_counts_partition_the_log() {
        let mut log = SpanLog::new();
        log.push(span(0, 0, 0, SpanOutcome::EdgeServed));
        log.push(span(1, 0, 1, SpanOutcome::EdgeServed));
        log.push(span(2, 0, 2, SpanOutcome::Skipped));
        let total: u64 = SpanOutcome::ALL.iter().map(|&o| log.outcome_count(o)).sum();
        assert_eq!(total, log.len() as u64);
        assert_eq!(log.outcome_count(SpanOutcome::EdgeServed), 2);
    }
}
