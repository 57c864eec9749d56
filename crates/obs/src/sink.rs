//! Streaming span sinks: where drained request spans go.
//!
//! The fleet engine drains spans at epoch barriers. Historically they
//! all accumulated in one in-memory [`SpanLog`], which grows linearly
//! with fleet size × run length. This module makes the destination
//! pluggable behind [`SpanSink`] with three implementations:
//!
//! - [`MemorySpanSink`] — the original unbounded in-memory log.
//! - [`JsonlSpillSink`] — a segment-rotating spill-to-disk writer:
//!   buffered spans are sorted into canonical `(generated, vehicle,
//!   seq)` order and appended to `spans-NNNNN.jsonl` segments at epoch
//!   barriers, freeing the memory. Each block is exactly what
//!   [`crate::spans_jsonl`] emits for the buffered spans.
//! - [`SamplingSpanSink`] — deterministic head sampling: every
//!   non-OK-path span (rejected / degraded / failed) is kept, OK spans
//!   (edge-served, collab hits) are kept one-in-N by a seeded hash of
//!   `(vehicle, seq)`. The hash reads nothing about how the run was
//!   scheduled, so the kept set is **executor-width- and
//!   batch-size-free** — a wide run samples exactly the same spans as a
//!   one-worker run of the same seed.
//!
//! Disk I/O is wall-clock territory: write failures are counted
//! (`io_errors`), never panicked on, and nothing about *what* was
//! sampled or buffered depends on whether a write succeeded.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use vdap_sim::splitmix64;

use crate::chrome::spans_jsonl;
use crate::span::{RequestSpan, SpanLog};

/// Bytes one resident span is accounted as (struct size; the `class`
/// pointer's interned string is shared and not counted).
pub const SPAN_RESIDENT_BYTES: u64 = std::mem::size_of::<RequestSpan>() as u64;

/// Default byte size at which [`JsonlSpillSink`] rotates to a new
/// segment file.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Deterministic keep/drop decision for an OK-path span.
///
/// A span is kept when the [`splitmix64`] finalizer of
/// `seed ^ (vehicle << 32 | seq)` is `0 (mod keep_one_in)`. The inputs
/// are request identity only — no worker, batch, or insertion order —
/// which is exactly why the sampled set survives any re-scheduling of
/// the fleet. `keep_one_in <= 1` keeps everything.
#[must_use]
pub fn sample_keeps(seed: u64, vehicle: u32, seq: u32, keep_one_in: u32) -> bool {
    if keep_one_in <= 1 {
        return true;
    }
    splitmix64(seed ^ ((u64::from(vehicle) << 32) | u64::from(seq)))
        .is_multiple_of(u64::from(keep_one_in))
}

/// A destination for drained request spans.
///
/// `accept` runs on the drain path; `barrier_flush` runs once per epoch
/// barrier and is the only place a sink may do I/O or reorder.
pub trait SpanSink: std::fmt::Debug {
    /// Offers one span to the sink.
    fn accept(&mut self, span: RequestSpan);
    /// Flushes buffered state at an epoch barrier.
    fn barrier_flush(&mut self, epoch: u64);
    /// Spans offered so far (kept or not).
    fn offered(&self) -> u64;
    /// Spans currently held in memory.
    fn retained(&self) -> &SpanLog;
    /// Approximate resident bytes held by the sink.
    fn resident_bytes(&self) -> u64;
}

/// The original unbounded in-memory sink.
#[derive(Debug, Clone, Default)]
pub struct MemorySpanSink {
    log: SpanLog,
    offered: u64,
}

impl MemorySpanSink {
    /// An empty in-memory sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySpanSink::default()
    }

    /// Consumes the sink, yielding its log.
    #[must_use]
    pub fn into_log(self) -> SpanLog {
        self.log
    }
}

impl SpanSink for MemorySpanSink {
    fn accept(&mut self, span: RequestSpan) {
        self.offered += 1;
        self.log.push(span);
    }

    fn barrier_flush(&mut self, _epoch: u64) {}

    fn offered(&self) -> u64 {
        self.offered
    }

    fn retained(&self) -> &SpanLog {
        &self.log
    }

    fn resident_bytes(&self) -> u64 {
        self.log.len() as u64 * SPAN_RESIDENT_BYTES
    }
}

/// Deterministic sampling sink: all non-OK spans, one-in-N OK spans.
#[derive(Debug, Clone)]
pub struct SamplingSpanSink {
    seed: u64,
    keep_one_in: u32,
    log: SpanLog,
    offered: u64,
    sampled_out: u64,
}

impl SamplingSpanSink {
    /// A sampling sink keeping one in `keep_one_in` OK-path spans.
    #[must_use]
    pub fn new(seed: u64, keep_one_in: u32) -> Self {
        SamplingSpanSink {
            seed,
            keep_one_in,
            log: SpanLog::new(),
            offered: 0,
            sampled_out: 0,
        }
    }

    /// OK spans dropped by the sampler so far.
    #[must_use]
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Consumes the sink, yielding the kept spans.
    #[must_use]
    pub fn into_log(self) -> SpanLog {
        self.log
    }
}

impl SpanSink for SamplingSpanSink {
    fn accept(&mut self, span: RequestSpan) {
        self.offered += 1;
        if span.outcome.is_ok_path()
            && !sample_keeps(self.seed, span.vehicle, span.seq, self.keep_one_in)
        {
            self.sampled_out += 1;
            return;
        }
        self.log.push(span);
    }

    fn barrier_flush(&mut self, _epoch: u64) {}

    fn offered(&self) -> u64 {
        self.offered
    }

    fn retained(&self) -> &SpanLog {
        &self.log
    }

    fn resident_bytes(&self) -> u64 {
        self.log.len() as u64 * SPAN_RESIDENT_BYTES
    }
}

/// Segment-rotating JSONL spill-to-disk writer.
///
/// Spans buffer in memory between flushes; `barrier_flush` sorts the
/// buffer into canonical order, appends one JSONL line per span to the
/// current `spans-NNNNN.jsonl` segment under `dir`, rotates to a new
/// segment once the current one reaches `segment_bytes`, and frees the
/// buffer. Within every flushed block the lines are canonically
/// ordered; blocks append in barrier order.
#[derive(Debug, Clone)]
pub struct JsonlSpillSink {
    dir: PathBuf,
    segment_bytes: u64,
    buf: SpanLog,
    offered: u64,
    spilled: u64,
    current_index: u32,
    current_bytes: u64,
    io_errors: u64,
}

impl JsonlSpillSink {
    /// A spill writer rotating segments at `segment_bytes` under `dir`
    /// (created on first flush).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, segment_bytes: u64) -> Self {
        JsonlSpillSink {
            dir: dir.into(),
            segment_bytes: segment_bytes.max(1),
            buf: SpanLog::new(),
            offered: 0,
            spilled: 0,
            current_index: 0,
            current_bytes: 0,
            io_errors: 0,
        }
    }

    /// Rebuilds a writer mid-stream (checkpoint restore): it continues
    /// appending where the counters say the crashed run left off.
    #[must_use]
    pub fn resume(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        spilled: u64,
        current_index: u32,
        current_bytes: u64,
    ) -> Self {
        JsonlSpillSink {
            spilled,
            current_index,
            current_bytes,
            ..JsonlSpillSink::new(dir, segment_bytes)
        }
    }

    /// The spill directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Spans written to disk so far.
    #[must_use]
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Index of the segment currently being appended to.
    #[must_use]
    pub fn current_index(&self) -> u32 {
        self.current_index
    }

    /// Bytes already appended to the current segment.
    #[must_use]
    pub fn current_bytes(&self) -> u64 {
        self.current_bytes
    }

    /// Failed flush attempts (the buffered spans of a failed flush are
    /// dropped, never retried — spill is an export stream, not state).
    #[must_use]
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Paths of every segment written so far, in order.
    #[must_use]
    pub fn segments(&self) -> Vec<PathBuf> {
        if self.spilled == 0 {
            return Vec::new();
        }
        (0..=self.current_index)
            .map(|i| self.dir.join(format!("spans-{i:05}.jsonl")))
            .collect()
    }

    fn write_block(&mut self, block: String, spans: u64) {
        // Rotation is lazy — decided just before a write — so
        // `current_index` always names a segment that exists on disk
        // and `segments()` never lists a file that was never created.
        if self.current_bytes >= self.segment_bytes {
            self.current_index += 1;
            self.current_bytes = 0;
        }
        let attempt = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            let path = self
                .dir
                .join(format!("spans-{:05}.jsonl", self.current_index));
            let mut file = OpenOptions::new().create(true).append(true).open(path)?;
            file.write_all(block.as_bytes())
        })();
        match attempt {
            Ok(()) => {
                self.current_bytes += block.len() as u64;
                self.spilled += spans;
            }
            Err(_) => self.io_errors += 1,
        }
    }
}

impl SpanSink for JsonlSpillSink {
    fn accept(&mut self, span: RequestSpan) {
        self.offered += 1;
        self.buf.push(span);
    }

    fn barrier_flush(&mut self, _epoch: u64) {
        if self.buf.is_empty() {
            return;
        }
        self.buf.sort_canonical();
        let block = spans_jsonl(&self.buf);
        let spans = self.buf.len() as u64;
        self.buf = SpanLog::new();
        self.write_block(block, spans);
    }

    fn offered(&self) -> u64 {
        self.offered
    }

    fn retained(&self) -> &SpanLog {
        &self.buf
    }

    fn resident_bytes(&self) -> u64 {
        self.buf.len() as u64 * SPAN_RESIDENT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;
    use vdap_sim::SimTime;

    fn span(vehicle: u32, seq: u32, at: u64, outcome: SpanOutcome) -> RequestSpan {
        RequestSpan {
            vehicle,
            seq,
            tenant: vehicle % 4,
            region: 0,
            shard: vehicle % 3,
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

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdap-obs-sink-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sinks_work_behind_the_trait_object() {
        let mut sinks: Vec<Box<dyn SpanSink>> = vec![
            Box::new(MemorySpanSink::new()),
            Box::new(SamplingSpanSink::new(7, 1)),
        ];
        for sink in &mut sinks {
            sink.accept(span(0, 0, 10, SpanOutcome::EdgeServed));
            sink.barrier_flush(0);
            assert_eq!(sink.offered(), 1);
            assert_eq!(sink.retained().len(), 1);
            assert!(sink.resident_bytes() >= SPAN_RESIDENT_BYTES);
        }
    }

    #[test]
    fn sampling_keeps_every_non_ok_span() {
        let mut sink = SamplingSpanSink::new(99, u32::MAX);
        for (i, outcome) in [
            SpanOutcome::Failover,
            SpanOutcome::Rejected,
            SpanOutcome::LocalFallback,
            SpanOutcome::Skipped,
        ]
        .into_iter()
        .enumerate()
        {
            sink.accept(span(i as u32, 0, 10, outcome));
        }
        assert_eq!(sink.retained().len(), 4, "non-OK spans are never sampled");
        assert_eq!(sink.sampled_out(), 0);
    }

    #[test]
    fn sampled_set_is_partition_independent() {
        let spans: Vec<RequestSpan> = (0..512)
            .map(|i| {
                span(
                    i % 37,
                    i / 37,
                    u64::from(i) * 11,
                    if i % 5 == 0 {
                        SpanOutcome::Rejected
                    } else {
                        SpanOutcome::EdgeServed
                    },
                )
            })
            .collect();
        // One sink sees everything in order; four sinks see an
        // interleaved partition (as parallel producers would).
        let mut whole = SamplingSpanSink::new(42, 4);
        for s in &spans {
            whole.accept(s.clone());
        }
        let mut parts: Vec<SamplingSpanSink> =
            (0..4).map(|_| SamplingSpanSink::new(42, 4)).collect();
        for (i, s) in spans.iter().enumerate() {
            parts[i % 4].accept(s.clone());
        }
        let mut merged = SpanLog::new();
        for p in parts {
            merged.merge(p.into_log());
        }
        let mut whole = whole.into_log();
        whole.sort_canonical();
        merged.sort_canonical();
        assert_eq!(whole, merged, "kept set must not depend on partitioning");
        assert!(whole.len() < 512, "some OK spans must be sampled out");
        assert_eq!(
            whole.outcome_count(SpanOutcome::Rejected),
            spans
                .iter()
                .filter(|s| s.outcome == SpanOutcome::Rejected)
                .count() as u64
        );
    }

    #[test]
    fn spill_writes_sorted_parseable_segments_and_rotates() {
        let dir = spill_dir("rotate");
        // A tiny segment size forces a rotation on the second flush.
        let mut sink = JsonlSpillSink::new(&dir, 64);
        for i in 0..8u32 {
            sink.accept(span(
                7 - i,
                0,
                u64::from(7 - i) * 100,
                SpanOutcome::EdgeServed,
            ));
        }
        sink.barrier_flush(0);
        for i in 8..12u32 {
            sink.accept(span(i, 1, u64::from(i) * 100, SpanOutcome::Rejected));
        }
        sink.barrier_flush(1);
        assert_eq!(sink.spilled(), 12);
        assert_eq!(sink.io_errors(), 0);
        assert!(sink.retained().is_empty(), "flush frees the buffer");
        let segments = sink.segments();
        assert!(segments.len() >= 2, "64-byte segments must rotate");
        let mut lines = 0usize;
        let mut previous_key: Option<(u64, u32, u32)> = None;
        for (i, seg) in segments.iter().enumerate() {
            let text = std::fs::read_to_string(seg).expect("segment readable");
            for line in text.lines() {
                let v = serde_json::from_str(line).expect("line parses");
                let vehicle = match v.get("vehicle") {
                    Some(serde_json::Value::Number(n)) => *n as u32,
                    other => panic!("bad vehicle field {other:?}"),
                };
                // First flush (block 0) is canonically sorted within
                // itself: generated == vehicle * 100 here.
                if i == 0 {
                    if let Some((prev, _, _)) = previous_key {
                        assert!(u64::from(vehicle) * 100 >= prev, "block must be sorted");
                    }
                    previous_key = Some((u64::from(vehicle) * 100, vehicle, 0));
                }
                lines += 1;
            }
        }
        assert_eq!(lines, 12, "every spilled span is one JSONL line");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_resume_continues_the_segment_sequence() {
        let dir = spill_dir("resume");
        let mut first = JsonlSpillSink::new(&dir, 1024 * 1024);
        first.accept(span(1, 0, 100, SpanOutcome::EdgeServed));
        first.barrier_flush(0);
        let mut resumed = JsonlSpillSink::resume(
            &dir,
            1024 * 1024,
            first.spilled(),
            first.current_index(),
            first.current_bytes(),
        );
        resumed.accept(span(2, 0, 200, SpanOutcome::EdgeServed));
        resumed.barrier_flush(1);
        assert_eq!(resumed.spilled(), 2);
        assert_eq!(resumed.segments().len(), 1);
        let text = std::fs::read_to_string(&resumed.segments()[0]).unwrap();
        assert_eq!(text.lines().count(), 2, "resume appends, never truncates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sample_keeps_is_a_pure_function_of_identity() {
        let kept: Vec<bool> = (0..64).map(|v| sample_keeps(5, v, 3, 4)).collect();
        let again: Vec<bool> = (0..64).map(|v| sample_keeps(5, v, 3, 4)).collect();
        assert_eq!(kept, again);
        assert!(kept.iter().any(|&k| k) && kept.iter().any(|&k| !k));
        assert!(sample_keeps(5, 9, 9, 1), "keep_one_in=1 keeps everything");
        assert!(
            sample_keeps(5, 9, 9, 0),
            "keep_one_in=0 degrades to keep-all"
        );
    }
}
