//! The span spill writer and the sampling hash.
//!
//! Request spans drained at an epoch barrier either stay resident in
//! `vdap-fleet`'s span log or go to disk through [`JsonlSpillSink`]: a
//! segment-rotating writer that sorts each drained log into canonical
//! `(generated, vehicle, seq)` order and appends it to
//! `spans-NNNNN.jsonl` segments. Each block is exactly what
//! [`crate::spans_jsonl`] emits for the drained spans.
//!
//! Sampling is a pure function of request identity: [`sample_keeps`]
//! hashes `(seed, vehicle, seq)`, so the kept set is the same at any
//! executor width and batch size. `vdap-fleet`'s telemetry applies it
//! to OK-path spans only and keeps every span off the OK path.
//!
//! Disk I/O is wall-clock territory: write failures are counted
//! (`io_errors`), never panicked on, and nothing about *what* was
//! sampled or kept resident depends on whether a write succeeded.

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

/// Segment-rotating JSONL spill-to-disk writer.
///
/// [`JsonlSpillSink::write`] takes one drained span log, sorts it into
/// canonical order, appends one JSONL line per span to the current
/// `spans-NNNNN.jsonl` segment under `dir`, and rotates to a new
/// segment once the current one reaches `segment_bytes`. Within every
/// written block the lines are canonically ordered; blocks append in
/// write order.
#[derive(Debug, Clone)]
pub struct JsonlSpillSink {
    dir: PathBuf,
    segment_bytes: u64,
    spilled: u64,
    current_index: u32,
    current_bytes: u64,
    io_errors: u64,
}

impl JsonlSpillSink {
    /// A spill writer rotating segments at `segment_bytes` under `dir`
    /// (created on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, segment_bytes: u64) -> Self {
        JsonlSpillSink {
            dir: dir.into(),
            segment_bytes: segment_bytes.max(1),
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

    /// Failed writes (the spans of a failed write are dropped, never
    /// retried — spill is an export stream, not state).
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

    /// Writes one drained span log as a canonically ordered block. An
    /// empty log writes nothing.
    pub fn write(&mut self, mut spans: SpanLog) {
        if spans.is_empty() {
            return;
        }
        spans.sort_canonical();
        let block = spans_jsonl(&spans);
        let count = spans.len() as u64;
        drop(spans);
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
                self.spilled += count;
            }
            Err(_) => self.io_errors += 1,
        }
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

    fn log(spans: impl IntoIterator<Item = RequestSpan>) -> SpanLog {
        let mut log = SpanLog::new();
        for span in spans {
            log.push(span);
        }
        log
    }

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdap-obs-sink-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_writes_sorted_parseable_segments_and_rotates() {
        let dir = spill_dir("rotate");
        // A tiny segment size forces a rotation on the second write.
        let mut sink = JsonlSpillSink::new(&dir, 64);
        sink.write(log((0..8u32).map(|i| {
            span(7 - i, 0, u64::from(7 - i) * 100, SpanOutcome::EdgeServed)
        })));
        sink.write(SpanLog::new());
        sink.write(log(
            (8..12u32).map(|i| span(i, 1, u64::from(i) * 100, SpanOutcome::Rejected))
        ));
        assert_eq!(sink.spilled(), 12);
        assert_eq!(sink.io_errors(), 0);
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
                // First write (block 0) is canonically sorted within
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
        first.write(log([span(1, 0, 100, SpanOutcome::EdgeServed)]));
        let mut resumed = JsonlSpillSink::resume(
            &dir,
            1024 * 1024,
            first.spilled(),
            first.current_index(),
            first.current_bytes(),
        );
        resumed.write(log([span(2, 0, 200, SpanOutcome::EdgeServed)]));
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
