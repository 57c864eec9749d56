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

use std::ffi::OsStr;
use std::fs::OpenOptions;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};

use vdap_sim::splitmix64;

use crate::chrome::spans_jsonl;
use crate::span::{RequestSpan, SpanLog};

/// Bytes one resident span is accounted as (struct size; the `class`
/// label is a shared `&'static str` and not counted).
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
    /// (created on first write). Segments an earlier stream left in
    /// `dir` are emptied or removed, so the stream starts clean.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, segment_bytes: u64) -> Self {
        JsonlSpillSink::resume(dir, segment_bytes, 0, 0, 0)
    }

    /// Rebuilds a writer mid-stream (checkpoint restore): it continues
    /// appending where the counters say the crashed run left off. What
    /// the crashed run wrote past that point is cut off first: the
    /// current segment is truncated to `current_bytes` and every later
    /// segment is removed. No file is created, and a missing file is
    /// not an error.
    #[must_use]
    pub fn resume(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        spilled: u64,
        current_index: u32,
        current_bytes: u64,
    ) -> Self {
        let mut sink = JsonlSpillSink {
            dir: dir.into(),
            segment_bytes: segment_bytes.max(1),
            spilled,
            current_index,
            current_bytes,
            io_errors: 0,
        };
        if sink.cut_to_counters().is_err() {
            sink.io_errors += 1;
        }
        sink
    }

    /// Makes the segments on disk match the counters.
    fn cut_to_counters(&self) -> std::io::Result<()> {
        let entries = match std::fs::read_dir(&self.dir) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
            entries => entries?,
        };
        for entry in entries {
            let path = entry?.path();
            match path.file_name().and_then(segment_index) {
                Some(i) if i > self.current_index => std::fs::remove_file(&path)?,
                Some(i) if i == self.current_index => {
                    let file = OpenOptions::new().write(true).open(&path)?;
                    if file.metadata()?.len() > self.current_bytes {
                        file.set_len(self.current_bytes)?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn segment_path(&self, index: u32) -> PathBuf {
        self.dir.join(format!("spans-{index:05}.jsonl"))
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
    /// retried — spill is an export stream, not state), plus one when
    /// the constructor could not cut the segments to the counters.
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
            .map(|i| self.segment_path(i))
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
            let path = self.segment_path(self.current_index);
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

/// The index of a segment file name the writer produces
/// (`spans-NNNNN.jsonl`), or `None` for any other file.
fn segment_index(name: &OsStr) -> Option<u32> {
    let digits = name
        .to_str()?
        .strip_prefix("spans-")?
        .strip_suffix(".jsonl")?;
    let index = digits.parse().ok()?;
    (format!("{index:05}") == digits).then_some(index)
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
        assert_eq!(text.lines().count(), 2, "resume appends at the position");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every segment file under `dir`, sorted by name, with its bytes.
    fn segment_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("spill dir")
            .map(|e| {
                let e = e.expect("dir entry");
                (e.file_name(), std::fs::read(e.path()).expect("readable"))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn resume_and_restart_cut_what_the_crashed_writer_wrote_past_them() {
        let block =
            |k: u32| log((0..2).map(|v| span(v, k, u64::from(k) * 100, SpanOutcome::EdgeServed)));
        // Segments of one and a half blocks: every segment holds two
        // blocks, so five blocks fill three segments.
        let seg = spans_jsonl(&block(0)).len() as u64 * 3 / 2;
        let straight_dir = spill_dir("cut-straight");
        let mut straight = JsonlSpillSink::new(&straight_dir, seg);
        for k in 0..5 {
            straight.write(block(k));
        }
        let want = segment_files(&straight_dir);
        assert_eq!(want.len(), 3);

        let dir = spill_dir("cut-crashed");
        let mut crashed = JsonlSpillSink::new(&dir, seg);
        for k in 0..3 {
            crashed.write(block(k));
        }
        // The snapshot's position is halfway into segment 1; the
        // crashed writer then fills segment 1 and rotates to segment 2.
        let at = (
            crashed.spilled(),
            crashed.current_index(),
            crashed.current_bytes(),
        );
        assert_eq!(at.1, 1);
        for k in 3..5 {
            crashed.write(block(k));
        }
        let mut resumed = JsonlSpillSink::resume(&dir, seg, at.0, at.1, at.2);
        for k in 3..5 {
            resumed.write(block(k));
        }
        assert_eq!(segment_files(&dir), want);
        assert_eq!(resumed.spilled(), straight.spilled());

        // A restart from scratch over the same segments.
        let mut restarted = JsonlSpillSink::new(&dir, seg);
        for k in 0..5 {
            restarted.write(block(k));
        }
        assert_eq!(segment_files(&dir), want);
        assert_eq!(restarted.io_errors(), 0);
        std::fs::write(dir.join("notes.txt"), "kept").unwrap();
        let _ = JsonlSpillSink::new(&dir, seg);
        let left: Vec<_> = segment_files(&dir)
            .into_iter()
            .map(|(name, bytes)| (name.into_string().unwrap(), bytes.len()))
            .collect();
        assert_eq!(
            left,
            [("notes.txt".into(), 4), ("spans-00000.jsonl".into(), 0)]
        );

        // A missing directory is not an I/O error, and nothing is created.
        let missing = spill_dir("cut-missing");
        assert_eq!(
            JsonlSpillSink::resume(&missing, seg, 4, 2, 80).io_errors(),
            0
        );
        assert!(!missing.exists());
        let _ = std::fs::remove_dir_all(&straight_dir);
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
