//! Snapshot codec glue for durable barrier checkpoints.
//!
//! The fleet engine serializes its *complete* deterministic state into
//! a [`vdap_ckpt::Snapshot`] payload at configurable epoch barriers
//! (see [`crate::FleetConfig::with_checkpoint`]). This module holds the
//! shared encoding vocabulary every subsystem codec speaks:
//!
//! * **Exactness over readability.** Any `u64` that may exceed 2^53
//!   (RNG words, `SimTime`/`SimDuration` nanos, counters, histogram
//!   ticks) is hex-coded via [`JsonWriter::hex`]; every `f64` travels
//!   as the hex of its bit pattern, so a restore is bit-identical, not
//!   merely close.
//! * **Stream out, parse in.** Encoders write straight into a
//!   [`JsonWriter`] — no intermediate `Value` tree — and must write
//!   each object's keys in ascending byte order, because the envelope
//!   checksum covers the canonical (key-sorted) text that decoding
//!   re-serializes. Debug builds assert the order. Decoders read the
//!   parsed [`Value`] tree back.
//! * **One codec per owner.** Each subsystem encodes its own private
//!   state (`XEdgeServer` in `edge.rs`, `IngestPass` in `ingest.rs`,
//!   vehicles in `vehicle.rs`, the mobility pass in `engine.rs`); this
//!   module only provides the leaf helpers they compose and the
//!   top-level config fingerprint that guards restore.
//! * **Rebuild what is pure.** Anything derivable from `FleetConfig`
//!   plus the master seed (route graphs, contention models, retry
//!   policies, label tables) is *not* serialized — restore rebuilds
//!   it.

use std::fmt;

use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{get, CkptError};
use vdap_ddi::UploadBatch;
use vdap_sim::{
    HistogramState, ReliabilityState, ReliabilityStats, RngStream, SimDuration, SimTime,
    StreamingHistogram,
};

use crate::config::FleetConfig;
use crate::metrics::FleetMetrics;

// --- element-level accessors (keyed accessors live in vdap-ckpt) -----

/// Decodes a hex-coded `u64` array element.
pub(crate) fn val_u64_hex(v: &Value) -> Result<u64, CkptError> {
    let s = v
        .as_str()
        .ok_or_else(|| CkptError::new("expected hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| CkptError::new(format!("bad hex u64 '{s}': {e}")))
}

/// Decodes a bit-pattern-coded `f64` array element.
pub(crate) fn val_f64_bits(v: &Value) -> Result<f64, CkptError> {
    Ok(f64::from_bits(val_u64_hex(v)?))
}

/// Decodes a plain-number array element as `u64` (small counts only).
pub(crate) fn val_u64(v: &Value) -> Result<u64, CkptError> {
    v.as_u64()
        .ok_or_else(|| CkptError::new("expected integral number"))
}

/// Decodes a plain-number array element as `u32`.
pub(crate) fn val_u32(v: &Value) -> Result<u32, CkptError> {
    u32::try_from(val_u64(v)?).map_err(|e| CkptError::new(format!("u32 out of range: {e}")))
}

/// Decodes a string array element.
pub(crate) fn val_str(v: &Value) -> Result<&str, CkptError> {
    v.as_str().ok_or_else(|| CkptError::new("expected string"))
}

/// Decodes an `i64` array element from its bit pattern.
pub(crate) fn dec_i64(v: &Value) -> Result<i64, CkptError> {
    Ok(val_u64_hex(v)? as i64)
}

/// Decodes a boolean array element.
pub(crate) fn val_bool(v: &Value) -> Result<bool, CkptError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(CkptError::new("expected bool")),
    }
}

/// Views an array element that is itself an array.
pub(crate) fn val_array(v: &Value) -> Result<&[Value], CkptError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| CkptError::new("expected array"))
}

/// Views an array element as a fixed-length pair.
pub(crate) fn val_pair(v: &Value) -> Result<(&Value, &Value), CkptError> {
    match val_array(v)? {
        [a, b] => Ok((a, b)),
        other => Err(CkptError::new(format!(
            "expected 2-element pair, got {} elements",
            other.len()
        ))),
    }
}

// --- time ------------------------------------------------------------

// `SimTime` and `SimDuration` travel as hex nanos (exact at any
// magnitude): `w.hex(t.as_nanos())`.

/// Writes `v` with `enc`, or `null` when absent.
pub(crate) fn enc_opt<T>(w: &mut JsonWriter, v: Option<T>, enc: impl FnOnce(&mut JsonWriter, T)) {
    match v {
        Some(v) => enc(w, v),
        None => {
            w.null();
        }
    }
}

/// Writes an optional `SimTime` (`null` when absent).
pub(crate) fn enc_opt_time(w: &mut JsonWriter, t: Option<SimTime>) {
    enc_opt(w, t, |w, t| {
        w.hex(t.as_nanos());
    });
}

/// Reads a `SimTime` field.
pub(crate) fn time_field(v: &Value, key: &str) -> Result<SimTime, CkptError> {
    Ok(SimTime::from_nanos(vdap_ckpt::get_u64_hex(v, key)?))
}

/// Reads a `SimDuration` field.
pub(crate) fn dur_field(v: &Value, key: &str) -> Result<SimDuration, CkptError> {
    Ok(SimDuration::from_nanos(vdap_ckpt::get_u64_hex(v, key)?))
}

/// Reads an optional `SimTime` field (`null` ⇒ `None`).
pub(crate) fn opt_time_field(v: &Value, key: &str) -> Result<Option<SimTime>, CkptError> {
    match get(v, key)? {
        Value::Null => Ok(None),
        other => Ok(Some(SimTime::from_nanos(val_u64_hex(other)?))),
    }
}

// --- RNG streams -----------------------------------------------------

/// Writes an RNG stream's full xoshiro256++ state (4 hex words).
pub(crate) fn enc_rng(w: &mut JsonWriter, rng: &RngStream) {
    enc_words(w, &rng.state());
}

/// Writes a list of hex words.
pub(crate) fn enc_words(w: &mut JsonWriter, words: &[u64]) {
    w.begin_array();
    for &word in words {
        w.hex(word);
    }
    w.end_array();
}

/// Reads an RNG stream field back from its 4-word state.
pub(crate) fn rng_field(v: &Value, key: &str) -> Result<RngStream, CkptError> {
    let words = vdap_ckpt::get_array(v, key)?;
    if words.len() != 4 {
        return Err(CkptError::new(format!(
            "rng state '{key}' has {} words, want 4",
            words.len()
        )));
    }
    let mut state = [0u64; 4];
    for (slot, w) in state.iter_mut().zip(words) {
        *slot = val_u64_hex(w)?;
    }
    if state == [0u64; 4] {
        return Err(CkptError::new(format!("rng state '{key}' is all-zero")));
    }
    Ok(RngStream::from_state(state))
}

// --- histograms ------------------------------------------------------

/// Writes a streaming histogram: its sparse `[index, count]` buckets
/// and its exact aggregates in ticks. The name is not written; the
/// owner of the field supplies it on decode.
pub(crate) fn enc_hist(w: &mut JsonWriter, h: &StreamingHistogram) {
    let s = h.state();
    w.begin_object();
    w.key("buckets").begin_array();
    for (i, c) in s.buckets {
        w.begin_array().u32(i).hex(c).end_array();
    }
    w.end_array();
    w.key("count").hex(s.count);
    w.key("max").hex(s.max_ticks);
    w.key("min").hex(s.min_ticks);
    w.key("sum").hex128(s.sum_ticks);
    w.end_object();
}

/// Reads a histogram written by [`enc_hist`] back under `name`,
/// refusing any state no sequence of samples could produce.
pub(crate) fn dec_hist(v: &Value, name: &'static str) -> Result<StreamingHistogram, CkptError> {
    let mut buckets = Vec::new();
    for pair in vdap_ckpt::get_array(v, "buckets")? {
        let (i, c) = val_pair(pair)?;
        buckets.push((val_u32(i)?, val_u64_hex(c)?));
    }
    let state = HistogramState {
        buckets,
        count: vdap_ckpt::get_u64_hex(v, "count")?,
        sum_ticks: vdap_ckpt::get_u128_hex(v, "sum")?,
        min_ticks: vdap_ckpt::get_u64_hex(v, "min")?,
        max_ticks: vdap_ckpt::get_u64_hex(v, "max")?,
    };
    StreamingHistogram::from_state(name, state)
        .map_err(|e| CkptError::new(format!("histogram '{name}': {e}")))
}

/// Reads the histogram field `key`, named like the empty `like`.
pub(crate) fn hist_field(
    v: &Value,
    key: &str,
    like: &StreamingHistogram,
) -> Result<StreamingHistogram, CkptError> {
    dec_hist(get(v, key)?, like.name())
}

// --- reliability ledger ----------------------------------------------

fn enc_labeled_nanos<'a>(w: &mut JsonWriter, entries: impl Iterator<Item = (&'a String, u64)>) {
    w.begin_array();
    for (label, nanos) in entries {
        w.begin_array().str(label).hex(nanos).end_array();
    }
    w.end_array();
}

fn dec_labeled_nanos(v: &Value, key: &str) -> Result<Vec<(String, u64)>, CkptError> {
    let mut out = Vec::new();
    for pair in vdap_ckpt::get_array(v, key)? {
        let (label, nanos) = val_pair(pair)?;
        out.push((val_str(label)?.to_string(), val_u64_hex(nanos)?));
    }
    Ok(out)
}

fn enc_samples(w: &mut JsonWriter, samples: &[f64]) {
    w.begin_array();
    for &x in samples {
        w.hex(x.to_bits());
    }
    w.end_array();
}

fn dec_samples(v: &Value, key: &str) -> Result<Vec<f64>, CkptError> {
    vdap_ckpt::get_array(v, key)?
        .iter()
        .map(val_f64_bits)
        .collect()
}

/// Writes the full reliability ledger (MTTR samples, open outages,
/// per-component downtime/degraded time, retry counters).
pub(crate) fn enc_reliability(w: &mut JsonWriter, r: &ReliabilityStats) {
    let s = r.state();
    w.begin_object();
    w.key("cache_ttl_evictions").hex(s.cache_ttl_evictions);
    w.key("degraded");
    enc_labeled_nanos(w, s.degraded.iter().map(|(c, d)| (c, d.as_nanos())));
    w.key("disk_spills").hex(s.disk_spills);
    w.key("down_since");
    enc_labeled_nanos(w, s.down_since.iter().map(|(c, t)| (c, t.as_nanos())));
    w.key("downtime");
    enc_labeled_nanos(w, s.downtime.iter().map(|(c, d)| (c, d.as_nanos())));
    w.key("failover_samples");
    enc_samples(w, &s.failover_samples);
    w.key("faults_injected").hex(s.faults_injected);
    w.key("mttr_samples");
    enc_samples(w, &s.mttr_samples);
    w.key("retries").hex(s.retries);
    w.key("retry_exhausted").hex(s.retry_exhausted);
    w.key("retry_successes").hex(s.retry_successes);
    w.end_object();
}

/// Reads a reliability-ledger field.
pub(crate) fn reliability_field(v: &Value, key: &str) -> Result<ReliabilityStats, CkptError> {
    let r = get(v, key)?;
    Ok(ReliabilityStats::from_state(ReliabilityState {
        mttr_samples: dec_samples(r, "mttr_samples")?,
        failover_samples: dec_samples(r, "failover_samples")?,
        retries: vdap_ckpt::get_u64_hex(r, "retries")?,
        retry_successes: vdap_ckpt::get_u64_hex(r, "retry_successes")?,
        retry_exhausted: vdap_ckpt::get_u64_hex(r, "retry_exhausted")?,
        faults_injected: vdap_ckpt::get_u64_hex(r, "faults_injected")?,
        down_since: dec_labeled_nanos(r, "down_since")?
            .into_iter()
            .map(|(c, n)| (c, SimTime::from_nanos(n)))
            .collect(),
        downtime: dec_labeled_nanos(r, "downtime")?
            .into_iter()
            .map(|(c, n)| (c, SimDuration::from_nanos(n)))
            .collect(),
        degraded: dec_labeled_nanos(r, "degraded")?
            .into_iter()
            .map(|(c, n)| (c, SimDuration::from_nanos(n)))
            .collect(),
        cache_ttl_evictions: vdap_ckpt::get_u64_hex(r, "cache_ttl_evictions")?,
        disk_spills: vdap_ckpt::get_u64_hex(r, "disk_spills")?,
    }))
}

// --- fleet metrics ---------------------------------------------------

/// Writes the fleet's `FleetMetrics`.
pub(crate) fn enc_metrics(w: &mut JsonWriter, m: &FleetMetrics) {
    w.begin_object();
    w.key("by_class").begin_array();
    for c in &m.by_class {
        w.begin_object();
        w.key("collab_hits").hex(c.collab_hits);
        w.key("e2e_latency_ms");
        enc_hist(w, &c.e2e_latency_ms);
        w.key("edge_served").hex(c.edge_served);
        w.key("failovers").hex(c.failovers);
        w.key("local_fallbacks").hex(c.local_fallbacks);
        w.key("rejected").hex(c.rejected);
        w.key("requests").hex(c.requests);
        w.end_object();
    }
    w.end_array();
    w.key("collab_hits").hex(m.collab_hits);
    w.key("e2e_latency_ms");
    enc_hist(w, &m.e2e_latency_ms);
    w.key("edge_served").hex(m.edge_served);
    w.key("elastic_lanes");
    enc_hist(w, &m.elastic_lanes);
    w.key("energy_per_request_j");
    enc_hist(w, &m.energy_per_request_j);
    w.key("failovers").hex(m.failovers);
    w.key("handoffs").hex(m.handoffs);
    w.key("local_fallbacks").hex(m.local_fallbacks);
    w.key("queue_depth");
    enc_hist(w, &m.queue_depth);
    w.key("rejected").hex(m.rejected);
    w.key("requests").hex(m.requests);
    w.key("requeued").hex(m.requeued);
    w.key("retry_rescued").hex(m.retry_rescued);
    w.key("scale_downs").hex(m.scale_downs);
    w.key("scale_ups").hex(m.scale_ups);
    w.key("training_rounds_skipped")
        .hex(m.training_rounds_skipped);
    w.key("work_units_by_tenant").begin_array();
    for (&t, &units) in &m.work_units_by_tenant {
        w.begin_array().u32(t).hex(units).end_array();
    }
    w.end_array();
    w.end_object();
}

/// Reads a `FleetMetrics` field.
pub(crate) fn metrics_field(v: &Value, key: &str) -> Result<FleetMetrics, CkptError> {
    let enc = get(v, key)?;
    let mut m = FleetMetrics::new();
    m.e2e_latency_ms = hist_field(enc, "e2e_latency_ms", &m.e2e_latency_ms)?;
    m.energy_per_request_j = hist_field(enc, "energy_per_request_j", &m.energy_per_request_j)?;
    m.queue_depth = hist_field(enc, "queue_depth", &m.queue_depth)?;
    m.elastic_lanes = hist_field(enc, "elastic_lanes", &m.elastic_lanes)?;
    let classes = vdap_ckpt::get_array(enc, "by_class")?;
    if classes.len() != m.by_class.len() {
        return Err(CkptError::new(format!(
            "snapshot has {} workload classes, engine has {}",
            classes.len(),
            m.by_class.len()
        )));
    }
    for (slot, c) in m.by_class.iter_mut().zip(classes) {
        slot.e2e_latency_ms = hist_field(c, "e2e_latency_ms", &slot.e2e_latency_ms)?;
        slot.requests = vdap_ckpt::get_u64_hex(c, "requests")?;
        slot.edge_served = vdap_ckpt::get_u64_hex(c, "edge_served")?;
        slot.collab_hits = vdap_ckpt::get_u64_hex(c, "collab_hits")?;
        slot.failovers = vdap_ckpt::get_u64_hex(c, "failovers")?;
        slot.rejected = vdap_ckpt::get_u64_hex(c, "rejected")?;
        slot.local_fallbacks = vdap_ckpt::get_u64_hex(c, "local_fallbacks")?;
    }
    for pair in vdap_ckpt::get_array(enc, "work_units_by_tenant")? {
        let (t, w) = val_pair(pair)?;
        m.work_units_by_tenant.insert(val_u32(t)?, val_u64_hex(w)?);
    }
    m.requests = vdap_ckpt::get_u64_hex(enc, "requests")?;
    m.edge_served = vdap_ckpt::get_u64_hex(enc, "edge_served")?;
    m.collab_hits = vdap_ckpt::get_u64_hex(enc, "collab_hits")?;
    m.failovers = vdap_ckpt::get_u64_hex(enc, "failovers")?;
    m.rejected = vdap_ckpt::get_u64_hex(enc, "rejected")?;
    m.requeued = vdap_ckpt::get_u64_hex(enc, "requeued")?;
    m.retry_rescued = vdap_ckpt::get_u64_hex(enc, "retry_rescued")?;
    m.handoffs = vdap_ckpt::get_u64_hex(enc, "handoffs")?;
    m.local_fallbacks = vdap_ckpt::get_u64_hex(enc, "local_fallbacks")?;
    m.training_rounds_skipped = vdap_ckpt::get_u64_hex(enc, "training_rounds_skipped")?;
    m.scale_ups = vdap_ckpt::get_u64_hex(enc, "scale_ups")?;
    m.scale_downs = vdap_ckpt::get_u64_hex(enc, "scale_downs")?;
    Ok(m)
}

// --- ingest batches --------------------------------------------------

/// Writes one in-flight DDI upload batch.
pub(crate) fn enc_batch(w: &mut JsonWriter, b: &UploadBatch) {
    w.begin_object();
    w.key("bytes").hex(b.bytes);
    w.key("deadline").hex(b.deadline.as_nanos());
    w.key("priority").u32(u32::from(b.priority));
    w.key("records").u32(b.records);
    w.key("region").u32(b.region);
    w.key("sent_at").hex(b.sent_at.as_nanos());
    w.key("seq").u32(b.seq);
    w.key("vehicle").hex(b.vehicle);
    w.end_object();
}

/// Decodes one in-flight DDI upload batch.
pub(crate) fn dec_batch(v: &Value) -> Result<UploadBatch, CkptError> {
    Ok(UploadBatch {
        vehicle: vdap_ckpt::get_u64_hex(v, "vehicle")?,
        region: vdap_ckpt::get_u32(v, "region")?,
        seq: vdap_ckpt::get_u32(v, "seq")?,
        records: vdap_ckpt::get_u32(v, "records")?,
        bytes: vdap_ckpt::get_u64_hex(v, "bytes")?,
        sent_at: time_field(v, "sent_at")?,
        deadline: time_field(v, "deadline")?,
        priority: u8::try_from(vdap_ckpt::get_u32(v, "priority")?)
            .map_err(|e| CkptError::new(format!("priority out of range: {e}")))?,
    })
}

// --- config fingerprint ----------------------------------------------

/// The scenario fingerprint stamped into every snapshot.
///
/// Restore refuses a snapshot whose fingerprint disagrees with the
/// restoring engine's config — resuming a *different* scenario would
/// silently produce garbage. The executor width and batch size are
/// deliberately **excluded**: restoring under a different run layout
/// is a supported (and tested) operation, because the snapshot is
/// layout free.
pub(crate) fn config_fingerprint(w: &mut JsonWriter, cfg: &FleetConfig) {
    w.begin_object();
    w.key("duration_ns").hex(cfg.duration.as_nanos());
    w.key("elastic").bool(cfg.elastic.is_some());
    w.key("epoch_ns").hex(cfg.epoch.as_nanos());
    w.key("ingest").bool(cfg.ingest.is_some());
    w.key("mobility").bool(cfg.mobility.is_some());
    w.key("regions").u32(cfg.regions);
    w.key("seed").hex(cfg.seed);
    w.key("span_sample")
        .hex(cfg.span_sample.map_or(0, u64::from));
    w.key("telemetry").bool(cfg.telemetry);
    // Sink knobs that change what the telemetry *contains* (the budget
    // drives rollup/auto-sampling, the sample rate drives the kept
    // set). The spill *directory* is deliberately excluded: it names an
    // export location, not state — restoring under a different spill
    // dir is legitimate.
    w.key("telemetry_budget")
        .hex(cfg.telemetry_budget.unwrap_or(0));
    w.key("tenants").u32(cfg.tenants);
    w.key("vehicles").u32(cfg.vehicles);
    w.end_object();
}

/// Rejects a snapshot taken under a different scenario config.
pub(crate) fn check_fingerprint(cfg: &FleetConfig, payload: &Value) -> Result<(), CkptError> {
    let mut want = JsonWriter::new();
    config_fingerprint(&mut want, cfg);
    let got = get(payload, "config")?.to_string();
    if got == want.as_str() {
        Ok(())
    } else {
        Err(CkptError::new(format!(
            "snapshot config mismatch: snapshot {got}, engine {}",
            want.as_str()
        )))
    }
}

// --- snapshot diagnostics (wall-clock; never in the summary) ---------

/// One snapshot the engine wrote, with its wall-clock cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotWrite {
    /// Generation (completed-epoch index) the snapshot captured.
    pub generation: u64,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Wall-clock time spent encoding and writing, in milliseconds.
    pub write_ms: f64,
    /// Snapshot-store chaos injected into this write (`"torn-write"`
    /// or `"corruption"`), if any.
    pub chaos: Option<&'static str>,
}

/// Wall-clock checkpoint/restore accounting for
/// [`crate::FleetReport::diagnostics`].
///
/// Everything here lives on the wall-clock side of the determinism
/// boundary (like the barrier profile): write/load timings vary run to
/// run, so none of it appears in the deterministic summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiagnostics {
    /// Snapshots written, in generation order.
    pub writes: Vec<SnapshotWrite>,
    /// Wall-clock milliseconds spent decoding the snapshot this run
    /// resumed from (`None` when the run started fresh).
    pub load_ms: Option<f64>,
    /// Generations rejected at resume time (checksum or decode
    /// failure), newest first — the supervisor fell back past these.
    pub rejected_generations: Vec<u64>,
    /// Crash-resume cycles the supervisor performed.
    pub resumes: u32,
}

impl SnapshotDiagnostics {
    /// Whether there is anything worth printing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
            && self.load_ms.is_none()
            && self.rejected_generations.is_empty()
            && self.resumes == 0
    }

    /// Folds another run leg's accounting into this one (a supervised
    /// run restarts the engine; the report should show every leg).
    pub fn absorb(&mut self, other: &SnapshotDiagnostics) {
        self.writes.extend(other.writes.iter().cloned());
        if other.load_ms.is_some() {
            self.load_ms = other.load_ms;
        }
        self.rejected_generations
            .extend(other.rejected_generations.iter().copied());
        self.resumes += other.resumes;
    }
}

impl fmt::Display for SnapshotDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  snapshots: {} written, {} resume(s), {} generation(s) rejected",
            self.writes.len(),
            self.resumes,
            self.rejected_generations.len()
        )?;
        for w in &self.writes {
            write!(
                f,
                "    write gen {}: {} B in {:.3} ms",
                w.generation, w.bytes, w.write_ms
            )?;
            if let Some(chaos) = w.chaos {
                write!(f, " ({chaos} injected)")?;
            }
            writeln!(f)?;
        }
        if let Some(load_ms) = self.load_ms {
            writeln!(f, "    restore decode: {load_ms:.3} ms")?;
        }
        for gen in &self.rejected_generations {
            writeln!(
                f,
                "    rejected gen {gen}: checksum/decode failure, fell back"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    /// Writes one object through `fields` (keys ascending) and parses
    /// it back, the way a snapshot payload travels.
    fn written(fields: impl FnOnce(&mut JsonWriter)) -> Value {
        let mut w = JsonWriter::new();
        w.begin_object();
        fields(&mut w);
        w.end_object();
        vdap_ckpt::json::from_str(w.as_str()).expect("encoder output parses")
    }

    #[test]
    fn time_and_duration_round_trip_at_full_range() {
        let t = SimTime::from_nanos(u64::MAX - 7);
        let v = written(|w| {
            w.key("d").hex(SimDuration::from_nanos(3).as_nanos());
            w.key("t").hex(t.as_nanos());
        });
        assert_eq!(time_field(&v, "t").unwrap(), t);
        assert_eq!(dur_field(&v, "d").unwrap(), SimDuration::from_nanos(3));
        let opt = written(|w| {
            w.key("a");
            enc_opt_time(w, None);
            w.key("b");
            enc_opt_time(w, Some(t));
        });
        assert_eq!(opt_time_field(&opt, "a").unwrap(), None);
        assert_eq!(opt_time_field(&opt, "b").unwrap(), Some(t));
    }

    #[test]
    fn rng_round_trip_preserves_the_stream() {
        let seeds = SeedFactory::new(0xC0FFEE);
        let mut rng = seeds.stream("ckpt-test");
        for _ in 0..17 {
            rng.uniform();
        }
        let v = written(|w| {
            w.key("rng");
            enc_rng(w, &rng);
        });
        let mut restored = rng_field(&v, "rng").unwrap();
        let mut orig = rng;
        for _ in 0..64 {
            assert_eq!(orig.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn rng_rejects_all_zero_state() {
        let v = written(|w| {
            w.key("rng");
            enc_words(w, &[0; 4]);
        });
        assert!(rng_field(&v, "rng").is_err());
    }

    #[test]
    fn histogram_round_trip_is_bit_exact_including_empty() {
        let mut h = StreamingHistogram::new("ckpt_test_ms");
        for i in 0..500 {
            h.record(0.001 * f64::from(i) * f64::from(i));
        }
        let v = written(|w| {
            w.key("empty");
            enc_hist(w, &StreamingHistogram::new("e"));
            w.key("h");
            enc_hist(w, &h);
        });
        let back = hist_field(&v, "h", &h).unwrap();
        assert_eq!(back, h);
        assert_eq!(format!("{back}"), format!("{h}"));
        let empty = StreamingHistogram::new("e");
        assert_eq!(hist_field(&v, "empty", &empty).unwrap(), empty);
    }

    #[test]
    fn reliability_round_trip_keeps_open_outages() {
        let mut r = ReliabilityStats::new();
        r.record_fault("lte/region0", SimTime::from_secs(3));
        r.record_recovery("lte/region0", SimTime::from_secs(9));
        r.record_fault("engine", SimTime::from_secs(20));
        r.record_retry();
        r.record_disk_spills(4);
        let v = written(|w| {
            w.key("rel");
            enc_reliability(w, &r);
        });
        let back = reliability_field(&v, "rel").unwrap();
        assert_eq!(back.state(), r.state());
        assert!(back.is_down("engine"));
    }

    #[test]
    fn metrics_round_trip_is_exact() {
        let mut m = FleetMetrics::new();
        m.requests = 1 << 60;
        m.edge_served = 42;
        m.e2e_latency_ms.record(3.25);
        m.by_class[1].rejected = 7;
        m.by_class[1].e2e_latency_ms.record(11.0);
        m.work_units_by_tenant.insert(3, u64::MAX - 1);
        let v = written(|w| {
            w.key("m");
            enc_metrics(w, &m);
        });
        let back = metrics_field(&v, "m").unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn batch_round_trip_is_exact() {
        let b = UploadBatch {
            vehicle: 900_720,
            region: 5,
            seq: 19,
            records: 64,
            bytes: 49_152,
            sent_at: SimTime::from_secs(12),
            deadline: SimTime::from_secs(14),
            priority: 3,
        };
        let v = written(|w| {
            w.key("b");
            enc_batch(w, &b);
        });
        assert_eq!(dec_batch(get(&v, "b").unwrap()).unwrap(), b);
    }

    #[test]
    fn fingerprint_guards_against_foreign_snapshots() {
        let cfg = FleetConfig::sized(64);
        let payload = written(|w| {
            w.key("config");
            config_fingerprint(w, &cfg);
        });
        assert!(check_fingerprint(&cfg, &payload).is_ok());
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(check_fingerprint(&other, &payload).is_err());
        // The run layout is NOT part of the fingerprint: cross-layout
        // restore is supported.
        let relaid = cfg.with_executor_threads(1).with_batch_size(7);
        assert!(check_fingerprint(&relaid, &payload).is_ok());
    }
}
