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
//!   plus the master seed (route graphs and route plans, contention
//!   models, retry policies, label tables, the reliability ledger's
//!   fault timeline, vehicle ids and tenants, admission caps and
//!   quota-flap overrides, batch sizes and deadlines), or from the rest
//!   of the payload (vehicle regions from the mobility tracks, the
//!   fleet-wide request count from the per-class rows), is *not*
//!   serialized — restore rebuilds it, so no snapshot can hold a copy
//!   that disagrees with its source.

use std::collections::BTreeSet;

use vdap_ckpt::json::{JsonWriter, Value};
use vdap_ckpt::{
    get, get_array, get_u128_hex, get_u64_hex, val_pair, val_str, val_u32, val_u64_hex, CkptError,
};
use vdap_sim::{
    HistogramState, ReliabilityStats, RngStream, SimDuration, SimTime, StreamingHistogram,
};

use crate::config::{handoff_label, tenant_label, FleetConfig};
use crate::metrics::FleetMetrics;

/// Reads the optional section `key`, which a snapshot holds exactly
/// when the config enables it (`enabled` is `Some`; `null` otherwise),
/// with `dec`.
pub(crate) fn section<'a, C, T>(
    v: &'a Value,
    key: &str,
    enabled: Option<C>,
    what: &str,
    dec: impl FnOnce(&'a Value, C) -> Result<T, CkptError>,
) -> Result<Option<T>, CkptError> {
    match (get(v, key)?, enabled) {
        (Value::Null, None) => Ok(None),
        (Value::Null, Some(_)) | (_, None) => Err(CkptError::new(format!(
            "snapshot and config disagree on {what}"
        ))),
        (enc, Some(c)) => dec(enc, c).map(Some),
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
    Ok(SimTime::from_nanos(get_u64_hex(v, key)?))
}

/// Reads a `SimDuration` field.
pub(crate) fn dur_field(v: &Value, key: &str) -> Result<SimDuration, CkptError> {
    Ok(SimDuration::from_nanos(get_u64_hex(v, key)?))
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
    let words = get_array(v, key)?;
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

/// Reads the state [`enc_hist`] wrote, unchecked.
fn dec_hist_state(v: &Value) -> Result<HistogramState, CkptError> {
    let mut buckets = Vec::new();
    for pair in get_array(v, "buckets")? {
        let (i, c) = val_pair(pair)?;
        buckets.push((val_u32(i)?, val_u64_hex(c)?));
    }
    Ok(HistogramState {
        buckets,
        count: get_u64_hex(v, "count")?,
        sum_ticks: get_u128_hex(v, "sum")?,
        min_ticks: get_u64_hex(v, "min")?,
        max_ticks: get_u64_hex(v, "max")?,
    })
}

/// Reads a histogram written by [`enc_hist`] back under `name`,
/// refusing any state no sequence of samples could produce.
pub(crate) fn dec_hist(v: &Value, name: &'static str) -> Result<StreamingHistogram, CkptError> {
    StreamingHistogram::from_state(name, dec_hist_state(v)?)
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

/// Writes the ledger's run-time half: degraded time per component, the
/// failover latencies and the retry counters. The fault timeline (open
/// outages, downtime, repair intervals, fault count) is a pure function
/// of the fault plan, so restore rebuilds it instead.
pub(crate) fn enc_reliability(w: &mut JsonWriter, r: &ReliabilityStats) {
    let s = r.state();
    w.begin_object();
    w.key("degraded").begin_array();
    for (label, d) in &s.degraded {
        w.begin_array().str(label).hex(d.as_nanos()).end_array();
    }
    w.end_array();
    w.key("failover");
    enc_hist(w, r.failover_latency());
    w.key("retries").hex(s.retries);
    w.key("retry_exhausted").hex(s.retry_exhausted);
    w.key("retry_successes").hex(s.retry_successes);
    w.end_object();
}

/// Reads the run-time half written by [`enc_reliability`] onto
/// `timeline`, the fault timeline rebuilt from the plan. Degraded time
/// must name components the engine degrades — a tenant (local
/// fallbacks) or a region's handoffs — in ascending label order.
pub(crate) fn reliability_field(
    v: &Value,
    key: &str,
    cfg: &FleetConfig,
    timeline: &ReliabilityStats,
) -> Result<ReliabilityStats, CkptError> {
    let r = get(v, key)?;
    let known: BTreeSet<String> = (0..cfg.tenants)
        .map(tenant_label)
        .chain((0..cfg.regions).map(handoff_label))
        .collect();
    let mut state = timeline.state();
    state.degraded.clear();
    for pair in get_array(r, "degraded")? {
        let (label, nanos) = val_pair(pair)?;
        let label = val_str(label)?.to_string();
        if !known.contains(&label) {
            return Err(CkptError::new(format!(
                "degraded time names unknown component {label:?}"
            )));
        }
        if state
            .degraded
            .last()
            .is_some_and(|(prev, _)| *prev >= label)
        {
            return Err(CkptError::new("degraded labels not strictly ascending"));
        }
        state
            .degraded
            .push((label, SimDuration::from_nanos(val_u64_hex(nanos)?)));
    }
    state.failover = dec_hist_state(get(r, "failover")?)?;
    state.retries = get_u64_hex(r, "retries")?;
    state.retry_exhausted = get_u64_hex(r, "retry_exhausted")?;
    state.retry_successes = get_u64_hex(r, "retry_successes")?;
    ReliabilityStats::from_state(state)
        .map_err(|e| CkptError::new(format!("failover histogram: {e}")))
}

// --- fleet metrics ---------------------------------------------------

/// Writes the fleet's `FleetMetrics`. The fleet-wide request count is
/// not written: it is the sum of the class rows, and [`metrics_field`]
/// rebuilds it.
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
    w.key("elastic_lanes");
    enc_hist(w, &m.elastic_lanes);
    w.key("energy_per_request_j");
    enc_hist(w, &m.energy_per_request_j);
    w.key("handoffs").hex(m.handoffs);
    w.key("queue_depth");
    enc_hist(w, &m.queue_depth);
    w.key("requeued").hex(m.requeued);
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

/// Reads a `FleetMetrics` field, rebuilding the fleet-wide request count
/// from the per-class rows. Class rows whose counters sum past
/// `u64::MAX` are refused: no run counts that many requests.
pub(crate) fn metrics_field(v: &Value, key: &str) -> Result<FleetMetrics, CkptError> {
    let enc = get(v, key)?;
    let mut m = FleetMetrics::new();
    m.energy_per_request_j = hist_field(enc, "energy_per_request_j", &m.energy_per_request_j)?;
    m.queue_depth = hist_field(enc, "queue_depth", &m.queue_depth)?;
    m.elastic_lanes = hist_field(enc, "elastic_lanes", &m.elastic_lanes)?;
    let classes = get_array(enc, "by_class")?;
    if classes.len() != m.by_class.len() {
        return Err(CkptError::new(format!(
            "snapshot has {} workload classes, engine has {}",
            classes.len(),
            m.by_class.len()
        )));
    }
    let mut totals = [0u64; 6];
    for (slot, c) in m.by_class.iter_mut().zip(classes) {
        slot.e2e_latency_ms = hist_field(c, "e2e_latency_ms", &slot.e2e_latency_ms)?;
        let counters = [
            (&mut slot.requests, "requests"),
            (&mut slot.edge_served, "edge_served"),
            (&mut slot.collab_hits, "collab_hits"),
            (&mut slot.failovers, "failovers"),
            (&mut slot.rejected, "rejected"),
            (&mut slot.local_fallbacks, "local_fallbacks"),
        ];
        for ((n, key), total) in counters.into_iter().zip(&mut totals) {
            *n = get_u64_hex(c, key)?;
            *total = total
                .checked_add(*n)
                .ok_or_else(|| CkptError::new("per-class counters overflow their total"))?;
        }
    }
    m.requests = totals[0];
    for pair in get_array(enc, "work_units_by_tenant")? {
        let (t, w) = val_pair(pair)?;
        m.work_units_by_tenant.insert(val_u32(t)?, val_u64_hex(w)?);
    }
    m.requeued = get_u64_hex(enc, "requeued")?;
    m.handoffs = get_u64_hex(enc, "handoffs")?;
    m.training_rounds_skipped = get_u64_hex(enc, "training_rounds_skipped")?;
    m.scale_ups = get_u64_hex(enc, "scale_ups")?;
    m.scale_downs = get_u64_hex(enc, "scale_downs")?;
    Ok(m)
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

// --- snapshot accounting (wall-clock; never in the summary) ----------

/// One snapshot the engine wrote, with its wall-clock cost on each of
/// the two threads that made it.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotWrite {
    /// Generation (completed-epoch index) the snapshot captured.
    pub generation: u64,
    /// Bytes stored: the envelope's size, or what is left of it after
    /// the write's chaos (half, when torn).
    pub bytes: usize,
    /// The barrier's wall-clock time on the snapshot, in milliseconds:
    /// encoding the state and the span log's new spans, plus any wait
    /// to hand the payload to the writer thread while it still stores
    /// the generation before.
    pub write_ms: f64,
    /// The writer thread's wall-clock time on the snapshot, in
    /// milliseconds: checksumming the payload, applying the chaos,
    /// writing it to the store and applying retention. The engine runs
    /// on meanwhile.
    pub store_ms: f64,
    /// Snapshot-store chaos injected into this write (`"torn-write"`
    /// or `"corruption"`), if any.
    pub chaos: Option<&'static str>,
}

/// Wall-clock checkpoint/restore accounting, the report's
/// [`crate::FleetReport::snapshots`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_edgeos::WorkloadClass;
    use vdap_obs::SpanOutcome;
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
        let mut timeline = ReliabilityStats::new();
        timeline.record_fault("lte/region0", SimTime::from_secs(3));
        timeline.record_recovery("lte/region0", SimTime::from_secs(9));
        timeline.record_fault("engine", SimTime::from_secs(20));
        let mut r = timeline.clone();
        r.record_retry();
        r.record_retry_exhausted();
        r.record_failover(SimDuration::from_nanos(12_345_678));
        r.record_degraded("tenant1", SimDuration::from_millis(40));
        let v = written(|w| {
            w.key("rel");
            enc_reliability(w, &r);
        });
        let back = reliability_field(&v, "rel", &FleetConfig::sized(64), &timeline).unwrap();
        assert_eq!(back, r);
        assert!(back.is_down("engine"));
    }

    #[test]
    fn metrics_round_trip_is_exact() {
        let mut m = FleetMetrics::new();
        m.record_requests([1 << 60, 9, 0]);
        m.record(
            SpanOutcome::EdgeServed,
            WorkloadClass::Detection,
            SimDuration::from_micros(3250),
            0.5,
        );
        for _ in 0..7 {
            m.record(
                SpanOutcome::Rejected,
                WorkloadClass::Infotainment,
                SimDuration::from_millis(11),
                2.0,
            );
        }
        m.work_units_by_tenant.insert(3, u64::MAX - 1);
        let v = written(|w| {
            w.key("m");
            enc_metrics(w, &m);
        });
        let back = metrics_field(&v, "m").unwrap();
        assert_eq!(back, m);
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
