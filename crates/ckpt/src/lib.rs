//! Durable engine snapshots: a versioned, checksummed envelope around
//! a canonical JSON payload, plus a generation store with keep-last-K
//! retention.
//!
//! This crate depends on nothing but the JSON shim and the simulation
//! kernel (for its FNV-1a hash), so every layer above the kernel (edge
//! serving state, ingest queues, mobility tracks) can stream itself
//! into a [`JsonWriter`] without dependency cycles. Decoding goes the
//! other way: the text parses into a [`Value`] tree, and each layer
//! reads its fields back with the accessors below.
//!
//! ## Encoding conventions
//!
//! The JSON shim parses every number as an `f64`, which round-trips
//! integers only up to `2^53`. Deterministic engine state contains
//! values outside that range — xoshiro RNG words, `u64::MAX` sentinel
//! times, `u128` histogram tick sums — so payload writers encode:
//!
//! * `u64` / `u128` that may exceed `2^53` → lower-case hex strings
//!   ([`JsonWriter::hex`] / [`JsonWriter::hex128`], read back with
//!   [`get_u64_hex`] / [`get_u128_hex`]);
//! * `f64` that must round-trip bit-exactly or may be non-finite (which
//!   JSON cannot carry) → the hex of its bit pattern
//!   (`hex(v.to_bits())`, read back with [`get_f64_bits`]);
//! * everything else → plain JSON numbers.
//!
//! ## Envelope
//!
//! [`envelope`] wraps a payload as
//! `{"checksum","generation","magic","payload","version"}` — the keys
//! in sorted order, as every canonical object is — where the checksum
//! is FNV-1a 64 over `"{version}|{generation}|{payload}"` with the
//! payload in the shim's canonical (key-sorted, compact) form. The
//! payload arrives as a list of text pieces whose concatenation is the
//! payload text; they are hashed where they lie, and the envelope is
//! returned as the text that goes before and after them, so a writer
//! can send the pieces to a [`SnapshotStore`] without ever joining
//! them. [`encode`] is the one-piece case. [`WriteChaos`] damages a
//! write given as pieces the way a failing disk would.
//! [`Snapshot::decode`] rejects bad magic, unknown versions, and any
//! checksum mismatch — a torn write or a flipped bit either fails to
//! parse or re-serializes to a different canonical form, and both paths
//! return an error instead of a silently wrong resume.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;

pub use serde_json as json;
use serde_json::{JsonWriter, Value};
pub use vdap_sim::fnv1a64;
use vdap_sim::fnv1a64_extend;

/// Version tag written into every snapshot envelope. Version 2 dropped
/// the fleet's per-vehicle migration generation and physical-migration
/// counter from the payload; version 3 writes every histogram as
/// integer ticks (`buckets`, `count`, `max`, `min`, `sum`); version 4
/// keeps only the reliability ledger's run-time half, with failover
/// latencies as one such histogram; version 5 leaves out every value
/// restore rebuilds from the config, the seed or the rest of the
/// payload (ids, tenants, route plans, gate depths and caps, fleet-wide
/// totals of the per-class rows, batch sizes and deadlines); version 6
/// writes the fleet's admission gates as one list of counters, without
/// the quota-flap overrides the next barrier sets again; version 7
/// drops the telemetry registry's counters and gauges, which the fleet
/// no longer keeps, and the event and rung-1 rescue counts, which equal
/// counts other ledgers already hold; version 8 drops the XEdge nodes'
/// health tables, which follow from the fault plan, the elastic lane
/// counters, which nothing reads, each vehicle's cache-tier occupancy,
/// a sum over the cached batches, and four counts that equal others
/// (the ingest ledger's sent, written and backlog records and the
/// mobility ledger's crossings).
pub const SNAPSHOT_VERSION: u32 = 8;

/// Magic string identifying a snapshot envelope.
pub const SNAPSHOT_MAGIC: &str = "vdap-ckpt";

/// Why a snapshot could not be decoded or a field could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError {
    msg: String,
}

impl CkptError {
    /// Creates an error with a human-readable message.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        CkptError { msg: msg.into() }
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.msg)
    }
}

impl std::error::Error for CkptError {}

impl From<serde_json::Error> for CkptError {
    fn from(e: serde_json::Error) -> Self {
        CkptError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------

// Each encoding has one element decoder (`val_*`, for array elements
// and nested values) and one keyed accessor (`get_*`): the element
// decoder applied to the member, with the key named in its error. Every
// one fails, instead of guessing, on a value of another shape.

/// Member lookup that reports the missing key by name.
///
/// # Errors
///
/// Fails when `v` is not an object or lacks `key`.
pub fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CkptError> {
    v.get(key)
        .ok_or_else(|| CkptError::new(format!("missing field '{key}'")))
}

/// Decodes member `key` with `dec`, naming the key in its error.
fn field<'a, T>(
    v: &'a Value,
    key: &str,
    dec: impl FnOnce(&'a Value) -> Result<T, CkptError>,
) -> Result<T, CkptError> {
    dec(get(v, key)?).map_err(|e| CkptError::new(format!("field '{key}': {}", e.msg)))
}

/// Decodes a hex-encoded `u64`.
pub fn val_u64_hex(v: &Value) -> Result<u64, CkptError> {
    u64::from_str_radix(val_str(v)?, 16).map_err(|_| CkptError::new("bad u64 hex"))
}

/// Decodes a hex-encoded `u128`.
pub fn val_u128_hex(v: &Value) -> Result<u128, CkptError> {
    u128::from_str_radix(val_str(v)?, 16).map_err(|_| CkptError::new("bad u128 hex"))
}

/// Decodes an `f64` stored by bit pattern.
pub fn val_f64_bits(v: &Value) -> Result<f64, CkptError> {
    Ok(f64::from_bits(val_u64_hex(v)?))
}

/// Decodes a plain-number `u64` (values known to stay below `2^53`).
pub fn val_u64(v: &Value) -> Result<u64, CkptError> {
    v.as_u64()
        .ok_or_else(|| CkptError::new("expected unsigned integer"))
}

/// Decodes a plain-number `u32`.
pub fn val_u32(v: &Value) -> Result<u32, CkptError> {
    u32::try_from(val_u64(v)?).map_err(|_| CkptError::new("out of u32 range"))
}

/// Decodes a boolean.
pub fn val_bool(v: &Value) -> Result<bool, CkptError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(CkptError::new("expected bool")),
    }
}

/// Decodes a string.
pub fn val_str(v: &Value) -> Result<&str, CkptError> {
    v.as_str().ok_or_else(|| CkptError::new("expected string"))
}

/// Views an array.
pub fn val_array(v: &Value) -> Result<&[Value], CkptError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| CkptError::new("expected array"))
}

/// Views a two-element array as a pair.
pub fn val_pair(v: &Value) -> Result<(&Value, &Value), CkptError> {
    match val_array(v)? {
        [a, b] => Ok((a, b)),
        other => Err(CkptError::new(format!(
            "expected 2-element pair, got {} elements",
            other.len()
        ))),
    }
}

/// Reads a hex-encoded `u64` field.
pub fn get_u64_hex(v: &Value, key: &str) -> Result<u64, CkptError> {
    field(v, key, val_u64_hex)
}

/// Reads a hex-encoded `u128` field.
pub fn get_u128_hex(v: &Value, key: &str) -> Result<u128, CkptError> {
    field(v, key, val_u128_hex)
}

/// Reads an `f64` field stored by bit pattern.
pub fn get_f64_bits(v: &Value, key: &str) -> Result<f64, CkptError> {
    field(v, key, val_f64_bits)
}

/// Reads a plain-number `u64` field (values known to stay below `2^53`).
pub fn get_u64(v: &Value, key: &str) -> Result<u64, CkptError> {
    field(v, key, val_u64)
}

/// Reads a `u32` field.
pub fn get_u32(v: &Value, key: &str) -> Result<u32, CkptError> {
    field(v, key, val_u32)
}

/// Reads a boolean field.
pub fn get_bool(v: &Value, key: &str) -> Result<bool, CkptError> {
    field(v, key, val_bool)
}

/// Reads a string field.
pub fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, CkptError> {
    field(v, key, val_str)
}

/// Reads an array field.
pub fn get_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], CkptError> {
    field(v, key, val_array)
}

// ---------------------------------------------------------------------
// Checksum + envelope
// ---------------------------------------------------------------------

/// The envelope checksum: FNV-1a over `"{version}|{generation}|"`
/// followed by the canonical payload text, folded in piece by piece
/// where it lies.
fn checksum<S: AsRef<str>>(generation: u64, payload: &[S]) -> u64 {
    let prefix = format!("{SNAPSHOT_VERSION}|{generation}|");
    payload
        .iter()
        .fold(fnv1a64(prefix.as_bytes()), |hash, piece| {
            fnv1a64_extend(hash, piece.as_ref().as_bytes())
        })
}

/// The durable envelope around a canonical payload given as `pieces`,
/// in one pass: hash the pieces where they lie, then write the envelope
/// keys in their fixed sorted order. Returns the text that goes before
/// the pieces and the text that goes after them; the three concatenated
/// are the snapshot's durable text.
///
/// The concatenated pieces must be canonical — compact, with every
/// object's keys strictly ascending, as a [`JsonWriter`] in debug builds
/// enforces — because [`Snapshot::decode`] re-serializes the parsed
/// payload and checksums *that*. A non-canonical payload would encode
/// fine and then fail every decode.
#[must_use]
pub fn envelope<S: AsRef<str>>(generation: u64, pieces: &[S]) -> (String, String) {
    let mut w = JsonWriter::with_capacity(128);
    w.begin_object();
    w.key("checksum").hex(checksum(generation, pieces));
    w.key("generation").hex(generation);
    w.key("magic").str(SNAPSHOT_MAGIC);
    w.key("payload");
    let at = w.as_str().len();
    // The pieces go here; an empty splice keeps the writer's grammar.
    w.raw("");
    w.key("version").u32(SNAPSHOT_VERSION);
    w.end_object();
    let mut head = w.into_string();
    let tail = head.split_off(at);
    (head, tail)
}

/// Wraps a canonical payload text in the durable envelope: the
/// one-piece case of [`envelope`], joined.
#[must_use]
pub fn encode(generation: u64, payload_text: &str) -> String {
    let (mut text, tail) = envelope(generation, &[payload_text]);
    text.reserve_exact(payload_text.len() + tail.len());
    text.push_str(payload_text);
    text.push_str(&tail);
    text
}

/// Damage a failing disk does to one snapshot write. The writer applies
/// it to the bytes on their way to the store, which stays dumb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteChaos {
    /// The writer died mid-write: only the first half of the bytes
    /// reached the store.
    Torn,
    /// Bit rot: the low bit of the middle byte flipped.
    Corrupt,
}

impl WriteChaos {
    /// The label snapshot diagnostics name this damage by.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WriteChaos::Torn => "torn-write",
            WriteChaos::Corrupt => "corruption",
        }
    }

    /// Damages a write given as `pieces`, as if applied to their
    /// concatenation. Every piece is borrowed, except the one piece
    /// holding the flipped byte, which is copied.
    ///
    /// # Panics
    ///
    /// When the cut or the flip lands inside a multi-byte character.
    /// Envelopes around engine payloads are ASCII, and flipping the low
    /// bit of an ASCII byte leaves it ASCII.
    #[must_use]
    pub fn apply<'a>(self, pieces: &[&'a str]) -> Vec<Cow<'a, str>> {
        let mid = pieces.iter().map(|p| p.len()).sum::<usize>() / 2;
        let mut damaged = Vec::with_capacity(pieces.len());
        let mut start = 0;
        for &piece in pieces {
            let end = start + piece.len();
            match self {
                WriteChaos::Torn if end > mid => {
                    damaged.push(Cow::Borrowed(&piece[..mid - start]));
                    break;
                }
                WriteChaos::Corrupt if (start..end).contains(&mid) => {
                    let mut bytes = piece.as_bytes().to_vec();
                    bytes[mid - start] ^= 0x01;
                    let flipped =
                        String::from_utf8(bytes).expect("low-bit flips keep ascii valid utf-8");
                    damaged.push(Cow::Owned(flipped));
                }
                _ => damaged.push(Cow::Borrowed(piece)),
            }
            start = end;
        }
        damaged
    }
}

/// One decoded snapshot: a generation number and the engine-defined
/// payload tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotonic generation (the fleet engine uses the barrier index).
    pub generation: u64,
    /// Engine-defined state tree.
    pub payload: Value,
}

impl Snapshot {
    /// Wraps a payload under a generation number.
    #[must_use]
    pub fn new(generation: u64, payload: Value) -> Self {
        Snapshot {
            generation,
            payload,
        }
    }

    /// Serializes the snapshot to its durable text form (the same bytes
    /// [`encode`] writes for the payload's canonical text).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(&self.payload);
        encode(self.generation, w.as_str())
    }

    /// Parses and validates a durable snapshot text.
    ///
    /// # Errors
    ///
    /// Fails on malformed or too deeply nested JSON, wrong magic, an
    /// unknown version, or a checksum mismatch (torn writes and bit
    /// flips land here).
    pub fn decode(text: &str) -> Result<Snapshot, CkptError> {
        // Every text this accepts is one JSON object followed by JSON
        // whitespace at most. A write torn short ends with another byte
        // unless the cut lands right after a `}`, and is refused here
        // instead of being parsed up to the cut; a cut right after a
        // `}` still fails in the parser.
        if !text
            .trim_end_matches([' ', '\t', '\n', '\r'])
            .ends_with('}')
        {
            return Err(CkptError::new(
                "torn envelope: the text does not end with its closing '}'",
            ));
        }
        let v = serde_json::from_str(text)?;
        let magic = get_str(&v, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CkptError::new(format!("bad magic '{magic}'")));
        }
        let version = get_u64(&v, "version")?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(CkptError::new(format!("unsupported version {version}")));
        }
        let generation = get_u64_hex(&v, "generation")?;
        let stored = get_u64_hex(&v, "checksum")?;
        let Value::Object(mut fields) = v else {
            unreachable!("fields were just read from an object");
        };
        let payload = fields
            .remove("payload")
            .ok_or_else(|| CkptError::new("missing field 'payload'"))?;
        let mut canonical = JsonWriter::with_capacity(text.len());
        canonical.value(&payload);
        let computed = checksum(generation, &[canonical.as_str()]);
        if stored != computed {
            return Err(CkptError::new(format!(
                "checksum mismatch: stored {stored:x}, computed {computed:x}"
            )));
        }
        Ok(Snapshot {
            generation,
            payload,
        })
    }
}

// ---------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Backend {
    Mem(BTreeMap<u64, String>),
    Dir(PathBuf),
}

/// A snapshot store keyed by generation, with keep-last-K retention.
///
/// The store is deliberately dumb: it moves opaque strings. Chaos
/// (torn writes, bit flips) is applied by the *writer* before `put`,
/// and validation happens in [`SnapshotStore::newest_valid`] by
/// decoding each candidate — so a corrupted newest generation falls
/// back to the previous one.
#[derive(Debug)]
pub struct SnapshotStore {
    backend: Backend,
}

impl SnapshotStore {
    /// An in-memory store (tests, single-process supervision).
    #[must_use]
    pub fn in_memory() -> Self {
        SnapshotStore {
            backend: Backend::Mem(BTreeMap::new()),
        }
    }

    /// A directory-backed store; one `ckpt-<generation>.json` file per
    /// generation. The directory is created if absent.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn in_dir(path: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let path = path.into();
        std::fs::create_dir_all(&path)
            .map_err(|e| CkptError::new(format!("create {}: {e}", path.display())))?;
        Ok(SnapshotStore {
            backend: Backend::Dir(path),
        })
    }

    fn file_of(dir: &std::path::Path, generation: u64) -> PathBuf {
        dir.join(format!("ckpt-{generation:020}.json"))
    }

    /// Stores one generation (overwriting it if present): the
    /// concatenation of `pieces`. A directory-backed store writes the
    /// pieces to its file in order; the in-memory store joins them.
    ///
    /// # Errors
    ///
    /// Fails when a directory-backed store cannot write the file.
    pub fn put<S: AsRef<str>>(&mut self, generation: u64, pieces: &[S]) -> Result<(), CkptError> {
        match &mut self.backend {
            Backend::Mem(map) => {
                map.insert(generation, pieces.iter().map(AsRef::as_ref).collect());
                Ok(())
            }
            Backend::Dir(dir) => {
                let path = Self::file_of(dir, generation);
                let write = || {
                    let mut file = BufWriter::new(std::fs::File::create(&path)?);
                    for piece in pieces {
                        file.write_all(piece.as_ref().as_bytes())?;
                    }
                    file.flush()
                };
                write().map_err(|e| CkptError::new(format!("write {}: {e}", path.display())))
            }
        }
    }

    /// All stored generations, ascending.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        match &self.backend {
            Backend::Mem(map) => map.keys().copied().collect(),
            Backend::Dir(dir) => {
                let mut gens: Vec<u64> = std::fs::read_dir(dir)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .filter_map(|e| {
                        let name = e.file_name().into_string().ok()?;
                        let digits = name.strip_prefix("ckpt-")?.strip_suffix(".json")?;
                        digits.parse::<u64>().ok()
                    })
                    .collect();
                gens.sort_unstable();
                gens
            }
        }
    }

    /// The stored text for one generation, if present.
    #[must_use]
    pub fn get(&self, generation: u64) -> Option<String> {
        match &self.backend {
            Backend::Mem(map) => map.get(&generation).cloned(),
            Backend::Dir(dir) => std::fs::read_to_string(Self::file_of(dir, generation)).ok(),
        }
    }

    /// Drops all but the newest `k` generations.
    ///
    /// # Errors
    ///
    /// Fails when a directory-backed store cannot delete a file.
    pub fn retain_last(&mut self, k: usize) -> Result<(), CkptError> {
        let gens = self.generations();
        if gens.len() <= k {
            return Ok(());
        }
        let drop_until = gens.len() - k;
        for &generation in &gens[..drop_until] {
            match &mut self.backend {
                Backend::Mem(map) => {
                    map.remove(&generation);
                }
                Backend::Dir(dir) => {
                    let path = Self::file_of(dir, generation);
                    std::fs::remove_file(&path)
                        .map_err(|e| CkptError::new(format!("remove {}: {e}", path.display())))?;
                }
            }
        }
        Ok(())
    }

    /// Decodes the newest generation that validates, walking backwards
    /// past corrupt ones. Returns the decoded snapshot (if any) and the
    /// generations rejected on the way.
    #[must_use]
    pub fn newest_valid(&self) -> (Option<Snapshot>, Vec<u64>) {
        let mut rejected = Vec::new();
        for generation in self.generations().into_iter().rev() {
            let Some(text) = self.get(generation) else {
                rejected.push(generation);
                continue;
            };
            match Snapshot::decode(&text) {
                Ok(snap) => return (Some(snap), rejected),
                Err(_) => rejected.push(generation),
            }
        }
        (None, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload streamed the way engine encoders write theirs.
    fn sample_text() -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("count").u64(12);
        w.key("label").str("region0/lte");
        w.key("min").hex(f64::INFINITY.to_bits());
        w.key("rng").begin_array().hex(u64::MAX).hex(7).end_array();
        w.key("sum").hex128(u128::MAX / 3);
        w.end_object();
        w.into_string()
    }

    fn sample_payload() -> Value {
        serde_json::from_str(&sample_text()).expect("writer output parses")
    }

    #[test]
    fn envelope_round_trips() {
        let snap = Snapshot::new(16, sample_payload());
        let text = snap.encode();
        let back = Snapshot::decode(&text).expect("valid snapshot");
        assert_eq!(back, snap);
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn streamed_payload_encodes_like_the_tree() {
        let text = encode(16, &sample_text());
        assert_eq!(text, Snapshot::new(16, sample_payload()).encode());
        assert!(text.starts_with("{\"checksum\":\""));
        assert!(text.ends_with(&format!(",\"version\":{SNAPSHOT_VERSION}}}")));
        let back = Snapshot::decode(&text).expect("valid snapshot");
        assert_eq!(back.payload, sample_payload());
    }

    #[test]
    fn non_canonical_payload_never_decodes() {
        // The checksum covers the canonical re-serialization, so a
        // payload written with keys out of order (or with whitespace)
        // is rejected even though it is valid JSON.
        for payload in ["{\"b\":1,\"a\":2}", "{\"a\": 2}"] {
            let err = Snapshot::decode(&encode(4, payload)).expect_err("non-canonical");
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
        }
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_crash() {
        let bomb = "[".repeat(100_000);
        assert!(Snapshot::decode(&bomb).is_err());
        let mut store = SnapshotStore::in_memory();
        store.put(8, &[encode(8, "null")]).unwrap();
        store.put(16, &[bomb]).unwrap();
        let (found, rejected) = store.newest_valid();
        assert_eq!(found.expect("generation 8 still valid").generation, 8);
        assert_eq!(rejected, vec![16]);
    }

    #[test]
    fn hex_helpers_round_trip_extremes() {
        let v = sample_payload();
        assert_eq!(get_u128_hex(&v, "sum").unwrap(), u128::MAX / 3);
        assert!(get_f64_bits(&v, "min").unwrap().is_infinite());
        let rng = get_array(&v, "rng").unwrap();
        let words = Value::Object([("w".to_string(), rng[0].clone())].into());
        assert_eq!(get_u64_hex(&words, "w").unwrap(), u64::MAX);
    }

    #[test]
    fn keyed_accessors_name_the_key_their_element_decoder_refused() {
        let v = sample_payload();
        let err = get_u64_hex(&v, "count").expect_err("a plain number is not hex");
        assert_eq!(
            err.to_string(),
            "snapshot error: field 'count': expected string"
        );
        let err = val_u64_hex(&Value::from("zz")).expect_err("not hex");
        assert_eq!(err.to_string(), "snapshot error: bad u64 hex");
        assert_eq!(get_u32(&v, "count").unwrap(), 12);
    }

    /// The durable text of `pieces`, joined.
    fn joined<S: AsRef<str>>(generation: u64, pieces: &[S]) -> String {
        let (head, tail) = envelope(generation, pieces);
        let mut text = head;
        for piece in pieces {
            text.push_str(piece.as_ref());
        }
        text + &tail
    }

    #[test]
    fn envelope_over_any_split_equals_encode() {
        let payload = sample_text();
        let whole = encode(16, &payload);
        assert_eq!(joined(16, &[] as &[&str]), encode(16, ""));
        for i in 0..=payload.len() {
            let (a, b) = payload.split_at(i);
            assert_eq!(joined(16, &[a, b]), whole, "split at {i}");
            for j in (i..=payload.len()).step_by(7) {
                let (b, c) = b.split_at(j - i);
                assert_eq!(joined(16, &[a, "", b, c]), whole, "split at {i} and {j}");
            }
        }
    }

    #[test]
    fn chaos_over_pieces_equals_chaos_over_the_text() {
        let text = encode(16, &sample_text());
        let mid = text.len() / 2;
        let mut flipped = text.clone().into_bytes();
        flipped[mid] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("ascii");
        for i in 0..=text.len() {
            for j in (i..=text.len()).step_by(5) {
                let pieces = [&text[..i], &text[i..j], &text[j..]];
                let torn = WriteChaos::Torn.apply(&pieces);
                assert_eq!(torn.concat(), text[..mid], "torn over {i}, {j}");
                assert!(torn.iter().all(|p| matches!(p, Cow::Borrowed(_))));
                let corrupt = WriteChaos::Corrupt.apply(&pieces);
                assert_eq!(corrupt.concat(), flipped, "corrupt over {i}, {j}");
                let copied = corrupt.iter().filter(|p| matches!(p, Cow::Owned(_)));
                assert_eq!(copied.count(), 1, "only the flipped piece is copied");
            }
        }
    }

    #[test]
    fn store_puts_the_concatenated_pieces() {
        let text = encode(8, &sample_text());
        let (a, b) = text.split_at(text.len() / 3);
        let mut store = SnapshotStore::in_memory();
        store.put(8, &[a, "", b]).unwrap();
        assert_eq!(store.get(8).as_deref(), Some(text.as_str()));
    }

    #[test]
    fn torn_envelope_is_refused_before_parsing() {
        let text = Snapshot::new(3, sample_payload()).encode();
        let torn = WriteChaos::Torn.apply(&[&text]).concat();
        assert!(!torn.ends_with('}'));
        let err = Snapshot::decode(&torn).expect_err("torn");
        assert!(err.to_string().contains("torn envelope"), "{err}");
        // Trailing JSON whitespace is still accepted, as the parser
        // always did, and the envelope's own `}` is what the check
        // finds.
        let padded = format!("{text} \t\r\n");
        assert_eq!(Snapshot::decode(&padded), Snapshot::decode(&text));
        assert!(Snapshot::decode(&padded).is_ok());
    }

    #[test]
    fn truncation_is_rejected() {
        let text = Snapshot::new(3, sample_payload()).encode();
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(
                Snapshot::decode(&text[..cut]).is_err(),
                "torn write at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bit_flips_never_yield_a_different_payload() {
        let snap = Snapshot::new(9, sample_payload());
        let text = snap.encode();
        let bytes = text.as_bytes();
        for i in (0..bytes.len()).step_by(3) {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x01;
            let Ok(s) = String::from_utf8(flipped) else {
                continue;
            };
            // A flip that survives decoding must be semantically
            // invisible — same generation, same payload.
            if let Ok(back) = Snapshot::decode(&s) {
                assert_eq!(back, snap, "silent corruption at byte {i}");
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let text = Snapshot::new(1, Value::Null).encode();
        assert!(Snapshot::decode(&text.replace("vdap-ckpt", "vdap-oops")).is_err());
        // Every older version is refused outright, and a forged one
        // also breaks the checksum input.
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        for other in (1..SNAPSHOT_VERSION).chain([SNAPSHOT_VERSION + 1]) {
            let forged = text.replace(&current, &format!("\"version\":{other}"));
            assert!(Snapshot::decode(&forged).is_err());
        }
    }

    #[test]
    fn store_retention_keeps_newest_k() {
        let mut store = SnapshotStore::in_memory();
        for g in [8u64, 16, 24, 32] {
            store
                .put(g, &[Snapshot::new(g, Value::from(g)).encode()])
                .unwrap();
        }
        store.retain_last(2).unwrap();
        assert_eq!(store.generations(), vec![24, 32]);
        assert!(store.get(8).is_none());
        assert!(store.get(32).is_some());
    }

    #[test]
    fn newest_valid_falls_back_past_corruption() {
        let mut store = SnapshotStore::in_memory();
        store
            .put(8, &[Snapshot::new(8, Value::from("old")).encode()])
            .unwrap();
        let newest = Snapshot::new(16, Value::from("new")).encode();
        let torn = &newest[..newest.len() / 2];
        store.put(16, &[torn]).unwrap();
        let (found, rejected) = store.newest_valid();
        let snap = found.expect("generation 8 still valid");
        assert_eq!(snap.generation, 8);
        assert_eq!(rejected, vec![16]);
    }

    #[test]
    fn dir_store_round_trips_and_retains() {
        let dir = std::env::temp_dir().join(format!("vdap-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::in_dir(&dir).expect("mkdir");
        for g in [8u64, 16, 24] {
            store
                .put(g, &[Snapshot::new(g, Value::from(g)).encode()])
                .unwrap();
        }
        assert_eq!(store.generations(), vec![8, 16, 24]);
        store.retain_last(1).unwrap();
        assert_eq!(store.generations(), vec![24]);
        let (found, rejected) = store.newest_valid();
        assert_eq!(found.expect("valid").generation, 24);
        assert!(rejected.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
