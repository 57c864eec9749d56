//! Durable engine snapshots: a versioned, checksummed envelope around
//! a canonical JSON payload, plus a generation store with keep-last-K
//! retention.
//!
//! This crate deliberately depends on nothing but the JSON shim, so
//! every layer of the platform (sim primitives, edge serving state,
//! ingest queues, mobility tracks) can stream itself into a
//! [`JsonWriter`] without dependency cycles. Decoding goes the other
//! way: the text parses into a [`Value`] tree, and each layer reads its
//! fields back with the accessors below.
//!
//! ## Encoding conventions
//!
//! The JSON shim parses every number as an `f64`, which round-trips
//! integers only up to `2^53`. Deterministic engine state contains
//! values outside that range — xoshiro RNG words, `u64::MAX` sentinel
//! times, `u128` fixed-point histogram sums — so payload writers encode:
//!
//! * `u64` / `u128` that may exceed `2^53` → lower-case hex strings
//!   ([`JsonWriter::hex`] / [`JsonWriter::hex128`], read back with
//!   [`get_u64_hex`] / [`get_u128_hex`]);
//! * `f64` that may be non-finite (empty-histogram min/max are ±∞,
//!   which JSON cannot carry) → the hex of its bit pattern
//!   (`hex(v.to_bits())`, read back with [`get_f64_bits`]);
//! * everything else → plain JSON numbers.
//!
//! ## Envelope
//!
//! [`encode`] wraps a payload as
//! `{"checksum","generation","magic","payload","version"}` — the keys
//! in sorted order, as every canonical object is — where the checksum
//! is FNV-1a 64 over `"{version}|{generation}|{payload}"` with the
//! payload in the shim's canonical (key-sorted, compact) form. The
//! payload text is hashed and spliced in as written: no tree, no copy
//! into a checksum buffer, no second serialization.
//! [`Snapshot::decode`] rejects bad magic, unknown versions, and any
//! checksum mismatch — a torn write or a flipped bit either fails to
//! parse or re-serializes to a different canonical form, and both paths
//! return an error instead of a silently wrong resume.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

pub use serde_json as json;
use serde_json::{JsonWriter, Value};

/// Version tag written into every snapshot envelope. Version 2 dropped
/// the fleet's per-vehicle migration generation and physical-migration
/// counter from the payload.
pub const SNAPSHOT_VERSION: u32 = 2;

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
// Field accessors
// ---------------------------------------------------------------------

/// Member lookup that reports the missing key by name.
///
/// # Errors
///
/// Fails when `v` is not an object or lacks `key`.
pub fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CkptError> {
    v.get(key)
        .ok_or_else(|| CkptError::new(format!("missing field '{key}'")))
}

/// Reads a hex-encoded `u64` field.
///
/// # Errors
///
/// Fails when the field is missing or not a valid hex string.
pub fn get_u64_hex(v: &Value, key: &str) -> Result<u64, CkptError> {
    let s = get_str(v, key)?;
    u64::from_str_radix(s, 16).map_err(|_| CkptError::new(format!("field '{key}': bad u64 hex")))
}

/// Reads a hex-encoded `u128` field.
///
/// # Errors
///
/// Fails when the field is missing or not a valid hex string.
pub fn get_u128_hex(v: &Value, key: &str) -> Result<u128, CkptError> {
    let s = get_str(v, key)?;
    u128::from_str_radix(s, 16).map_err(|_| CkptError::new(format!("field '{key}': bad u128 hex")))
}

/// Reads an `f64` stored by bit pattern.
///
/// # Errors
///
/// Fails when the field is missing or not a valid hex string.
pub fn get_f64_bits(v: &Value, key: &str) -> Result<f64, CkptError> {
    Ok(f64::from_bits(get_u64_hex(v, key)?))
}

/// Reads a plain-number `u64` field (values known to stay below `2^53`).
///
/// # Errors
///
/// Fails when the field is missing or not a non-negative integer.
pub fn get_u64(v: &Value, key: &str) -> Result<u64, CkptError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| CkptError::new(format!("field '{key}': expected unsigned integer")))
}

/// Reads a `u32` field.
///
/// # Errors
///
/// Fails when the field is missing or out of `u32` range.
pub fn get_u32(v: &Value, key: &str) -> Result<u32, CkptError> {
    u32::try_from(get_u64(v, key)?)
        .map_err(|_| CkptError::new(format!("field '{key}': out of u32 range")))
}

/// Reads a finite `f64` field stored as a plain number.
///
/// # Errors
///
/// Fails when the field is missing or not a number.
pub fn get_f64(v: &Value, key: &str) -> Result<f64, CkptError> {
    get(v, key)?
        .as_f64()
        .ok_or_else(|| CkptError::new(format!("field '{key}': expected number")))
}

/// Reads a boolean field.
///
/// # Errors
///
/// Fails when the field is missing or not a boolean.
pub fn get_bool(v: &Value, key: &str) -> Result<bool, CkptError> {
    match get(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(CkptError::new(format!("field '{key}': expected bool"))),
    }
}

/// Reads a string field.
///
/// # Errors
///
/// Fails when the field is missing or not a string.
pub fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, CkptError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| CkptError::new(format!("field '{key}': expected string")))
}

/// Reads an array field.
///
/// # Errors
///
/// Fails when the field is missing or not an array.
pub fn get_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], CkptError> {
    get(v, key)?
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| CkptError::new(format!("field '{key}': expected array")))
}

// ---------------------------------------------------------------------
// Checksum + envelope
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 hash.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash (the checksum every envelope carries).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// The envelope checksum: FNV-1a over `"{version}|{generation}|"`
/// followed by the canonical payload text, hashed in place.
fn checksum(generation: u64, payload_text: &str) -> u64 {
    let prefix = format!("{SNAPSHOT_VERSION}|{generation}|");
    fnv1a64_extend(fnv1a64(prefix.as_bytes()), payload_text.as_bytes())
}

/// Wraps a canonical payload text in the durable envelope, in one
/// pass: hash the payload where it lies, then write the envelope keys
/// in their fixed sorted order with the payload spliced in verbatim.
///
/// `payload_text` must be canonical — compact, with every object's keys
/// strictly ascending, as a [`JsonWriter`] in debug builds enforces —
/// because [`Snapshot::decode`] re-serializes the parsed payload and
/// checksums *that*. A non-canonical payload would encode fine and then
/// fail every decode.
#[must_use]
pub fn encode(generation: u64, payload_text: &str) -> String {
    let mut w = JsonWriter::with_capacity(payload_text.len() + 128);
    w.begin_object();
    w.key("checksum").hex(checksum(generation, payload_text));
    w.key("generation").hex(generation);
    w.key("magic").str(SNAPSHOT_MAGIC);
    w.key("payload").raw(payload_text);
    w.key("version").u32(SNAPSHOT_VERSION);
    w.end_object();
    w.into_string()
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
        let computed = checksum(generation, canonical.as_str());
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

    /// Stores one generation (overwriting it if present).
    ///
    /// # Errors
    ///
    /// Fails when a directory-backed store cannot write the file.
    pub fn put(&mut self, generation: u64, data: &str) -> Result<(), CkptError> {
        match &mut self.backend {
            Backend::Mem(map) => {
                map.insert(generation, data.to_string());
                Ok(())
            }
            Backend::Dir(dir) => {
                let path = Self::file_of(dir, generation);
                std::fs::write(&path, data)
                    .map_err(|e| CkptError::new(format!("write {}: {e}", path.display())))
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
        store.put(8, &encode(8, "null")).unwrap();
        store.put(16, &bomb).unwrap();
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
        // An older version is refused outright, and a forged one also
        // breaks the checksum input.
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        for other in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let forged = text.replace(&current, &format!("\"version\":{other}"));
            assert!(Snapshot::decode(&forged).is_err());
        }
    }

    #[test]
    fn store_retention_keeps_newest_k() {
        let mut store = SnapshotStore::in_memory();
        for g in [8u64, 16, 24, 32] {
            store
                .put(g, &Snapshot::new(g, Value::from(g)).encode())
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
            .put(8, &Snapshot::new(8, Value::from("old")).encode())
            .unwrap();
        let newest = Snapshot::new(16, Value::from("new")).encode();
        let torn = &newest[..newest.len() / 2];
        store.put(16, torn).unwrap();
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
                .put(g, &Snapshot::new(g, Value::from(g)).encode())
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
