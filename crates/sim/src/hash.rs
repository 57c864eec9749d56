//! The workspace's two non-cryptographic hashes.
//!
//! [`splitmix64`] mixes one word into a well-distributed word: it seeds
//! RNG streams, decides span sampling, and derives privacy pseudonyms.
//! [`fnv1a64`] hashes bytes: it turns stream labels into seeds and
//! checksums snapshot envelopes, whose text [`fnv1a64_extend`] folds in
//! piece by piece. Both are frozen: their outputs are part of every
//! seeded run and every stored checksum.

/// The FNV-1a 64 offset basis (the hash of no bytes).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The SplitMix64 finalizer of `x` ([splitmix64]).
///
/// [splitmix64]: https://prng.di.unimi.it/splitmix64.c
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a 64 of `bytes`.
///
/// # Examples
///
/// ```
/// use vdap_sim::{fnv1a64, fnv1a64_extend};
///
/// assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
/// assert_eq!(fnv1a64_extend(fnv1a64(b"ab"), b"cd"), fnv1a64(b"abcd"));
/// ```
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Folds `bytes` into the running FNV-1a 64 hash `hash`.
#[must_use]
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}
