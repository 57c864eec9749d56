//! Host calibration: a fixed reference kernel, timed next to every
//! engine run, whose time gives the host's current speed.
//!
//! The shared host the benchmark runs on changes speed for seconds to
//! minutes at a time, by up to 40% for the engine's cache-bound barrier
//! work. The kernel is cache-bound the same way: ordered-map inserts,
//! lookups and removals over a few MiB, and sorts of records it has just
//! built. Its time moves with the engine's, so `engine wall ÷ kernel
//! time` stays put while both drift. A calibrated time is that ratio in
//! the kernel's reference seconds.
//!
//! The kernel uses only the standard library and its own generator, so
//! no change to the engine crates can change its work. It allocates
//! about 4 MiB, which every workload has freed and left on the heap
//! before the first kernel runs, so it does not move peak RSS.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one `kernel_s` call takes on the 2-vCPU host the README's
/// baselines come from, in its fastest phase (the median call takes
/// 0.06–0.07 s there). A calibrated time is a wall time rescaled so the
/// kernel would have taken this long.
pub const REFERENCE_S: f64 = 0.05;

/// Rounds of each part of the kernel per call.
const ROUNDS: u64 = 3;
/// Keys in the map of the insert/lookup/remove part.
const MAP_KEYS: u64 = 32_000;
/// Records in the build-and-sort part, and how many are formatted.
const RECORDS: u64 = 40_000;
const FORMATTED: usize = 10_000;

/// A 64-bit linear congruential step; the high bits are the draw.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 16
}

/// Inserts `MAP_KEYS` keys with a lookup after each, then removes half.
fn map_churn(seed: u64) -> u64 {
    let mut state = seed;
    let mut map = BTreeMap::new();
    let mut found = 0;
    for i in 0..MAP_KEYS {
        map.insert(next(&mut state) % (2 * MAP_KEYS), i);
        if let Some(v) = map.get(&(next(&mut state) % (2 * MAP_KEYS))) {
            found += v;
        }
    }
    for key in (0..2 * MAP_KEYS).step_by(4) {
        map.remove(&key);
    }
    found + map.len() as u64
}

/// Builds `RECORDS` keyed records in a map, drains them into a vector,
/// sorts it by another field and formats the first `FORMATTED` keys.
fn build_and_sort(seed: u64) -> u64 {
    let mut state = seed;
    let mut map = BTreeMap::new();
    for i in 0..RECORDS {
        let draw = next(&mut state);
        map.insert(draw >> 4, [i, draw, i ^ draw, 1]);
    }
    let mut records: Vec<(u64, [u64; 4])> = map.into_iter().collect();
    records.sort_by_key(|(_, fields)| fields[1]);
    let text: Vec<String> = records
        .iter()
        .take(FORMATTED)
        .map(|(key, _)| key.to_string())
        .collect();
    records.len() as u64 + text.iter().map(|s| s.len() as u64).sum::<u64>()
}

/// Runs the reference kernel once; returns its wall time in seconds.
#[must_use]
pub fn kernel_s() -> f64 {
    let started = Instant::now();
    for round in 0..ROUNDS {
        black_box(map_churn(black_box(round + 1)));
        black_box(build_and_sort(black_box(round + 7)));
    }
    started.elapsed().as_secs_f64()
}

/// `wall` seconds measured while the kernel took `kernel` seconds,
/// in reference seconds.
#[must_use]
pub fn calibrated(wall: f64, kernel: f64) -> f64 {
    wall * REFERENCE_S / kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        assert_eq!(map_churn(1), map_churn(1));
        assert_eq!(build_and_sort(7), build_and_sort(7));
        assert!(kernel_s() > 0.0);
    }

    #[test]
    fn a_host_twice_as_slow_reads_the_same() {
        let quiet = calibrated(1.0, REFERENCE_S);
        assert_eq!(quiet, 1.0);
        assert!((calibrated(2.0, 2.0 * REFERENCE_S) - quiet).abs() < 1e-12);
    }
}
