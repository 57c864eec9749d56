//! V2V collaboration: shared result caching (§III-C).
//!
//! "Though the collaboration of vehicles can save computing power by
//! avoiding executing unnecessary repeating operations, a collaboration
//! mechanism does not exist in the literature." This module provides
//! one: vehicles publish processed results (e.g. "road segment 17 scanned
//! for the target plate, nothing found") keyed by task and road tile;
//! followers within DSRC range reuse fresh results instead of
//! recomputing. Staleness bounds how long a result stays trustworthy.

use std::collections::HashMap;

use vdap_sim::{SimDuration, SimTime};

/// A road tile (quantized position along the route).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile(pub i64);

impl Tile {
    /// Tile size in miles.
    pub const SIZE_MILES: f64 = 0.1;

    /// The tile containing a route position.
    #[must_use]
    pub fn containing(miles: f64) -> Tile {
        Tile((miles / Tile::SIZE_MILES).floor() as i64)
    }
}

/// Cache key: which computation over which tile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Task identity, e.g. `"amber-plate-scan"`.
    pub task: String,
    /// The covered tile.
    pub tile: Tile,
}

/// A shared computation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedResult {
    /// Producing vehicle (pseudonymous id).
    pub producer: u64,
    /// When the computation ran.
    pub produced_at: SimTime,
    /// Opaque result payload.
    pub payload: Vec<u8>,
}

/// Statistics for the collaboration experiment (E10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollabStats {
    /// Lookups served from a fresh shared result.
    pub hits: u64,
    /// Lookups that found nothing (or only stale entries).
    pub misses: u64,
    /// Results published.
    pub published: u64,
    /// Entries dropped for staleness during lookups.
    pub expired: u64,
}

impl CollabStats {
    /// Fraction of lookups avoided recomputation.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shared result cache one vehicle maintains from DSRC gossip.
#[derive(Debug, Clone)]
pub struct ResultCache {
    entries: HashMap<ResultKey, SharedResult>,
    freshness: SimDuration,
    stats: CollabStats,
}

impl ResultCache {
    /// Creates a cache whose entries stay valid for `freshness`.
    ///
    /// # Panics
    ///
    /// Panics when `freshness` is zero.
    #[must_use]
    pub fn new(freshness: SimDuration) -> Self {
        assert!(!freshness.is_zero(), "freshness bound must be positive");
        ResultCache {
            entries: HashMap::new(),
            freshness,
            stats: CollabStats::default(),
        }
    }

    /// The freshness bound.
    #[must_use]
    pub fn freshness(&self) -> SimDuration {
        self.freshness
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> CollabStats {
        self.stats
    }

    /// Number of cached entries (fresh or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Publishes a locally computed (or gossip-received) result. Newer
    /// results replace older ones for the same key.
    pub fn publish(&mut self, key: ResultKey, result: SharedResult) {
        self.stats.published += 1;
        match self.entries.get(&key) {
            Some(existing) if existing.produced_at >= result.produced_at => {}
            _ => {
                self.entries.insert(key, result);
            }
        }
    }

    /// Looks up a fresh result; stale entries are evicted and count as
    /// misses.
    pub fn lookup(&mut self, key: &ResultKey, now: SimTime) -> Option<SharedResult> {
        match self.entries.get(key) {
            Some(r) if now.duration_since(r.produced_at) <= self.freshness => {
                self.stats.hits += 1;
                Some(r.clone())
            }
            Some(_) => {
                self.entries.remove(key);
                self.stats.expired += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Merges gossip from a neighbour's cache (e.g. on DSRC contact):
    /// keeps the newer result per key.
    pub fn merge_from(&mut self, other: &ResultCache) {
        for (k, v) in &other.entries {
            self.publish(k.clone(), v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tile: i64) -> ResultKey {
        ResultKey {
            task: "amber-plate-scan".into(),
            tile: Tile(tile),
        }
    }

    fn result(producer: u64, at_secs: u64) -> SharedResult {
        SharedResult {
            producer,
            produced_at: SimTime::from_secs(at_secs),
            payload: vec![0],
        }
    }

    fn cache() -> ResultCache {
        ResultCache::new(SimDuration::from_secs(60))
    }

    #[test]
    fn fresh_results_hit() {
        let mut c = cache();
        c.publish(key(1), result(7, 100));
        let hit = c.lookup(&key(1), SimTime::from_secs(130));
        assert_eq!(hit.unwrap().producer, 7);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn stale_results_expire() {
        let mut c = cache();
        c.publish(key(1), result(7, 100));
        assert!(c.lookup(&key(1), SimTime::from_secs(161)).is_none());
        assert_eq!(c.stats().expired, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn newer_results_replace_older() {
        let mut c = cache();
        c.publish(key(1), result(1, 100));
        c.publish(key(1), result(2, 200));
        c.publish(key(1), result(3, 150)); // older than current: ignored
        let r = c.lookup(&key(1), SimTime::from_secs(210)).unwrap();
        assert_eq!(r.producer, 2);
    }

    #[test]
    fn tiles_quantize_positions() {
        assert_eq!(Tile::containing(0.0), Tile(0));
        assert_eq!(Tile::containing(0.09), Tile(0));
        assert_eq!(Tile::containing(0.11), Tile(1));
        assert_eq!(Tile::containing(-0.05), Tile(-1));
    }

    #[test]
    fn gossip_merge_prefers_newer() {
        let mut a = cache();
        let mut b = cache();
        a.publish(key(1), result(1, 100));
        b.publish(key(1), result(2, 150));
        b.publish(key(2), result(2, 100));
        a.merge_from(&b);
        assert_eq!(
            a.lookup(&key(1), SimTime::from_secs(160)).unwrap().producer,
            2
        );
        assert!(a.lookup(&key(2), SimTime::from_secs(160)).is_some());
    }

    #[test]
    fn hit_rate_math() {
        let mut c = cache();
        c.publish(key(1), result(1, 0));
        c.lookup(&key(1), SimTime::from_secs(10));
        c.lookup(&key(2), SimTime::from_secs(10));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache().stats().hit_rate(), 0.0);
    }

    #[test]
    fn convoy_saves_recomputation() {
        // Three vehicles traverse the same 20 tiles one minute apart;
        // followers should reuse almost every leader result.
        let mut shared = cache();
        let mut computations = 0u64;
        for (vehicle, start) in [(1u64, 0u64), (2, 30), (3, 50)] {
            for tile in 0..20i64 {
                let now = SimTime::from_secs(start + tile as u64);
                let k = key(tile);
                if shared.lookup(&k, now).is_none() {
                    computations += 1;
                    shared.publish(
                        k,
                        SharedResult {
                            producer: vehicle,
                            produced_at: now,
                            payload: vec![],
                        },
                    );
                }
            }
        }
        assert_eq!(computations, 20, "followers must reuse leader results");
        assert!(shared.stats().hit_rate() > 0.6);
    }
}
