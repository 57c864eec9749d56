//! The deterministic mobility ledger.

use vdap_sim::StreamingHistogram;

/// Mobility accounting, filled by the fleet engine's barrier
/// mobility pass in canonical `(epoch, vehicle)` order.
///
/// Crossings are a pure function of each vehicle's seeded track, and
/// `migrations` counts crossings whose destination region is homed on
/// a *different XEdge node domain* than the source
/// (`region % edge_nodes`). Hence the ledger invariant:
/// `crossings == migrations + same_shard_crossings`, where
/// `same_shard_crossings` counts the crossings that stay in the same
/// home-node domain.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityMetrics {
    /// Region-boundary crossings.
    pub crossings: u64,
    /// Crossings into a different XEdge home-node domain.
    pub migrations: u64,
    /// Crossings that stay inside the same home-node domain.
    pub same_shard_crossings: u64,
    /// Crossings that landed while the destination's handoff label was
    /// storming (`RegionHandoffStorm` multiplied the handoff cost).
    pub storm_crossings: u64,
    /// V2V snapshot lookups suppressed because the vehicle's collab
    /// cache went stale at its last crossing.
    pub stale_cache_hits: u64,
    /// In-flight ingest batches (pending retries + TTL-cached) re-
    /// addressed to the destination region's collector at a crossing.
    pub readdressed_batches: u64,
    /// Total connectivity seconds paid to cellular handoffs.
    pub handoff_seconds: f64,
    /// Per-crossing handoff cost (ms).
    pub handoff_ms: StreamingHistogram,
    /// Nominal speed of the segment each crossing arrived on (mph).
    pub crossing_speed_mph: StreamingHistogram,
}

impl Default for MobilityMetrics {
    fn default() -> Self {
        MobilityMetrics::new()
    }
}

impl MobilityMetrics {
    /// Creates an empty mobility ledger.
    #[must_use]
    pub fn new() -> Self {
        MobilityMetrics {
            crossings: 0,
            migrations: 0,
            same_shard_crossings: 0,
            storm_crossings: 0,
            stale_cache_hits: 0,
            readdressed_batches: 0,
            handoff_seconds: 0.0,
            handoff_ms: StreamingHistogram::new("mobility_handoff_ms"),
            crossing_speed_mph: StreamingHistogram::new("mobility_crossing_speed_mph"),
        }
    }

    /// The partition invariant the proptests pin: every crossing is
    /// either a domain migration or a same-domain move.
    #[must_use]
    pub fn partitions(&self) -> bool {
        self.crossings == self.migrations + self.same_shard_crossings
    }
}
