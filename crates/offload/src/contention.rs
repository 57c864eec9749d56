//! Shared-edge contention: load-dependent service time.
//!
//! A single XEdge server fronting a fleet does not serve every vehicle
//! at nominal speed. Rather than simulate the server's scheduler, the
//! fleet engine prices contention with a [`ContentionModel`]: a convex,
//! deterministic map from instantaneous in-flight requests to a service
//! time multiplier. Light load costs almost nothing, saturation doubles
//! service time, and overload degrades linearly (every extra concurrent
//! request past capacity stretches everyone's service proportionally),
//! capped so pathological backlogs cannot produce absurd latencies.

/// Deterministic load → service-time-multiplier curve for a shared
/// server.
///
/// With utilization `rho = in_flight / capacity`:
///
/// * `rho <= 1`: multiplier is `1 + rho²` (convex ramp, 1.0 at idle,
///   2.0 at saturation);
/// * `rho > 1`: multiplier is `2 * rho` (linear overload — continuous
///   with the ramp at `rho = 1`);
/// * the result never exceeds `max_multiplier`.
///
/// # Examples
///
/// ```
/// use vdap_offload::ContentionModel;
///
/// let edge = ContentionModel::new(8);
/// assert_eq!(edge.service_multiplier(0), 1.0);
/// assert_eq!(edge.service_multiplier(8), 2.0);   // saturated
/// assert_eq!(edge.service_multiplier(16), 4.0);  // 2x overloaded
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    capacity: u32,
    max_multiplier: f64,
}

impl ContentionModel {
    /// Default ceiling on the service-time multiplier.
    pub const DEFAULT_MAX_MULTIPLIER: f64 = 16.0;

    /// Creates a model for a server that runs `capacity` concurrent
    /// requests at nominal speed.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ContentionModel {
            capacity,
            max_multiplier: Self::DEFAULT_MAX_MULTIPLIER,
        }
    }

    /// Replaces the multiplier ceiling.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is below 1.
    #[must_use]
    pub fn with_max_multiplier(mut self, cap: f64) -> Self {
        assert!(cap >= 1.0, "multiplier cap must be at least 1");
        self.max_multiplier = cap;
        self
    }

    /// Nominal concurrent-request capacity.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The same curve over a resized server (elastic lane pools): the
    /// multiplier ceiling carries over, only the capacity changes.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn resized(&self, capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ContentionModel {
            capacity,
            max_multiplier: self.max_multiplier,
        }
    }

    /// Utilization `in_flight / capacity` (may exceed 1 in overload).
    #[must_use]
    pub fn utilization(&self, in_flight: u32) -> f64 {
        f64::from(in_flight) / f64::from(self.capacity)
    }

    /// Service-time multiplier at the given in-flight request count.
    /// Monotone non-decreasing, continuous, `>= 1`, capped.
    #[must_use]
    pub fn service_multiplier(&self, in_flight: u32) -> f64 {
        self.service_multiplier_f64(f64::from(in_flight))
    }

    /// Service-time multiplier at a *fractional* in-flight load.
    ///
    /// Heterogeneous workload classes do not occupy the server in whole
    /// request units: a fleet batch of mixed detection frames,
    /// streaming chunks and training rounds implies a fractional
    /// average concurrency per class (`depth × service_time / epoch`),
    /// and each class's contribution is priced separately before the
    /// shares are summed into one load figure. Negative inputs clamp to
    /// idle.
    #[must_use]
    pub fn service_multiplier_f64(&self, in_flight: f64) -> f64 {
        let rho = (in_flight.max(0.0)) / f64::from(self.capacity);
        let m = if rho <= 1.0 {
            1.0 + rho * rho
        } else {
            2.0 * rho
        };
        m.min(self.max_multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_costs_nothing() {
        assert_eq!(ContentionModel::new(4).service_multiplier(0), 1.0);
    }

    #[test]
    fn curve_is_continuous_at_saturation() {
        let m = ContentionModel::new(10);
        let below = m.service_multiplier(10);
        assert!((below - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiplier_is_monotone() {
        let m = ContentionModel::new(6);
        let mut last = 0.0;
        for n in 0..100 {
            let v = m.service_multiplier(n);
            assert!(v >= last, "multiplier dipped at {n}");
            last = v;
        }
    }

    #[test]
    fn ceiling_caps_overload() {
        let m = ContentionModel::new(1).with_max_multiplier(3.0);
        assert_eq!(m.service_multiplier(100), 3.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = ContentionModel::new(0);
    }

    #[test]
    fn fractional_load_matches_integer_curve_and_interpolates() {
        let m = ContentionModel::new(8);
        for n in 0..40u32 {
            assert_eq!(
                m.service_multiplier(n),
                m.service_multiplier_f64(f64::from(n))
            );
        }
        let half = m.service_multiplier_f64(4.5);
        assert!(half > m.service_multiplier(4) && half < m.service_multiplier(5));
        assert_eq!(
            m.service_multiplier_f64(-3.0),
            1.0,
            "negative clamps to idle"
        );
    }

    #[test]
    fn resized_keeps_ceiling_and_reprices() {
        let m = ContentionModel::new(4).with_max_multiplier(3.0);
        let grown = m.resized(8);
        assert_eq!(grown.capacity(), 8);
        assert!(grown.service_multiplier(4) < m.service_multiplier(4));
        assert_eq!(grown.service_multiplier(1000), 3.0, "ceiling carries over");
    }
}
