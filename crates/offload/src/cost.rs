//! Cost accounting for offloading decisions.
//!
//! Every strategy comparison in the paper's §III boils down to three
//! currencies: end-to-end latency, vehicle-side energy, and wireless
//! bytes. [`CostReport`] carries all three so experiments never have to
//! re-derive one from another.

use vdap_sim::SimDuration;

/// The cost of serving one request (or an accumulated batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostReport {
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Vehicle-side energy, joules (on-board compute + radio).
    pub vehicle_energy_j: f64,
    /// Bytes transmitted from the vehicle.
    pub bytes_up: u64,
    /// Bytes received by the vehicle.
    pub bytes_down: u64,
    /// Requests this report covers.
    pub requests: u64,
}

impl CostReport {
    /// A single-request report.
    #[must_use]
    pub fn single(
        latency: SimDuration,
        vehicle_energy_j: f64,
        bytes_up: u64,
        bytes_down: u64,
    ) -> Self {
        CostReport {
            latency,
            vehicle_energy_j,
            bytes_up,
            bytes_down,
            requests: 1,
        }
    }

    /// Accumulates another report (latencies add; use
    /// [`CostReport::mean_latency`] for per-request numbers).
    pub fn absorb(&mut self, other: &CostReport) {
        self.latency += other.latency;
        self.vehicle_energy_j += other.vehicle_energy_j;
        self.bytes_up += other.bytes_up;
        self.bytes_down += other.bytes_down;
        self.requests += other.requests;
    }

    /// Mean per-request latency.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        if self.requests == 0 {
            SimDuration::ZERO
        } else {
            self.latency / self.requests
        }
    }

    /// Mean per-request vehicle energy, joules.
    #[must_use]
    pub fn mean_energy_j(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.vehicle_energy_j / self.requests as f64
        }
    }

    /// Total wireless traffic (both directions).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut total = CostReport::default();
        total.absorb(&CostReport::single(
            SimDuration::from_millis(100),
            2.0,
            1000,
            100,
        ));
        total.absorb(&CostReport::single(
            SimDuration::from_millis(300),
            4.0,
            500,
            50,
        ));
        assert_eq!(total.requests, 2);
        assert_eq!(total.mean_latency(), SimDuration::from_millis(200));
        assert!((total.mean_energy_j() - 3.0).abs() < 1e-12);
        assert_eq!(total.total_bytes(), 1650);
    }

    #[test]
    fn empty_report_means_are_zero() {
        let r = CostReport::default();
        assert_eq!(r.mean_latency(), SimDuration::ZERO);
        assert_eq!(r.mean_energy_j(), 0.0);
    }
}
