//! Power and energy accounting.
//!
//! §III-B argues the pure in-vehicle solution is impracticable because
//! powerful processors draw hundreds of watts from a supply that also
//! feeds sensors and, on EVs, directly trades against driving range.
//! [`PowerBudget`] models the supply ceiling and [`Battery`] models the
//! range impact ("mileage per discharge cycle").

use vdap_sim::SimDuration;

/// The vehicle's electrical budget for compute, in watts.
///
/// # Examples
///
/// ```
/// use vdap_hw::PowerBudget;
///
/// let mut budget = PowerBudget::new(300.0);
/// assert!(budget.try_allocate("gpu", 250.0));
/// assert!(!budget.try_allocate("second-gpu", 100.0));
/// budget.release("gpu");
/// assert!(budget.try_allocate("second-gpu", 100.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBudget {
    capacity_watts: f64,
    allocations: Vec<(String, f64)>,
}

impl PowerBudget {
    /// Creates a budget with the given ceiling.
    ///
    /// # Panics
    ///
    /// Panics when `capacity_watts` is not positive and finite.
    #[must_use]
    pub fn new(capacity_watts: f64) -> Self {
        assert!(
            capacity_watts.is_finite() && capacity_watts > 0.0,
            "capacity must be positive"
        );
        PowerBudget {
            capacity_watts,
            allocations: Vec::new(),
        }
    }

    /// The ceiling in watts.
    #[must_use]
    pub fn capacity_watts(&self) -> f64 {
        self.capacity_watts
    }

    /// Watts currently allocated.
    #[must_use]
    pub fn allocated_watts(&self) -> f64 {
        self.allocations.iter().map(|(_, w)| w).sum()
    }

    /// Watts still available.
    #[must_use]
    pub fn headroom_watts(&self) -> f64 {
        (self.capacity_watts - self.allocated_watts()).max(0.0)
    }

    /// Tries to reserve `watts` under `label`; false when it would exceed
    /// the ceiling. Re-allocating an existing label replaces its share.
    pub fn try_allocate(&mut self, label: impl Into<String>, watts: f64) -> bool {
        assert!(watts.is_finite() && watts >= 0.0, "watts must be >= 0");
        let label = label.into();
        let existing: f64 = self
            .allocations
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, w)| w)
            .sum();
        if self.allocated_watts() - existing + watts > self.capacity_watts + 1e-9 {
            return false;
        }
        self.allocations.retain(|(l, _)| *l != label);
        self.allocations.push((label, watts));
        true
    }

    /// Releases the reservation held under `label` (no-op when absent).
    pub fn release(&mut self, label: &str) {
        self.allocations.retain(|(l, _)| l != label);
    }

    /// Labels currently holding reservations.
    #[must_use]
    pub fn holders(&self) -> Vec<&str> {
        self.allocations.iter().map(|(l, _)| l.as_str()).collect()
    }
}

/// An EV traction battery whose capacity is shared between driving and
/// on-board compute.
///
/// The range model is linear: driving consumes a fixed number of watt
/// hours per mile; steady compute load at cruise speed converts watts into
/// additional watt-hours per mile (`watts / mph`).
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity_wh: f64,
    remaining_wh: f64,
    drive_wh_per_mile: f64,
}

impl Battery {
    /// A typical 2018 EV pack: 60 kWh at 250 Wh/mile.
    #[must_use]
    pub fn typical_ev() -> Self {
        Battery::new(60_000.0, 250.0)
    }

    /// Creates a full battery.
    ///
    /// # Panics
    ///
    /// Panics when either argument is not positive and finite.
    #[must_use]
    pub fn new(capacity_wh: f64, drive_wh_per_mile: f64) -> Self {
        assert!(capacity_wh.is_finite() && capacity_wh > 0.0);
        assert!(drive_wh_per_mile.is_finite() && drive_wh_per_mile > 0.0);
        Battery {
            capacity_wh,
            remaining_wh: capacity_wh,
            drive_wh_per_mile,
        }
    }

    /// Pack capacity in watt-hours.
    #[must_use]
    pub fn capacity_wh(&self) -> f64 {
        self.capacity_wh
    }

    /// Remaining charge in watt-hours.
    #[must_use]
    pub fn remaining_wh(&self) -> f64 {
        self.remaining_wh
    }

    /// State of charge in `[0, 1]`.
    #[must_use]
    pub fn state_of_charge(&self) -> f64 {
        self.remaining_wh / self.capacity_wh
    }

    /// Drains energy in joules (clamping at empty); returns the watt-hours
    /// actually drained.
    pub fn drain_joules(&mut self, joules: f64) -> f64 {
        let wh = (joules / 3600.0).max(0.0);
        let drained = wh.min(self.remaining_wh);
        self.remaining_wh -= drained;
        drained
    }

    /// Drains a steady load over a span.
    pub fn drain_load(&mut self, watts: f64, over: SimDuration) -> f64 {
        self.drain_joules(watts.max(0.0) * over.as_secs_f64())
    }

    /// Recharges to full.
    pub fn recharge(&mut self) {
        self.remaining_wh = self.capacity_wh;
    }

    /// Range in miles on a full charge with a steady compute load at the
    /// given cruise speed — the paper's "mileage per discharge cycle".
    ///
    /// # Panics
    ///
    /// Panics when `cruise_mph` is not positive.
    #[must_use]
    pub fn range_miles(&self, compute_watts: f64, cruise_mph: f64) -> f64 {
        assert!(cruise_mph > 0.0, "cruise speed must be positive");
        let compute_wh_per_mile = compute_watts.max(0.0) / cruise_mph;
        self.capacity_wh / (self.drive_wh_per_mile + compute_wh_per_mile)
    }

    /// Fractional range lost to a compute load versus an idle platform.
    #[must_use]
    pub fn range_penalty(&self, compute_watts: f64, cruise_mph: f64) -> f64 {
        let base = self.range_miles(0.0, cruise_mph);
        let loaded = self.range_miles(compute_watts, cruise_mph);
        1.0 - loaded / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_enforces_ceiling() {
        let mut b = PowerBudget::new(100.0);
        assert!(b.try_allocate("a", 60.0));
        assert!(!b.try_allocate("b", 50.0));
        assert!(b.try_allocate("b", 40.0));
        assert!((b.headroom_watts() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn budget_reallocation_replaces() {
        let mut b = PowerBudget::new(100.0);
        assert!(b.try_allocate("a", 90.0));
        // Shrinking an existing reservation must succeed.
        assert!(b.try_allocate("a", 10.0));
        assert!((b.allocated_watts() - 10.0).abs() < 1e-9);
        assert_eq!(b.holders(), vec!["a"]);
    }

    #[test]
    fn budget_release_frees() {
        let mut b = PowerBudget::new(100.0);
        assert!(b.try_allocate("a", 100.0));
        b.release("a");
        assert_eq!(b.allocated_watts(), 0.0);
        b.release("missing"); // no-op
    }

    #[test]
    fn battery_drains_and_clamps() {
        let mut bat = Battery::new(10.0, 250.0); // 10 Wh
        let drained = bat.drain_joules(3600.0 * 4.0); // 4 Wh
        assert!((drained - 4.0).abs() < 1e-9);
        assert!((bat.remaining_wh() - 6.0).abs() < 1e-9);
        let drained = bat.drain_joules(3600.0 * 100.0);
        assert!((drained - 6.0).abs() < 1e-9);
        assert_eq!(bat.remaining_wh(), 0.0);
        bat.recharge();
        assert!((bat.state_of_charge() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drain_load_uses_duration() {
        let mut bat = Battery::new(100.0, 250.0);
        bat.drain_load(360.0, SimDuration::from_secs(3600)); // 360 Wh demand
        assert_eq!(bat.remaining_wh(), 0.0);
    }

    #[test]
    fn range_drops_with_compute_load() {
        let bat = Battery::typical_ev();
        let base = bat.range_miles(0.0, 60.0);
        assert!((base - 240.0).abs() < 1e-9);
        // A 300 W GPU rig at 60 mph adds 5 Wh/mile -> ~235.3 miles.
        let loaded = bat.range_miles(300.0, 60.0);
        assert!(loaded < base);
        assert!((loaded - 60_000.0 / 255.0).abs() < 1e-6);
        assert!(bat.range_penalty(300.0, 60.0) > 0.0);
    }

    #[test]
    fn range_penalty_monotone_in_load() {
        let bat = Battery::typical_ev();
        let mut last = 0.0;
        for watts in [0.0, 50.0, 150.0, 300.0, 500.0] {
            let p = bat.range_penalty(watts, 35.0);
            assert!(p >= last, "penalty must grow with load");
            last = p;
        }
    }
}
