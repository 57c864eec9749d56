//! The Privacy module (§IV-C).
//!
//! "To protect the privacy of data sharing between vehicles, some
//! identity privacy protection schemes will be provided by the Privacy
//! module. For example, the vehicle can use the pseudonym, generated and
//! periodically updated by the Privacy module."
//!
//! [`PseudonymManager`] issues per-epoch pseudonyms: stable within a
//! rotation period (so conversations work), unlinkable across periods
//! (so trajectories cannot be stitched), and resolvable only through the
//! issuing authority's private map.

use std::collections::HashMap;

use vdap_sim::{splitmix64, SimDuration, SimTime};

/// A vehicle's long-term identity (never sent over the air).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VehicleId(pub u64);

/// A rotating over-the-air pseudonym.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pseudonym(pub u64);

impl std::fmt::Display for Pseudonym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pseu-{:016x}", self.0)
    }
}

/// Issues and resolves rotating pseudonyms.
#[derive(Debug, Clone)]
pub struct PseudonymManager {
    rotation_period: SimDuration,
    secret: u64,
    /// Authority-side reverse map, per epoch.
    issued: HashMap<Pseudonym, (VehicleId, u64)>,
}

impl PseudonymManager {
    /// Creates a manager with a rotation period and an authority secret.
    ///
    /// # Panics
    ///
    /// Panics when the period is zero.
    #[must_use]
    pub fn new(rotation_period: SimDuration, secret: u64) -> Self {
        assert!(
            !rotation_period.is_zero(),
            "rotation period must be positive"
        );
        PseudonymManager {
            rotation_period,
            secret,
            issued: HashMap::new(),
        }
    }

    /// The rotation epoch containing `now`.
    #[must_use]
    pub fn epoch(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.rotation_period.as_nanos()
    }

    /// The pseudonym `vehicle` uses at `now` (recorded for resolution).
    pub fn pseudonym_for(&mut self, vehicle: VehicleId, now: SimTime) -> Pseudonym {
        let epoch = self.epoch(now);
        let p = Pseudonym(splitmix64(
            self.secret ^ vehicle.0.rotate_left(17) ^ epoch.rotate_left(41),
        ));
        self.issued.insert(p, (vehicle, epoch));
        p
    }

    /// Authority-side resolution of a pseudonym back to the vehicle and
    /// the epoch it was valid in (law-enforcement escrow).
    #[must_use]
    pub fn resolve(&self, pseudonym: Pseudonym) -> Option<(VehicleId, u64)> {
        self.issued.get(&pseudonym).copied()
    }

    /// Whether two over-the-air pseudonyms can be linked by an outside
    /// observer (same value ⇒ linkable; the manager never reuses values
    /// across epochs or vehicles except by 64-bit collision).
    #[must_use]
    pub fn linkable(a: Pseudonym, b: Pseudonym) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> PseudonymManager {
        PseudonymManager::new(SimDuration::from_secs(600), 0x5EC5_EC5E_C5EC_5EC5)
    }

    #[test]
    fn stable_within_epoch() {
        let mut m = manager();
        let v = VehicleId(7);
        let a = m.pseudonym_for(v, SimTime::from_secs(10));
        let b = m.pseudonym_for(v, SimTime::from_secs(599));
        assert_eq!(a, b);
    }

    #[test]
    fn unlinkable_across_epochs() {
        let mut m = manager();
        let v = VehicleId(7);
        let a = m.pseudonym_for(v, SimTime::from_secs(10));
        let b = m.pseudonym_for(v, SimTime::from_secs(700));
        assert!(!PseudonymManager::linkable(a, b));
    }

    #[test]
    fn distinct_vehicles_distinct_pseudonyms() {
        let mut m = manager();
        let a = m.pseudonym_for(VehicleId(1), SimTime::ZERO);
        let b = m.pseudonym_for(VehicleId(2), SimTime::ZERO);
        assert_ne!(a, b);
    }

    #[test]
    fn authority_can_resolve() {
        let mut m = manager();
        let v = VehicleId(42);
        let p = m.pseudonym_for(v, SimTime::from_secs(1300));
        assert_eq!(m.resolve(p), Some((v, 2)));
        assert!(m.resolve(Pseudonym(12345)).is_none());
    }

    #[test]
    fn different_secrets_different_pseudonyms() {
        let mut m1 = PseudonymManager::new(SimDuration::from_secs(600), 1);
        let mut m2 = PseudonymManager::new(SimDuration::from_secs(600), 2);
        let v = VehicleId(9);
        assert_ne!(
            m1.pseudonym_for(v, SimTime::ZERO),
            m2.pseudonym_for(v, SimTime::ZERO)
        );
    }

    #[test]
    fn epoch_math() {
        let m = manager();
        assert_eq!(m.epoch(SimTime::ZERO), 0);
        assert_eq!(m.epoch(SimTime::from_secs(599)), 0);
        assert_eq!(m.epoch(SimTime::from_secs(600)), 1);
    }
}
