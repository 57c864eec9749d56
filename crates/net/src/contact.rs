//! DSRC contact geometry.
//!
//! V2V links only exist while vehicles are inside each other's radio
//! range (§IV-A uses DSRC for vehicle-to-vehicle communication). This
//! module decides who can talk to whom given positions along the route,
//! and tracks contact windows so collaboration experiments can gossip
//! only through real link opportunities.

use vdap_sim::SimTime;

use crate::mobility::Miles;

/// A DSRC radio's reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsrcRadio {
    /// Usable range in miles (≈300 m for 802.11p at highway speeds).
    pub range_miles: f64,
}

impl Default for DsrcRadio {
    fn default() -> Self {
        DsrcRadio { range_miles: 0.19 }
    }
}

impl DsrcRadio {
    /// Creates a radio with the given range.
    ///
    /// # Panics
    ///
    /// Panics when the range is not positive.
    #[must_use]
    pub fn new(range_miles: f64) -> Self {
        assert!(range_miles > 0.0, "range must be positive");
        DsrcRadio { range_miles }
    }

    /// Whether two route positions can exchange frames.
    #[must_use]
    pub fn in_range(&self, a: Miles, b: Miles) -> bool {
        (a.0 - b.0).abs() <= self.range_miles
    }

    /// All unordered in-range pairs among `positions` (indices).
    #[must_use]
    pub fn contact_pairs(&self, positions: &[Miles]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                if self.in_range(positions[i], positions[j]) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }
}

/// One completed (or open) contact window between two vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContactWindow {
    /// The vehicle pair (lower index first).
    pub pair: (usize, usize),
    /// When contact began.
    pub start: SimTime,
    /// When contact ended (`None` while still open).
    pub end: Option<SimTime>,
}

/// Tracks contact windows from a stream of position snapshots.
#[derive(Debug, Clone, Default)]
pub struct ContactTracker {
    radio: DsrcRadio,
    open: Vec<ContactWindow>,
    closed: Vec<ContactWindow>,
}

impl ContactTracker {
    /// Creates a tracker for a radio.
    #[must_use]
    pub fn new(radio: DsrcRadio) -> Self {
        ContactTracker {
            radio,
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Feeds a position snapshot at `now`; returns the pairs currently
    /// in contact.
    pub fn observe(&mut self, now: SimTime, positions: &[Miles]) -> Vec<(usize, usize)> {
        let current = self.radio.contact_pairs(positions);
        // Close windows that ended.
        let mut still_open = Vec::new();
        for mut w in self.open.drain(..) {
            if current.contains(&w.pair) {
                still_open.push(w);
            } else {
                w.end = Some(now);
                self.closed.push(w);
            }
        }
        // Open new windows.
        for &pair in &current {
            if !still_open.iter().any(|w| w.pair == pair) {
                still_open.push(ContactWindow {
                    pair,
                    start: now,
                    end: None,
                });
            }
        }
        self.open = still_open;
        current
    }

    /// Completed contact windows.
    #[must_use]
    pub fn closed_windows(&self) -> &[ContactWindow] {
        &self.closed
    }

    /// Currently open windows.
    #[must_use]
    pub fn open_windows(&self) -> &[ContactWindow] {
        &self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_check_symmetric() {
        let radio = DsrcRadio::default();
        assert!(radio.in_range(Miles(1.0), Miles(1.1)));
        assert!(radio.in_range(Miles(1.1), Miles(1.0)));
        assert!(!radio.in_range(Miles(1.0), Miles(1.3)));
    }

    #[test]
    fn contact_pairs_enumerates_neighbours() {
        let radio = DsrcRadio::new(0.2);
        // Three vehicles: 0 and 1 close, 2 far.
        let pairs = radio.contact_pairs(&[Miles(0.0), Miles(0.15), Miles(1.0)]);
        assert_eq!(pairs, vec![(0, 1)]);
        // A platoon chain: 0-1 and 1-2 but not 0-2.
        let pairs = radio.contact_pairs(&[Miles(0.0), Miles(0.18), Miles(0.36)]);
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn tracker_opens_and_closes_windows() {
        let mut tracker = ContactTracker::new(DsrcRadio::new(0.2));
        // Approaching, overlapping, separating.
        tracker.observe(SimTime::from_secs(0), &[Miles(0.0), Miles(0.5)]);
        assert!(tracker.open_windows().is_empty());
        tracker.observe(SimTime::from_secs(10), &[Miles(0.3), Miles(0.45)]);
        assert_eq!(tracker.open_windows().len(), 1);
        tracker.observe(SimTime::from_secs(20), &[Miles(0.6), Miles(0.4)]);
        assert_eq!(tracker.open_windows().len(), 1, "still within range");
        tracker.observe(SimTime::from_secs(30), &[Miles(1.0), Miles(0.4)]);
        assert!(tracker.open_windows().is_empty());
        let closed = tracker.closed_windows();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start, SimTime::from_secs(10));
        assert_eq!(closed[0].end, Some(SimTime::from_secs(30)));
    }

    #[test]
    fn reopened_contact_is_a_new_window() {
        let mut tracker = ContactTracker::new(DsrcRadio::new(0.2));
        tracker.observe(SimTime::from_secs(0), &[Miles(0.0), Miles(0.1)]);
        tracker.observe(SimTime::from_secs(10), &[Miles(0.0), Miles(0.5)]);
        tracker.observe(SimTime::from_secs(20), &[Miles(0.0), Miles(0.1)]);
        assert_eq!(tracker.closed_windows().len(), 1);
        assert_eq!(tracker.open_windows().len(), 1);
        assert_eq!(tracker.open_windows()[0].start, SimTime::from_secs(20));
    }
}
