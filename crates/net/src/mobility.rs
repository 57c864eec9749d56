//! Vehicle mobility.
//!
//! The Figure 2 drive test moves a car through Detroit at constant speed;
//! [`MobilityTrace`] reproduces that as a straight-line constant-speed
//! trace and also supports piecewise segments for richer scenarios (city
//! blocks with stops). Speeds are in the paper's unit, miles per hour.

use vdap_sim::{SimDuration, SimTime};

/// Speed in miles per hour.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Mph(pub f64);

impl Mph {
    /// Meters per second equivalent.
    #[must_use]
    pub fn as_mps(self) -> f64 {
        self.0 * 0.44704
    }

    /// Miles traveled over a span at this speed.
    #[must_use]
    pub fn miles_over(self, d: SimDuration) -> f64 {
        self.0 * d.as_secs_f64() / 3600.0
    }
}

impl std::fmt::Display for Mph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} MPH", self.0)
    }
}

/// A position along the route, in miles from the origin.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Miles(pub f64);

/// One constant-speed segment of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Speed held during the segment.
    pub speed: Mph,
    /// Segment length in time.
    pub duration: SimDuration,
}

/// A piecewise-constant-speed, straight-line mobility trace.
///
/// # Examples
///
/// ```
/// use vdap_net::{MobilityTrace, Mph};
/// use vdap_sim::{SimDuration, SimTime};
///
/// let trace = MobilityTrace::constant(Mph(70.0));
/// let pos = trace.position_at(SimTime::from_secs(3600));
/// assert!((pos.0 - 70.0).abs() < 1e-9);
/// assert_eq!(trace.speed_at(SimTime::from_secs(5)).0, 70.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityTrace {
    segments: Vec<Segment>,
    /// Speed after the last segment ends (constant traces put it here).
    tail_speed: Mph,
}

impl MobilityTrace {
    /// A stationary vehicle (the Figure 2 "static" case).
    #[must_use]
    pub fn stationary() -> Self {
        MobilityTrace::constant(Mph(0.0))
    }

    /// A vehicle holding one speed forever.
    #[must_use]
    pub fn constant(speed: Mph) -> Self {
        MobilityTrace {
            segments: Vec::new(),
            tail_speed: speed,
        }
    }

    /// Builds a piecewise trace; after the last segment the vehicle keeps
    /// `tail_speed`.
    #[must_use]
    pub fn piecewise(segments: Vec<Segment>, tail_speed: Mph) -> Self {
        MobilityTrace {
            segments,
            tail_speed,
        }
    }

    /// Speed at an instant.
    #[must_use]
    pub fn speed_at(&self, at: SimTime) -> Mph {
        let mut t = SimTime::ZERO;
        for seg in &self.segments {
            let end = t + seg.duration;
            if at < end {
                return seg.speed;
            }
            t = end;
        }
        self.tail_speed
    }

    /// Distance from the origin at an instant.
    #[must_use]
    pub fn position_at(&self, at: SimTime) -> Miles {
        let mut t = SimTime::ZERO;
        let mut miles = 0.0;
        for seg in &self.segments {
            let end = t + seg.duration;
            if at < end {
                miles += seg.speed.miles_over(at - t);
                return Miles(miles);
            }
            miles += seg.speed.miles_over(seg.duration);
            t = end;
        }
        miles += self.tail_speed.miles_over(at - t);
        Miles(miles)
    }

    /// Average speed over `[0, until]`.
    #[must_use]
    pub fn average_speed(&self, until: SimTime) -> Mph {
        let hours = until.as_secs_f64() / 3600.0;
        if hours == 0.0 {
            return self.speed_at(SimTime::ZERO);
        }
        Mph(self.position_at(until).0 / hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_positions() {
        let t = MobilityTrace::constant(Mph(35.0));
        assert!((t.position_at(SimTime::from_secs(7200)).0 - 70.0).abs() < 1e-9);
        assert_eq!(t.speed_at(SimTime::from_secs(1)).0, 35.0);
    }

    #[test]
    fn stationary_never_moves() {
        let t = MobilityTrace::stationary();
        assert_eq!(t.position_at(SimTime::from_secs(100_000)).0, 0.0);
    }

    #[test]
    fn piecewise_switches_speeds() {
        let t = MobilityTrace::piecewise(
            vec![
                Segment {
                    speed: Mph(30.0),
                    duration: SimDuration::from_secs(3600),
                },
                Segment {
                    speed: Mph(0.0),
                    duration: SimDuration::from_secs(1800),
                },
            ],
            Mph(60.0),
        );
        assert_eq!(t.speed_at(SimTime::from_secs(100)).0, 30.0);
        assert_eq!(t.speed_at(SimTime::from_secs(4000)).0, 0.0);
        assert_eq!(t.speed_at(SimTime::from_secs(6000)).0, 60.0);
        // 30 miles in hour one, 0 in the stop, then 60 mph.
        assert!((t.position_at(SimTime::from_secs(3600 + 1800 + 3600)).0 - 90.0).abs() < 1e-9);
    }

    #[test]
    fn average_speed_blends_segments() {
        let t = MobilityTrace::piecewise(
            vec![Segment {
                speed: Mph(60.0),
                duration: SimDuration::from_secs(1800),
            }],
            Mph(0.0),
        );
        let avg = t.average_speed(SimTime::from_secs(3600));
        assert!((avg.0 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn mph_conversions() {
        assert!((Mph(70.0).as_mps() - 31.29).abs() < 0.01);
        assert!((Mph(35.0).miles_over(SimDuration::from_secs(7200)) - 70.0).abs() < 1e-9);
    }
}
