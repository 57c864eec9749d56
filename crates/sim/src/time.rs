//! Virtual time for the simulation kernel.
//!
//! All latency arithmetic in the OpenVDAP reproduction happens in
//! *simulated* nanoseconds. Two newtypes keep instants and durations from
//! being confused at compile time ([`SimTime`] is a point on the virtual
//! timeline, [`SimDuration`] is a span), mirroring `std::time::Instant` /
//! `std::time::Duration` but with a saturating, fully deterministic
//! integer representation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, stored as whole nanoseconds.
///
/// Arithmetic saturates instead of overflowing so that pathological
/// parameter sweeps (e.g. "upload 4 TB over a dead link") degrade to
/// [`SimDuration::MAX`] rather than panicking.
///
/// # Examples
///
/// ```
/// use vdap_sim::SimDuration;
///
/// let transfer = SimDuration::from_millis(250) + SimDuration::from_micros(40);
/// assert_eq!(transfer.as_nanos(), 250_040_000);
/// assert!(transfer < SimDuration::from_secs(1));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration (~584 years of virtual time).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds, saturating on overflow.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a duration from whole milliseconds, saturating on overflow.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole seconds, saturating on overflow.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000_000))
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative and NaN inputs map to [`SimDuration::ZERO`]; values beyond
    /// the representable range map to [`SimDuration::MAX`].
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            if secs == f64::INFINITY {
                return SimDuration::MAX;
            }
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos.round() as u64)
        }
    }

    /// Creates a duration from fractional milliseconds (clamping like
    /// [`SimDuration::from_secs_f64`]).
    #[must_use]
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Returns the duration as whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as whole seconds (truncating).
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Returns the duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns true when this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative factor, saturating.
    ///
    /// NaN and negative factors map to [`SimDuration::ZERO`].
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of the two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of the two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics when `rhs` is zero, exactly like integer division.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if n >= 1_000_000 {
            write!(f, "{:.3}ms", n as f64 / 1e6)
        } else if n >= 1_000 {
            write!(f, "{:.3}us", n as f64 / 1e3)
        } else {
            write!(f, "{n}ns")
        }
    }
}

/// A point on the virtual timeline, measured in nanoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use vdap_sim::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_secs(3);
/// assert_eq!(later.duration_since(start), SimDuration::from_secs(3));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The end of representable time; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1_000_000_000))
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, clamped at zero when `earlier`
    /// is actually later.
    #[must_use]
    pub const fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Elapsed time from simulation start.
    #[must_use]
    pub const fn elapsed(self) -> SimDuration {
        SimDuration(self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_nanos(1_500_000_000).as_secs(), 1);
    }

    #[test]
    fn duration_from_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX * 3, SimDuration::MAX);
    }

    #[test]
    fn duration_mul_f64_scales() {
        let d = SimDuration::from_millis(100).mul_f64(2.5);
        assert_eq!(d.as_millis(), 250);
        assert_eq!(SimDuration::from_secs(1).mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn time_ordering_and_difference() {
        let a = SimTime::from_secs(1);
        let b = a + SimDuration::from_millis(250);
        assert!(b > a);
        assert_eq!(b - a, SimDuration::from_millis(250));
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_uses_adaptive_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(2).to_string(), "t+2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn min_max_behave() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
