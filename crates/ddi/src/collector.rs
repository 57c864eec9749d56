//! The DDI collector layer.
//!
//! §IV-D: "OBD reader and on-board sensors collect the driving data,
//! which includes the location, speed, acceleration, angular velocity and
//! so on. Weather, traffic and social data are collected from
//! vehicle-specific APIs." Real feeds are replaced by deterministic
//! synthetic generators (see DESIGN.md substitutions): the OBD generator
//! produces per-driver behavioural signatures that the pBEAM experiments
//! later recover, and the context collectors produce smooth plausible
//! environment series.

use vdap_sim::{RngStream, SimDuration, SimTime};

use crate::record::{
    DrivingSample, GeoPoint, Payload, Record, SocialEvent, TrafficSample, WeatherSample,
};

/// Behavioural archetypes for synthetic drivers.
///
/// pBEAM's job (§IV-E) is to recover exactly this signature from
/// telemetry, so the generator encodes it as distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverStyle {
    /// Gentle inputs, early braking.
    Calm,
    /// Average behaviour.
    Normal,
    /// Hard accelerations, late hard braking, fast cornering.
    Aggressive,
}

impl DriverStyle {
    /// All styles.
    pub const ALL: [DriverStyle; 3] = [
        DriverStyle::Calm,
        DriverStyle::Normal,
        DriverStyle::Aggressive,
    ];

    /// Mean absolute acceleration (m/s²).
    #[must_use]
    pub fn accel_scale(self) -> f64 {
        match self {
            DriverStyle::Calm => 0.6,
            DriverStyle::Normal => 1.2,
            DriverStyle::Aggressive => 2.6,
        }
    }

    /// Mean absolute yaw rate (rad/s).
    #[must_use]
    pub fn yaw_scale(self) -> f64 {
        match self {
            DriverStyle::Calm => 0.03,
            DriverStyle::Normal => 0.06,
            DriverStyle::Aggressive => 0.14,
        }
    }

    /// Probability of a hard-brake event per sample.
    #[must_use]
    pub fn hard_brake_prob(self) -> f64 {
        match self {
            DriverStyle::Calm => 0.005,
            DriverStyle::Normal => 0.02,
            DriverStyle::Aggressive => 0.09,
        }
    }

    /// Numeric class label (for training).
    #[must_use]
    pub const fn class_index(self) -> usize {
        match self {
            DriverStyle::Calm => 0,
            DriverStyle::Normal => 1,
            DriverStyle::Aggressive => 2,
        }
    }
}

/// Synthetic OBD reader: a deterministic drive-trace generator with a
/// driver-style signature.
#[derive(Debug, Clone)]
pub struct ObdCollector {
    style: DriverStyle,
    rng: RngStream,
    /// Current state.
    speed_mph: f64,
    heading: f64,
    position: GeoPoint,
    sample_period: SimDuration,
}

impl ObdCollector {
    /// Creates a collector for one driver.
    #[must_use]
    pub fn new(style: DriverStyle, rng: RngStream) -> Self {
        ObdCollector {
            style,
            rng,
            speed_mph: 30.0,
            heading: 0.0,
            position: GeoPoint::new(42.33, -83.05), // Detroit
            sample_period: SimDuration::from_millis(100),
        }
    }

    /// The driver style this collector simulates.
    #[must_use]
    pub fn style(&self) -> DriverStyle {
        self.style
    }

    /// Sampling period (default 10 Hz).
    #[must_use]
    pub fn sample_period(&self) -> SimDuration {
        self.sample_period
    }

    /// Produces the next sample at `now`, advancing the vehicle state.
    pub fn sample(&mut self, now: SimTime) -> Record {
        let dt = self.sample_period.as_secs_f64();
        let hard_brake = self.rng.chance(self.style.hard_brake_prob());
        let accel = if hard_brake {
            -(4.0 + self.rng.uniform() * 4.0)
        } else {
            self.rng.normal(0.0, self.style.accel_scale())
        };
        // Integrate speed (m/s² to MPH), clamped to road-plausible range.
        self.speed_mph = (self.speed_mph + accel * dt * 2.237).clamp(0.0, 85.0);
        let yaw = self.rng.normal(0.0, self.style.yaw_scale());
        self.heading += yaw * dt;
        // Move along the heading.
        let dist_deg = self.speed_mph * dt / 3600.0 / 69.0; // ~69 miles/deg
        self.position = GeoPoint::new(
            self.position.lat + dist_deg * self.heading.cos(),
            self.position.lon + dist_deg * self.heading.sin(),
        );
        let throttle = if accel > 0.0 {
            (accel / 5.0).min(1.0)
        } else {
            0.0
        };
        let brake = if accel < 0.0 {
            (-accel / 8.0).min(1.0)
        } else {
            0.0
        };
        Record::new(
            now,
            self.position,
            Payload::Driving(DrivingSample {
                speed_mph: self.speed_mph,
                accel_mps2: accel,
                yaw_rate: yaw,
                engine_rpm: 700.0 + self.speed_mph * 45.0 + throttle * 1500.0,
                throttle,
                brake,
            }),
        )
    }

    /// Generates a whole trace of `n` samples starting at `start`.
    pub fn trace(&mut self, start: SimTime, n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| self.sample(start + self.sample_period * i as u64))
            .collect()
    }
}

/// Synthetic weather feed: smooth diurnal temperature plus occasional
/// precipitation fronts.
#[derive(Debug, Clone)]
pub struct WeatherCollector {
    rng: RngStream,
    precipitation: f64,
}

impl WeatherCollector {
    /// Creates the feed.
    #[must_use]
    pub fn new(rng: RngStream) -> Self {
        WeatherCollector {
            rng,
            precipitation: 0.0,
        }
    }

    /// Samples the weather at `now` for `location`.
    pub fn sample(&mut self, now: SimTime, location: GeoPoint) -> Record {
        let hours = now.as_secs_f64() / 3600.0;
        let temperature_c =
            12.0 + 8.0 * ((hours % 24.0 - 14.0) * std::f64::consts::PI / 12.0).cos();
        // Precipitation: slow mean-reverting random walk.
        self.precipitation =
            (self.precipitation * 0.95 + self.rng.normal(0.0, 0.05)).clamp(0.0, 1.0);
        let visibility_km = (12.0 * (1.0 - self.precipitation)).max(0.5);
        Record::new(
            now,
            location,
            Payload::Weather(WeatherSample {
                temperature_c,
                precipitation: self.precipitation,
                visibility_km,
            }),
        )
    }
}

/// Synthetic traffic feed: rush-hour congestion waves plus random
/// incidents.
#[derive(Debug, Clone)]
pub struct TrafficCollector {
    rng: RngStream,
}

impl TrafficCollector {
    /// Creates the feed.
    #[must_use]
    pub fn new(rng: RngStream) -> Self {
        TrafficCollector { rng }
    }

    /// Samples traffic conditions at `now` for `location`.
    pub fn sample(&mut self, now: SimTime, location: GeoPoint) -> Record {
        let hours = now.as_secs_f64() / 3600.0 % 24.0;
        // Two rush-hour peaks around 8:00 and 17:30.
        let rush = (-((hours - 8.0) / 1.5).powi(2)).exp() + (-((hours - 17.5) / 1.5).powi(2)).exp();
        let congestion = (0.15 + 0.7 * rush + self.rng.normal(0.0, 0.05)).clamp(0.0, 1.0);
        let incident = self.rng.chance(0.01 + congestion * 0.03);
        Record::new(
            now,
            location,
            Payload::Traffic(TrafficSample {
                congestion,
                flow_mph: 65.0 * (1.0 - congestion * 0.85),
                incident,
            }),
        )
    }
}

/// Synthetic social-web feed: sparse emergency events.
#[derive(Debug, Clone)]
pub struct SocialCollector {
    rng: RngStream,
    counter: u64,
}

impl SocialCollector {
    /// Creates the feed.
    #[must_use]
    pub fn new(rng: RngStream) -> Self {
        SocialCollector { rng, counter: 0 }
    }

    /// Polls the feed at `now`; most polls return nothing.
    pub fn poll(&mut self, now: SimTime, location: GeoPoint) -> Option<Record> {
        if !self.rng.chance(0.02) {
            return None;
        }
        self.counter += 1;
        let kinds = [
            "road closure reported",
            "accident ahead",
            "police activity",
            "event crowd nearby",
        ];
        let description = (*self.rng.pick(&kinds).expect("non-empty")).to_string();
        Some(Record::new(
            now,
            location,
            Payload::Social(SocialEvent {
                description: format!("{description} #{}", self.counter),
                severity: self.rng.uniform(),
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    fn rng(label: &str) -> RngStream {
        SeedFactory::new(2024).stream(label)
    }

    #[test]
    fn obd_trace_is_deterministic() {
        let mut a = ObdCollector::new(DriverStyle::Normal, rng("obd"));
        let mut b = ObdCollector::new(DriverStyle::Normal, rng("obd"));
        assert_eq!(a.trace(SimTime::ZERO, 50), b.trace(SimTime::ZERO, 50));
    }

    #[test]
    fn aggressive_driver_has_higher_accel_variance() {
        let stats = |style: DriverStyle| {
            let mut c = ObdCollector::new(style, rng("style"));
            let trace = c.trace(SimTime::ZERO, 3000);
            trace
                .iter()
                .filter_map(|r| match &r.payload {
                    Payload::Driving(d) => Some(d.accel_mps2.abs()),
                    _ => None,
                })
                .sum::<f64>()
                / 3000.0
        };
        let calm = stats(DriverStyle::Calm);
        let aggressive = stats(DriverStyle::Aggressive);
        assert!(
            aggressive > calm * 2.0,
            "aggressive {aggressive} vs calm {calm}"
        );
    }

    #[test]
    fn speed_stays_in_plausible_range() {
        let mut c = ObdCollector::new(DriverStyle::Aggressive, rng("speed"));
        for r in c.trace(SimTime::ZERO, 5000) {
            if let Payload::Driving(d) = r.payload {
                assert!((0.0..=85.0).contains(&d.speed_mph));
                assert!((0.0..=1.0).contains(&d.throttle));
                assert!((0.0..=1.0).contains(&d.brake));
            }
        }
    }

    #[test]
    fn vehicle_actually_moves() {
        let mut c = ObdCollector::new(DriverStyle::Normal, rng("move"));
        let trace = c.trace(SimTime::ZERO, 1000);
        let first = trace.first().unwrap().location;
        let last = trace.last().unwrap().location;
        assert!(first.distance_deg(&last) > 1e-4);
    }

    #[test]
    fn weather_bounded_and_diurnal() {
        let mut w = WeatherCollector::new(rng("weather"));
        for h in 0..48 {
            let r = w.sample(SimTime::from_secs(h * 3600), GeoPoint::default());
            if let Payload::Weather(s) = r.payload {
                assert!((-10.0..=40.0).contains(&s.temperature_c));
                assert!((0.0..=1.0).contains(&s.precipitation));
                assert!(s.visibility_km >= 0.5);
            }
        }
    }

    #[test]
    fn traffic_peaks_at_rush_hour() {
        let congestion_at = |hour: u64| {
            let mut t = TrafficCollector::new(rng("traffic"));
            let mut total = 0.0;
            for i in 0..20 {
                let r = t.sample(
                    SimTime::from_secs(hour * 3600 + i * 60),
                    GeoPoint::default(),
                );
                if let Payload::Traffic(s) = r.payload {
                    total += s.congestion;
                }
            }
            total / 20.0
        };
        assert!(congestion_at(8) > congestion_at(3) + 0.3);
        assert!(congestion_at(17) > congestion_at(13) + 0.2);
    }

    #[test]
    fn social_events_are_sparse() {
        let mut s = SocialCollector::new(rng("social"));
        let events: Vec<_> = (0..2000)
            .filter_map(|i| s.poll(SimTime::from_secs(i), GeoPoint::default()))
            .collect();
        assert!(!events.is_empty());
        assert!(
            events.len() < 200,
            "events should be rare: {}",
            events.len()
        );
    }
}
