//! DDI record types.
//!
//! §IV-D, Figure 7: DDI integrates four kinds of data — vehicle driving
//! data from the OBD reader and on-board sensors, plus weather, traffic
//! and social-media context from vehicle-specific APIs. Every record is
//! time-space tagged ("all the related data includes location and
//! timestamp").

use vdap_sim::SimTime;

/// A geographic position (degrees).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point.
    #[must_use]
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Approximate planar distance in degrees (fine for the city-scale
    /// queries DDI serves).
    #[must_use]
    pub fn distance_deg(&self, other: &GeoPoint) -> f64 {
        ((self.lat - other.lat).powi(2) + (self.lon - other.lon).powi(2)).sqrt()
    }
}

/// An axis-aligned geographic bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoBox {
    /// South-west corner.
    pub min: GeoPoint,
    /// North-east corner.
    pub max: GeoPoint,
}

impl GeoBox {
    /// Creates a box from two corners (normalized).
    #[must_use]
    pub fn new(a: GeoPoint, b: GeoPoint) -> Self {
        GeoBox {
            min: GeoPoint::new(a.lat.min(b.lat), a.lon.min(b.lon)),
            max: GeoPoint::new(a.lat.max(b.lat), a.lon.max(b.lon)),
        }
    }

    /// Whether the box contains a point.
    #[must_use]
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min.lat
            && p.lat <= self.max.lat
            && p.lon >= self.min.lon
            && p.lon <= self.max.lon
    }
}

/// One OBD/sensor sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrivingSample {
    /// Vehicle speed, MPH.
    pub speed_mph: f64,
    /// Longitudinal acceleration, m/s².
    pub accel_mps2: f64,
    /// Yaw rate, rad/s.
    pub yaw_rate: f64,
    /// Engine revolutions per minute.
    pub engine_rpm: f64,
    /// Throttle position in `[0, 1]`.
    pub throttle: f64,
    /// Brake pressure in `[0, 1]`.
    pub brake: f64,
}

/// Weather context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSample {
    /// Temperature, °C.
    pub temperature_c: f64,
    /// Precipitation intensity in `[0, 1]`.
    pub precipitation: f64,
    /// Visibility, km.
    pub visibility_km: f64,
}

/// Traffic context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSample {
    /// Congestion level in `[0, 1]`.
    pub congestion: f64,
    /// Average flow speed, MPH.
    pub flow_mph: f64,
    /// Whether an incident is active nearby.
    pub incident: bool,
}

/// A social-web event (emergencies, closures).
#[derive(Debug, Clone, PartialEq)]
pub struct SocialEvent {
    /// Short event description.
    pub description: String,
    /// Severity in `[0, 1]`.
    pub severity: f64,
}

/// The payload of a DDI record.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// OBD / on-board sensor data.
    Driving(DrivingSample),
    /// Weather feed.
    Weather(WeatherSample),
    /// Traffic feed.
    Traffic(TrafficSample),
    /// Social-web feed.
    Social(SocialEvent),
}

/// The four record categories (used as coarse keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordKind {
    /// OBD / sensors.
    Driving,
    /// Weather feed.
    Weather,
    /// Traffic feed.
    Traffic,
    /// Social-web feed.
    Social,
}

impl RecordKind {
    /// All record kinds.
    pub const ALL: [RecordKind; 4] = [
        RecordKind::Driving,
        RecordKind::Weather,
        RecordKind::Traffic,
        RecordKind::Social,
    ];

    /// Short lowercase label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            RecordKind::Driving => "driving",
            RecordKind::Weather => "weather",
            RecordKind::Traffic => "traffic",
            RecordKind::Social => "social",
        }
    }
}

impl std::fmt::Display for RecordKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete, time-space tagged DDI record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// When the sample was taken.
    pub at: SimTime,
    /// Where the vehicle was.
    pub location: GeoPoint,
    /// The payload.
    pub payload: Payload,
}

impl Record {
    /// Creates a record.
    #[must_use]
    pub fn new(at: SimTime, location: GeoPoint, payload: Payload) -> Self {
        Record {
            at,
            location,
            payload,
        }
    }

    /// The coarse category of the payload.
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        match self.payload {
            Payload::Driving(_) => RecordKind::Driving,
            Payload::Weather(_) => RecordKind::Weather,
            Payload::Traffic(_) => RecordKind::Traffic,
            Payload::Social(_) => RecordKind::Social,
        }
    }

    /// Approximate serialized size in bytes (for storage accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        match &self.payload {
            Payload::Driving(_) => 64,
            Payload::Weather(_) => 40,
            Payload::Traffic(_) => 40,
            Payload::Social(e) => 32 + e.description.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driving(at_secs: u64) -> Record {
        Record::new(
            SimTime::from_secs(at_secs),
            GeoPoint::new(42.33, -83.05),
            Payload::Driving(DrivingSample {
                speed_mph: 35.0,
                accel_mps2: 0.5,
                yaw_rate: 0.01,
                engine_rpm: 2000.0,
                throttle: 0.3,
                brake: 0.0,
            }),
        )
    }

    #[test]
    fn kinds_match_payloads() {
        assert_eq!(driving(0).kind(), RecordKind::Driving);
        let w = Record::new(
            SimTime::ZERO,
            GeoPoint::default(),
            Payload::Weather(WeatherSample {
                temperature_c: 20.0,
                precipitation: 0.0,
                visibility_km: 10.0,
            }),
        );
        assert_eq!(w.kind(), RecordKind::Weather);
    }

    #[test]
    fn geobox_normalizes_and_contains() {
        let b = GeoBox::new(GeoPoint::new(43.0, -83.0), GeoPoint::new(42.0, -84.0));
        assert!(b.contains(&GeoPoint::new(42.5, -83.5)));
        assert!(!b.contains(&GeoPoint::new(41.9, -83.5)));
        assert!(!b.contains(&GeoPoint::new(42.5, -82.9)));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(42.0, -83.0);
        let b = GeoPoint::new(42.3, -83.4);
        assert!((a.distance_deg(&b) - b.distance_deg(&a)).abs() < 1e-15);
        assert_eq!(a.distance_deg(&a), 0.0);
    }

    #[test]
    fn social_size_scales_with_description() {
        let small = Record::new(
            SimTime::ZERO,
            GeoPoint::default(),
            Payload::Social(SocialEvent {
                description: "x".into(),
                severity: 0.5,
            }),
        );
        let big = Record::new(
            SimTime::ZERO,
            GeoPoint::default(),
            Payload::Social(SocialEvent {
                description: "a much longer description of the emergency".into(),
                severity: 0.5,
            }),
        );
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn labels_distinct() {
        let labels: std::collections::HashSet<_> =
            RecordKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), RecordKind::ALL.len());
    }
}
