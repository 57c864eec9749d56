//! The Data Sharing module (§IV-C).
//!
//! "the Data Sharing module provides a mechanism for data sharing
//! between different services with a high security, which will
//! authenticate the service and perform fine grain access control" —
//! e.g. the pedestrian-detection service and the mobile-A3 service both
//! read the camera topic, and A3 publishes plate results that the
//! vehicle-recorder service consumes.
//!
//! [`SharingBus`] is an authenticated, topic-based bus: services
//! register (receiving a capability token), are granted per-topic read
//! rights, and every access lands in an audit log.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use vdap_sim::SimTime;

/// A capability token proving a service's identity on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(u64);

/// One shared item on a topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedItem {
    /// Producing service.
    pub producer: String,
    /// Publication time.
    pub at: SimTime,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Audit-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// When the access happened.
    pub at: SimTime,
    /// Acting service.
    pub service: String,
    /// Topic touched.
    pub topic: String,
    /// `"publish"`, `"read"`, or `"denied"`.
    pub action: &'static str,
}

/// Errors from the sharing bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharingError {
    /// The token does not belong to any registered service.
    BadToken,
    /// The service lacks read access to the topic.
    AccessDenied {
        /// The requesting service.
        service: String,
        /// The protected topic.
        topic: String,
    },
}

impl std::fmt::Display for SharingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharingError::BadToken => write!(f, "unrecognized capability token"),
            SharingError::AccessDenied { service, topic } => {
                write!(f, "'{service}' may not read topic '{topic}'")
            }
        }
    }
}

impl std::error::Error for SharingError {}

#[derive(Debug, Default)]
struct BusState {
    services: HashMap<Token, String>,
    grants: HashMap<(String, String), ()>,
    topics: HashMap<String, Vec<SharedItem>>,
    audit: Vec<AuditEntry>,
    next_token: u64,
}

/// The authenticated data-sharing bus. Thread-safe: services running on
/// different cores share one bus.
#[derive(Debug, Default)]
pub struct SharingBus {
    state: Mutex<BusState>,
}

impl SharingBus {
    /// Creates an empty bus.
    #[must_use]
    pub fn new() -> Self {
        SharingBus::default()
    }

    /// The locked bus state. A caller's panic under the lock (say, in a
    /// name's `Into<String>`) poisons it; every update leaves the state
    /// whole, so the next caller recovers the lock instead of panicking.
    fn state(&self) -> MutexGuard<'_, BusState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a service; the returned token authenticates it.
    pub fn register(&self, service: impl Into<String>) -> Token {
        let mut s = self.state();
        s.next_token = s
            .next_token
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let token = Token(s.next_token);
        s.services.insert(token, service.into());
        token
    }

    /// Grants `service` read access to `topic` (publishing to a topic is
    /// always allowed for registered services; reads are fine-grained).
    pub fn grant_read(&self, service: impl Into<String>, topic: impl Into<String>) {
        self.state()
            .grants
            .insert((service.into(), topic.into()), ());
    }

    /// Publishes a payload to a topic.
    ///
    /// # Errors
    ///
    /// Returns [`SharingError::BadToken`] for unauthenticated callers.
    pub fn publish(
        &self,
        token: Token,
        topic: impl Into<String>,
        payload: Vec<u8>,
        now: SimTime,
    ) -> Result<(), SharingError> {
        let topic = topic.into();
        let mut s = self.state();
        let service = s
            .services
            .get(&token)
            .cloned()
            .ok_or(SharingError::BadToken)?;
        s.audit.push(AuditEntry {
            at: now,
            service: service.clone(),
            topic: topic.clone(),
            action: "publish",
        });
        s.topics.entry(topic).or_default().push(SharedItem {
            producer: service,
            at: now,
            payload,
        });
        Ok(())
    }

    /// Reads every item on a topic (authenticated + access-controlled).
    ///
    /// # Errors
    ///
    /// Returns [`SharingError::BadToken`] or
    /// [`SharingError::AccessDenied`]; denials are audited.
    pub fn read(
        &self,
        token: Token,
        topic: &str,
        now: SimTime,
    ) -> Result<Vec<SharedItem>, SharingError> {
        let mut s = self.state();
        let service = s
            .services
            .get(&token)
            .cloned()
            .ok_or(SharingError::BadToken)?;
        let allowed = s.grants.contains_key(&(service.clone(), topic.to_string()));
        if !allowed {
            s.audit.push(AuditEntry {
                at: now,
                service: service.clone(),
                topic: topic.to_string(),
                action: "denied",
            });
            return Err(SharingError::AccessDenied {
                service,
                topic: topic.to_string(),
            });
        }
        s.audit.push(AuditEntry {
            at: now,
            service,
            topic: topic.to_string(),
            action: "read",
        });
        Ok(s.topics.get(topic).cloned().unwrap_or_default())
    }

    /// A copy of the audit log.
    #[must_use]
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.state().audit.clone()
    }

    /// Number of items on a topic.
    #[must_use]
    pub fn topic_len(&self, topic: &str) -> usize {
        self.state().topics.get(topic).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camera_sharing_between_services() {
        // The paper's example: pedestrian detection and mobile A3 both
        // consume the camera topic; A3 publishes plate results that the
        // vehicle recorder reads.
        let bus = SharingBus::new();
        let camera = bus.register("camera-driver");
        let pedestrian = bus.register("pedestrian-detect");
        let a3 = bus.register("mobile-a3");
        let recorder = bus.register("vehicle-recorder");
        bus.grant_read("pedestrian-detect", "camera");
        bus.grant_read("mobile-a3", "camera");
        bus.grant_read("vehicle-recorder", "plate-results");

        bus.publish(camera, "camera", vec![1, 2, 3], SimTime::ZERO)
            .unwrap();
        assert_eq!(
            bus.read(pedestrian, "camera", SimTime::ZERO).unwrap().len(),
            1
        );
        assert_eq!(bus.read(a3, "camera", SimTime::ZERO).unwrap().len(), 1);

        bus.publish(
            a3,
            "plate-results",
            b"ABC-1234".to_vec(),
            SimTime::from_secs(1),
        )
        .unwrap();
        let results = bus
            .read(recorder, "plate-results", SimTime::from_secs(1))
            .unwrap();
        assert_eq!(results[0].producer, "mobile-a3");
        assert_eq!(results[0].payload, b"ABC-1234");
    }

    #[test]
    fn unauthorized_read_is_denied_and_audited() {
        let bus = SharingBus::new();
        let cam = bus.register("camera-driver");
        let nosy = bus.register("nosy-app");
        bus.publish(cam, "camera", vec![0xFF], SimTime::ZERO)
            .unwrap();
        let err = bus.read(nosy, "camera", SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SharingError::AccessDenied { .. }));
        assert!(bus
            .audit_log()
            .iter()
            .any(|e| e.action == "denied" && e.service == "nosy-app"));
    }

    #[test]
    fn forged_token_rejected() {
        let bus = SharingBus::new();
        bus.register("real");
        let forged = Token(0xDEAD_BEEF);
        assert_eq!(
            bus.publish(forged, "camera", vec![], SimTime::ZERO),
            Err(SharingError::BadToken)
        );
        assert!(matches!(
            bus.read(forged, "camera", SimTime::ZERO),
            Err(SharingError::BadToken)
        ));
    }

    #[test]
    fn tokens_are_unique_per_service() {
        let bus = SharingBus::new();
        let a = bus.register("a");
        let b = bus.register("b");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_topic_reads_empty() {
        let bus = SharingBus::new();
        let t = bus.register("svc");
        bus.grant_read("svc", "nothing");
        assert!(bus.read(t, "nothing", SimTime::ZERO).unwrap().is_empty());
        assert_eq!(bus.topic_len("nothing"), 0);
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_bus_usable() {
        // `register` converts the name while it holds the lock, so a
        // conversion that panics poisons it.
        struct PanickingName;
        impl From<PanickingName> for String {
            fn from(_: PanickingName) -> String {
                panic!("name conversion failed");
            }
        }
        let bus = SharingBus::new();
        assert!(std::panic::catch_unwind(|| bus.register(PanickingName)).is_err());
        assert!(bus.state.is_poisoned());

        let t = bus.register("svc");
        bus.publish(t, "x", vec![1], SimTime::ZERO).unwrap();
        assert_eq!(bus.topic_len("x"), 1);
    }

    #[test]
    fn audit_log_orders_events() {
        let bus = SharingBus::new();
        let t = bus.register("svc");
        bus.grant_read("svc", "x");
        bus.publish(t, "x", vec![1], SimTime::ZERO).unwrap();
        bus.read(t, "x", SimTime::from_secs(1)).unwrap();
        let log = bus.audit_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].action, "publish");
        assert_eq!(log[1].action, "read");
    }
}
