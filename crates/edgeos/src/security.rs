//! The Security module (§IV-C).
//!
//! "The Security module ... relies on the trusted execution environment
//! (TEE) technique. ... For other non-TEE supported services, the
//! containerization ... is a good candidate for isolation and migration.
//! ... Moreover, the Security module monitors services and prevents them
//! from compromising. Once the service is compromised, this module will
//! remove the compromised one and re-install an initialized one."
//!
//! TEEs and containers are simulated by their observable semantics: an
//! attestation handshake, a per-mode execution-overhead factor (memory
//! encryption / namespace costs), and the compromise→reinstall
//! lifecycle with counters the reliability experiments read.

use std::collections::HashMap;

use vdap_sim::{SimDuration, SimTime, TraceLevel, TraceLog};

/// How a service is isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationMode {
    /// Hardware TEE (SGX-class): strongest isolation, highest overhead.
    Tee,
    /// OS container: light-weight isolation for non-TEE services.
    Container,
    /// No isolation (legacy embedded services only).
    Bare,
}

impl IsolationMode {
    /// Execution-time multiplier this isolation imposes.
    #[must_use]
    pub fn overhead_factor(self) -> f64 {
        match self {
            IsolationMode::Tee => 1.25,       // memory-encryption slowdown
            IsolationMode::Container => 1.05, // namespace/cgroup cost
            IsolationMode::Bare => 1.0,
        }
    }

    /// Whether this mode withstands a co-resident (internal) attacker.
    #[must_use]
    pub fn resists_internal_attack(self) -> bool {
        !matches!(self, IsolationMode::Bare)
    }
}

/// A simulated remote-attestation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// Service the quote covers.
    pub service: String,
    /// Measurement of the launched code.
    pub measurement: u64,
    /// When the quote was produced.
    pub at: SimTime,
}

/// Lifecycle of a guarded service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardState {
    /// Attested and serving.
    Healthy,
    /// Intrusion detected; quarantined.
    Compromised,
}

#[derive(Debug, Clone)]
struct Guarded {
    mode: IsolationMode,
    state: GuardState,
    measurement: u64,
    reinstalls: u64,
}

/// Errors from the security monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityError {
    /// The service was never launched.
    UnknownService(String),
    /// Attestation was requested for a non-TEE service.
    NotAttestable(String),
    /// The service is quarantined and must be reinstalled first.
    Quarantined(String),
}

impl std::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecurityError::UnknownService(s) => write!(f, "unknown service '{s}'"),
            SecurityError::NotAttestable(s) => {
                write!(f, "service '{s}' does not run in a TEE")
            }
            SecurityError::Quarantined(s) => write!(f, "service '{s}' is quarantined"),
        }
    }
}

impl std::error::Error for SecurityError {}

/// The service security monitor.
#[derive(Debug, Default)]
pub struct SecurityMonitor {
    services: HashMap<String, Guarded>,
    trace: TraceLog,
    next_measurement: u64,
}

impl SecurityMonitor {
    /// Creates an empty monitor.
    #[must_use]
    pub fn new() -> Self {
        SecurityMonitor::default()
    }

    /// Launches a service under an isolation mode; returns its code
    /// measurement.
    pub fn launch(&mut self, name: impl Into<String>, mode: IsolationMode, now: SimTime) -> u64 {
        let name = name.into();
        self.next_measurement = self
            .next_measurement
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let measurement = self.next_measurement;
        self.trace.record(
            now,
            TraceLevel::Info,
            "edgeos.security",
            format!("launched '{name}' under {mode:?}"),
        );
        self.services.insert(
            name,
            Guarded {
                mode,
                state: GuardState::Healthy,
                measurement,
                reinstalls: 0,
            },
        );
        measurement
    }

    /// Execution-time multiplier for a service's workloads.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::UnknownService`] for unlaunched services.
    pub fn overhead(&self, name: &str) -> Result<f64, SecurityError> {
        self.services
            .get(name)
            .map(|g| g.mode.overhead_factor())
            .ok_or_else(|| SecurityError::UnknownService(name.into()))
    }

    /// Scales a duration by the service's isolation overhead.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::UnknownService`] for unlaunched services.
    pub fn apply_overhead(
        &self,
        name: &str,
        base: SimDuration,
    ) -> Result<SimDuration, SecurityError> {
        Ok(base.mul_f64(self.overhead(name)?))
    }

    /// Produces an attestation quote for a TEE service.
    ///
    /// # Errors
    ///
    /// Fails for unknown, non-TEE, or quarantined services.
    pub fn attest(&self, name: &str, now: SimTime) -> Result<Attestation, SecurityError> {
        let g = self
            .services
            .get(name)
            .ok_or_else(|| SecurityError::UnknownService(name.into()))?;
        if g.mode != IsolationMode::Tee {
            return Err(SecurityError::NotAttestable(name.into()));
        }
        if g.state == GuardState::Compromised {
            return Err(SecurityError::Quarantined(name.into()));
        }
        Ok(Attestation {
            service: name.into(),
            measurement: g.measurement,
            at: now,
        })
    }

    /// The monitor detected an intrusion: quarantine the service.
    /// Returns whether the isolation mode contained the attack from
    /// co-resident services.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::UnknownService`] for unlaunched services.
    pub fn report_intrusion(&mut self, name: &str, now: SimTime) -> Result<bool, SecurityError> {
        let g = self
            .services
            .get_mut(name)
            .ok_or_else(|| SecurityError::UnknownService(name.into()))?;
        g.state = GuardState::Compromised;
        let contained = g.mode.resists_internal_attack();
        self.trace.record(
            now,
            TraceLevel::Error,
            "edgeos.security",
            format!("intrusion in '{name}' (contained: {contained})"),
        );
        Ok(contained)
    }

    /// Reinstalls a compromised service with a fresh measurement
    /// (the §IV-C reliability mechanism). Healthy services are left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::UnknownService`] for unlaunched services.
    pub fn reinstall(&mut self, name: &str, now: SimTime) -> Result<u64, SecurityError> {
        // Borrow-friendly: compute the new measurement first.
        self.next_measurement = self
            .next_measurement
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let fresh = self.next_measurement;
        let g = self
            .services
            .get_mut(name)
            .ok_or_else(|| SecurityError::UnknownService(name.into()))?;
        if g.state == GuardState::Compromised {
            g.state = GuardState::Healthy;
            g.measurement = fresh;
            g.reinstalls += 1;
            self.trace.record(
                now,
                TraceLevel::Info,
                "edgeos.security",
                format!("reinstalled '{name}'"),
            );
        }
        Ok(g.measurement)
    }

    /// State of a service.
    #[must_use]
    pub fn state(&self, name: &str) -> Option<GuardState> {
        self.services.get(name).map(|g| g.state)
    }

    /// How many times a service was reinstalled.
    #[must_use]
    pub fn reinstalls(&self, name: &str) -> u64 {
        self.services.get(name).map_or(0, |g| g.reinstalls)
    }

    /// The security trace.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ordering() {
        assert!(IsolationMode::Tee.overhead_factor() > IsolationMode::Container.overhead_factor());
        assert!(IsolationMode::Container.overhead_factor() > IsolationMode::Bare.overhead_factor());
        assert_eq!(IsolationMode::Bare.overhead_factor(), 1.0);
    }

    #[test]
    fn launch_and_apply_overhead() {
        let mut mon = SecurityMonitor::new();
        mon.launch("adas", IsolationMode::Tee, SimTime::ZERO);
        let base = SimDuration::from_millis(100);
        let t = mon.apply_overhead("adas", base).unwrap();
        assert_eq!(t.as_millis(), 125);
        assert!(matches!(
            mon.apply_overhead("ghost", base),
            Err(SecurityError::UnknownService(_))
        ));
    }

    #[test]
    fn attestation_only_for_tee() {
        let mut mon = SecurityMonitor::new();
        mon.launch("adas", IsolationMode::Tee, SimTime::ZERO);
        mon.launch("radio", IsolationMode::Container, SimTime::ZERO);
        assert!(mon.attest("adas", SimTime::ZERO).is_ok());
        assert!(matches!(
            mon.attest("radio", SimTime::ZERO),
            Err(SecurityError::NotAttestable(_))
        ));
    }

    #[test]
    fn compromise_reinstall_cycle_changes_measurement() {
        let mut mon = SecurityMonitor::new();
        let m0 = mon.launch("thirdparty", IsolationMode::Container, SimTime::ZERO);
        let contained = mon
            .report_intrusion("thirdparty", SimTime::from_secs(5))
            .unwrap();
        assert!(contained);
        assert_eq!(mon.state("thirdparty"), Some(GuardState::Compromised));
        // Quarantined TEE services refuse attestation; containers aren't
        // attestable anyway, so check via a TEE service too.
        let m1 = mon.reinstall("thirdparty", SimTime::from_secs(6)).unwrap();
        assert_ne!(m0, m1, "reinstall must produce a fresh measurement");
        assert_eq!(mon.state("thirdparty"), Some(GuardState::Healthy));
        assert_eq!(mon.reinstalls("thirdparty"), 1);
    }

    #[test]
    fn quarantined_tee_cannot_attest() {
        let mut mon = SecurityMonitor::new();
        mon.launch("adas", IsolationMode::Tee, SimTime::ZERO);
        mon.report_intrusion("adas", SimTime::ZERO).unwrap();
        assert!(matches!(
            mon.attest("adas", SimTime::ZERO),
            Err(SecurityError::Quarantined(_))
        ));
    }

    #[test]
    fn bare_services_do_not_contain_attacks() {
        let mut mon = SecurityMonitor::new();
        mon.launch("legacy", IsolationMode::Bare, SimTime::ZERO);
        let contained = mon.report_intrusion("legacy", SimTime::ZERO).unwrap();
        assert!(!contained);
    }

    #[test]
    fn reinstall_healthy_service_is_noop() {
        let mut mon = SecurityMonitor::new();
        let m0 = mon.launch("adas", IsolationMode::Tee, SimTime::ZERO);
        let m1 = mon.reinstall("adas", SimTime::ZERO).unwrap();
        assert_eq!(m0, m1);
        assert_eq!(mon.reinstalls("adas"), 0);
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut mon = SecurityMonitor::new();
        mon.launch("x", IsolationMode::Tee, SimTime::ZERO);
        mon.report_intrusion("x", SimTime::ZERO).unwrap();
        mon.reinstall("x", SimTime::ZERO).unwrap();
        let msgs: Vec<&str> = mon.trace().iter().map(|e| e.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("launched")));
        assert!(msgs.iter().any(|m| m.contains("intrusion")));
        assert!(msgs.iter().any(|m| m.contains("reinstalled")));
    }
}
