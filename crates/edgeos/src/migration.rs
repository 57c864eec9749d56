//! Service migration (§IV-C).
//!
//! "the containerization, compared with the virtualization technology,
//! is a good candidate for isolation and migration due to the light
//! weight of a container ... the service might be migrated from a
//! neighbor vehicle which may not be trustworthy."
//!
//! [`ServiceMigrator`] moves containerized services between sites (or
//! between vehicles over DSRC) with explicit downtime accounting, in two
//! modes: **cold** (checkpoint → transfer everything → restore) and
//! **pre-copy** (iteratively copy memory while running; only the final
//! dirty residue is transferred during downtime). Inbound migrations
//! from untrusted sources are rejected unless attested — the paper's
//! trust concern made concrete.

use vdap_fault::{retry_until_deadline, AttemptOutcome, RetryError, RetryPolicy, RetryReport};
use vdap_net::{Direction, LinkSpec};
use vdap_sim::{RngStream, SimDuration, SimTime, TraceLevel, TraceLog};

use crate::security::IsolationMode;

/// A migratable service image: code plus runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceImage {
    /// Service name.
    pub name: String,
    /// Container image size, bytes (transferred once, cold path only if
    /// absent at the destination).
    pub image_bytes: u64,
    /// Live memory/state size, bytes.
    pub state_bytes: u64,
    /// Fraction of state dirtied per second while running (pre-copy).
    pub dirty_rate: f64,
    /// Isolation the service runs under.
    pub isolation: IsolationMode,
}

impl ServiceImage {
    /// A typical containerized third-party service: 40 MB image, 64 MB
    /// state, 5%/s dirty rate.
    #[must_use]
    pub fn typical_container(name: impl Into<String>) -> Self {
        ServiceImage {
            name: name.into(),
            image_bytes: 40 * 1024 * 1024,
            state_bytes: 64 * 1024 * 1024,
            dirty_rate: 0.05,
            isolation: IsolationMode::Container,
        }
    }
}

/// How the migration moves state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMode {
    /// Stop, transfer everything, restart: simple, maximal downtime.
    Cold,
    /// Copy while running, then transfer the final dirty residue.
    PreCopy {
        /// Maximum iterative copy rounds before the stop-and-copy.
        max_rounds: u32,
    },
}

/// The outcome of a migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Total wall time from start to service resumed.
    pub total: SimDuration,
    /// Time the service was unavailable.
    pub downtime: SimDuration,
    /// Bytes moved over the link.
    pub bytes_transferred: u64,
    /// Pre-copy rounds executed (0 for cold migrations).
    pub rounds: u32,
}

/// Errors rejecting a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// Only containerized (or TEE) services migrate; bare services have
    /// no capturable boundary.
    NotIsolated(String),
    /// The source could not prove its integrity (§IV-C's untrustworthy
    /// neighbor).
    UntrustedSource {
        /// Offering service.
        service: String,
        /// The claimed source.
        source: String,
    },
    /// The transfer could not complete under the retry policy's deadline
    /// budget (link outage outlasted every retry).
    TransferFailed {
        /// The service being moved.
        service: String,
        /// Terminal retry failure.
        retry: RetryError,
    },
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::NotIsolated(s) => {
                write!(f, "service '{s}' is not isolated and cannot migrate")
            }
            MigrationError::UntrustedSource { service, source } => {
                write!(f, "refusing '{service}' from unattested source '{source}'")
            }
            MigrationError::TransferFailed { service, retry } => {
                write!(f, "transfer of '{service}' failed: {retry}")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// Fixed checkpoint/restore CPU cost on each side.
const CHECKPOINT_COST: SimDuration = SimDuration::from_millis(150);
const RESTORE_COST: SimDuration = SimDuration::from_millis(200);

/// Plans and prices service migrations.
#[derive(Debug, Default)]
pub struct ServiceMigrator {
    trace: TraceLog,
    completed: u64,
    rejected: u64,
}

impl ServiceMigrator {
    /// Creates a migrator.
    #[must_use]
    pub fn new() -> Self {
        ServiceMigrator::default()
    }

    /// `(completed, rejected)` migration counts.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.completed, self.rejected)
    }

    /// The migration trace.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Migrates `image` over `link`, enforcing the trust policy:
    /// inbound services must come from an attested source.
    ///
    /// # Errors
    ///
    /// Returns [`MigrationError`] for bare services or unattested
    /// sources.
    pub fn migrate(
        &mut self,
        image: &ServiceImage,
        link: &LinkSpec,
        mode: MigrationMode,
        source_attested: bool,
        source: &str,
        now: SimTime,
    ) -> Result<MigrationReport, MigrationError> {
        self.validate(image, source_attested, source, now)?;
        let report = Self::price_transfer(image, link, mode);
        self.completed += 1;
        self.trace.record(
            now,
            TraceLevel::Info,
            "edgeos.migration",
            format!(
                "migrated '{}' ({:?}): downtime {}, {} bytes",
                image.name, mode, report.downtime, report.bytes_transferred
            ),
        );
        Ok(report)
    }

    /// Trust and isolation policy shared by both migration paths.
    fn validate(
        &mut self,
        image: &ServiceImage,
        source_attested: bool,
        source: &str,
        now: SimTime,
    ) -> Result<(), MigrationError> {
        if image.isolation == IsolationMode::Bare {
            self.rejected += 1;
            return Err(MigrationError::NotIsolated(image.name.clone()));
        }
        if !source_attested {
            self.rejected += 1;
            self.trace.record(
                now,
                TraceLevel::Warn,
                "edgeos.migration",
                format!("rejected '{}' from unattested '{source}'", image.name),
            );
            return Err(MigrationError::UntrustedSource {
                service: image.name.clone(),
                source: source.to_string(),
            });
        }
        Ok(())
    }

    /// Deterministic cost model for one transfer attempt.
    fn price_transfer(
        image: &ServiceImage,
        link: &LinkSpec,
        mode: MigrationMode,
    ) -> MigrationReport {
        let xfer = |bytes: u64| link.transfer_time(Direction::Uplink, bytes);
        match mode {
            MigrationMode::Cold => {
                let bytes = image.image_bytes + image.state_bytes;
                let transfer = xfer(bytes);
                let downtime = CHECKPOINT_COST + transfer + RESTORE_COST;
                MigrationReport {
                    total: downtime,
                    downtime,
                    bytes_transferred: bytes,
                    rounds: 0,
                }
            }
            MigrationMode::PreCopy { max_rounds } => {
                // Round i copies the state dirtied during round i-1's
                // copy. Converges when the copy outpaces the dirty rate.
                let mut remaining = image.state_bytes as f64;
                let mut total = xfer(image.image_bytes).as_secs_f64();
                let mut moved = image.image_bytes as f64;
                let mut rounds = 0;
                let bw = link.bandwidth_mbps(Direction::Uplink) * 1e6 / 8.0;
                for _ in 0..max_rounds {
                    let copy_secs = remaining / bw;
                    total += copy_secs;
                    moved += remaining;
                    rounds += 1;
                    let dirtied = image.state_bytes as f64 * image.dirty_rate * copy_secs;
                    // Stop when the next round would not shrink the residue.
                    if dirtied >= remaining {
                        remaining = dirtied.min(image.state_bytes as f64);
                        break;
                    }
                    remaining = dirtied;
                    if remaining < 256.0 * 1024.0 {
                        break;
                    }
                }
                moved += remaining;
                let stop_copy = xfer(remaining as u64);
                let downtime = CHECKPOINT_COST + stop_copy + RESTORE_COST;
                MigrationReport {
                    total: SimDuration::from_secs_f64(total) + downtime,
                    downtime,
                    bytes_transferred: moved as u64,
                    rounds,
                }
            }
        }
    }

    /// Time burned probing a link that turns out to be in outage.
    const OUTAGE_PROBE_COST: SimDuration = SimDuration::from_millis(200);

    /// Migrates like [`ServiceMigrator::migrate`], but drives the
    /// transfer through the platform's shared [`RetryPolicy`]: attempts
    /// that hit a link outage (per `link_up_at`) fail after a short probe
    /// and are retried with exponential backoff and jitter, never past
    /// `start + budget`. Returns the migration report plus the retry
    /// trace.
    ///
    /// # Errors
    ///
    /// Returns the non-retryable [`MigrationError`]s immediately and
    /// [`MigrationError::TransferFailed`] when the budget or attempts run
    /// out.
    #[allow(clippy::too_many_arguments)]
    pub fn migrate_with_retry(
        &mut self,
        image: &ServiceImage,
        link: &LinkSpec,
        mode: MigrationMode,
        source_attested: bool,
        source: &str,
        start: SimTime,
        budget: SimDuration,
        policy: &RetryPolicy,
        rng: &mut RngStream,
        link_up_at: impl Fn(SimTime) -> bool,
    ) -> Result<(MigrationReport, RetryReport), MigrationError> {
        self.validate(image, source_attested, source, start)?;
        let report = Self::price_transfer(image, link, mode);
        let rr = retry_until_deadline(policy, start, budget, rng, |_, at| {
            if link_up_at(at) {
                AttemptOutcome::Success(report.total)
            } else {
                AttemptOutcome::Failure(Self::OUTAGE_PROBE_COST)
            }
        });
        match rr.error {
            None => {
                self.completed += 1;
                self.trace.record(
                    rr.finished_at,
                    TraceLevel::Info,
                    "edgeos.migration",
                    format!(
                        "migrated '{}' after {} attempt(s): downtime {}",
                        image.name, rr.attempts, report.downtime
                    ),
                );
                Ok((report, rr))
            }
            Some(retry) => {
                self.rejected += 1;
                self.trace.record(
                    rr.finished_at,
                    TraceLevel::Error,
                    "edgeos.migration",
                    format!("transfer of '{}' abandoned: {retry}", image.name),
                );
                Err(MigrationError::TransferFailed {
                    service: image.name.clone(),
                    retry,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> ServiceImage {
        ServiceImage::typical_container("third-party-nav")
    }

    fn migrator() -> ServiceMigrator {
        ServiceMigrator::new()
    }

    #[test]
    fn precopy_slashes_downtime_versus_cold() {
        let mut m = migrator();
        let link = LinkSpec::wifi();
        let cold = m
            .migrate(
                &image(),
                &link,
                MigrationMode::Cold,
                true,
                "rsu-12",
                SimTime::ZERO,
            )
            .unwrap();
        let pre = m
            .migrate(
                &image(),
                &link,
                MigrationMode::PreCopy { max_rounds: 8 },
                true,
                "rsu-12",
                SimTime::ZERO,
            )
            .unwrap();
        assert!(
            pre.downtime < cold.downtime / 3,
            "pre-copy downtime {} vs cold {}",
            pre.downtime,
            cold.downtime
        );
        // Pre-copy pays with extra traffic and total time.
        assert!(pre.bytes_transferred >= cold.bytes_transferred);
        assert!(pre.rounds >= 1);
    }

    #[test]
    fn cold_downtime_includes_full_transfer() {
        let mut m = migrator();
        let link = LinkSpec::dsrc();
        let report = m
            .migrate(
                &image(),
                &link,
                MigrationMode::Cold,
                true,
                "veh-9",
                SimTime::ZERO,
            )
            .unwrap();
        let bytes = image().image_bytes + image().state_bytes;
        let floor = link.transfer_time(Direction::Uplink, bytes);
        assert!(report.downtime > floor);
        assert_eq!(report.bytes_transferred, bytes);
    }

    #[test]
    fn untrusted_neighbor_is_rejected() {
        let mut m = migrator();
        let err = m
            .migrate(
                &image(),
                &LinkSpec::dsrc(),
                MigrationMode::Cold,
                false,
                "unknown-vehicle",
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, MigrationError::UntrustedSource { .. }));
        assert_eq!(m.counters(), (0, 1));
        assert!(m.trace().iter().any(|e| e.message.contains("rejected")));
    }

    #[test]
    fn bare_services_cannot_migrate() {
        let mut m = migrator();
        let mut img = image();
        img.isolation = IsolationMode::Bare;
        let err = m
            .migrate(
                &img,
                &LinkSpec::wifi(),
                MigrationMode::Cold,
                true,
                "rsu",
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, MigrationError::NotIsolated("third-party-nav".into()));
    }

    #[test]
    fn faster_links_shrink_downtime() {
        let mut m = migrator();
        let slow = m
            .migrate(
                &image(),
                &LinkSpec::dsrc(),
                MigrationMode::Cold,
                true,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        let fast = m
            .migrate(
                &image(),
                &LinkSpec::ethernet(),
                MigrationMode::Cold,
                true,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        assert!(fast.downtime < slow.downtime);
    }

    #[test]
    fn high_dirty_rate_limits_precopy_benefit() {
        let mut m = migrator();
        // Wi-Fi is fast enough for a calm service's pre-copy to converge
        // but not for one dirtying 90% of its state per second.
        let link = LinkSpec::wifi();
        let calm = image();
        let mut hot = image();
        hot.dirty_rate = 0.9; // dirties most state every second
        let calm_r = m
            .migrate(
                &calm,
                &link,
                MigrationMode::PreCopy { max_rounds: 8 },
                true,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        let hot_r = m
            .migrate(
                &hot,
                &link,
                MigrationMode::PreCopy { max_rounds: 8 },
                true,
                "a",
                SimTime::ZERO,
            )
            .unwrap();
        assert!(hot_r.downtime > calm_r.downtime);
    }

    fn rng() -> RngStream {
        vdap_sim::SeedFactory::new(77).stream("migration-retry")
    }

    #[test]
    fn retry_succeeds_first_try_on_healthy_link() {
        let mut m = migrator();
        let (report, rr) = m
            .migrate_with_retry(
                &image(),
                &LinkSpec::wifi(),
                MigrationMode::Cold,
                true,
                "rsu-12",
                SimTime::from_secs(5),
                SimDuration::from_secs(600),
                &RetryPolicy::transfer_default().without_attempt_timeout(),
                &mut rng(),
                |_| true,
            )
            .unwrap();
        assert!(rr.succeeded());
        assert_eq!(rr.attempts, 1);
        assert_eq!(rr.total, report.total);
        assert_eq!(m.counters(), (1, 0));
    }

    #[test]
    fn retry_rides_out_a_short_outage() {
        let mut m = migrator();
        let start = SimTime::from_secs(10);
        let budget = SimDuration::from_secs(600);
        // Link is down for the first 2 s after the start, then recovers.
        let up_after = start + SimDuration::from_secs(2);
        let (_, rr) = m
            .migrate_with_retry(
                &image(),
                &LinkSpec::wifi(),
                MigrationMode::Cold,
                true,
                "rsu-12",
                start,
                budget,
                &RetryPolicy::transfer_default().without_attempt_timeout(),
                &mut rng(),
                |at| at >= up_after,
            )
            .unwrap();
        assert!(rr.succeeded());
        assert!(rr.attempts > 1, "must have retried through the outage");
        assert!(rr.finished_at.duration_since(start) <= budget);
        assert_eq!(m.counters(), (1, 0));
    }

    #[test]
    fn permanent_outage_fails_within_budget() {
        let mut m = migrator();
        let start = SimTime::from_secs(10);
        let budget = SimDuration::from_secs(30);
        let err = m
            .migrate_with_retry(
                &image(),
                &LinkSpec::wifi(),
                MigrationMode::Cold,
                true,
                "rsu-12",
                start,
                budget,
                &RetryPolicy::transfer_default(),
                &mut rng(),
                |_| false,
            )
            .unwrap_err();
        assert!(matches!(err, MigrationError::TransferFailed { .. }));
        assert_eq!(m.counters(), (0, 1));
        assert!(m.trace().iter().any(|e| e.message.contains("abandoned")));
    }

    #[test]
    fn tee_services_can_migrate_when_attested() {
        let mut m = migrator();
        let mut img = image();
        img.isolation = IsolationMode::Tee;
        assert!(m
            .migrate(
                &img,
                &LinkSpec::wifi(),
                MigrationMode::Cold,
                true,
                "rsu",
                SimTime::ZERO
            )
            .is_ok());
    }
}
