//! Fault taxonomy and seeded fault plans.
//!
//! A [`FaultSpec`] is one fault: what breaks ([`FaultKind`]), which
//! component (a target label each layer interprets), when it starts, how
//! long it lasts, and optionally how often it recurs. A [`FaultPlan`]
//! is an ordered set of specs over a horizon, either hand-built for a
//! scripted scenario or drawn from a dedicated RNG stream via
//! [`FaultPlan::randomized`] for chaos testing.

use vdap_sim::{RngStream, SimDuration, SimTime};

use crate::injector::FaultInjector;

/// What kind of failure a fault injects. Target labels bind the fault to
/// a component in the layer that owns it (`hw` slot names, `net` link
/// names, `ddi` stores, `edgeos` services).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A compute slot goes hard-down (hw). Work booked on it is lost and
    /// must fail over.
    SlotFailure,
    /// A compute slot thermally throttles: service times are divided by
    /// `factor` (`0 < factor < 1` slows the slot down).
    SlotThrottle {
        /// Speed multiplier applied to the slot's throughput.
        factor: f64,
    },
    /// A network link is in outage (net): no bytes move until recovery.
    LinkOutage,
    /// A network link's bandwidth collapses to `factor` of nominal (net).
    BandwidthCollapse {
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Storage writes fail (ddi) for the duration of the window.
    StorageWriteError,
    /// A service crashes (edgeos) at window start; duration models the
    /// time the crashed instance stays unrecoverable.
    ServiceCrash,
    /// An XEdge node goes hard-down (fleet): its lane pool vanishes and
    /// in-flight requests on its lanes must be re-queued or bounced.
    EdgeNodeCrash,
    /// A tenant's admission quota shrinks to `factor` of nominal
    /// (fleet/edgeos): requests past the shrunken cap are bounced into
    /// the degradation ladder until the flap clears.
    TenantQuotaFlap {
        /// Quota multiplier in `(0, 1]`.
        factor: f64,
    },
    /// A region's cellular coverage is in a handoff storm (net/fleet):
    /// vehicles must re-register through a neighbor region's cell,
    /// paying the mobility handoff cost on every request.
    RegionHandoffStorm,
    /// A regional DDI collector goes hard-down (ddi/fleet): uploads
    /// addressed to it bounce back into the vehicles' local caches
    /// until the collector recovers.
    CollectorOutage,
    /// The shared storage tier browns out (ddi): effective write
    /// throughput collapses to `factor` of nominal, so queueing delay
    /// balloons while the tier stays nominally up.
    StorageBrownout {
        /// Write-throughput multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The fleet engine process dies at the first checkpoint barrier at
    /// or after `epoch` (fleet). Scripted-only: the supervisor loop
    /// resumes the run from the newest valid snapshot. Not drawn by
    /// [`FaultPlan::randomized`] — a process kill is a harness event,
    /// not an in-run component fault.
    EngineCrash {
        /// Barrier index (0-based) the crash fires at.
        epoch: u64,
    },
    /// A snapshot write is torn (ckpt): the bytes persisted for any
    /// snapshot generation written inside the window are truncated, so
    /// decode fails its checksum and restore falls back a generation.
    /// Scripted-only.
    SnapshotTornWrite,
    /// A snapshot suffers bit rot (ckpt): one byte of any generation
    /// written inside the window is flipped. Scripted-only.
    SnapshotCorruption,
}

impl FaultKind {
    /// Whether the fault makes its target completely unavailable (as
    /// opposed to degrading it).
    #[must_use]
    pub fn is_hard(&self) -> bool {
        matches!(
            self,
            FaultKind::SlotFailure
                | FaultKind::LinkOutage
                | FaultKind::StorageWriteError
                | FaultKind::ServiceCrash
                | FaultKind::EdgeNodeCrash
                | FaultKind::CollectorOutage
        )
    }

    /// Short label for traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SlotFailure => "slot-failure",
            FaultKind::SlotThrottle { .. } => "slot-throttle",
            FaultKind::LinkOutage => "link-outage",
            FaultKind::BandwidthCollapse { .. } => "bandwidth-collapse",
            FaultKind::StorageWriteError => "storage-write-error",
            FaultKind::ServiceCrash => "service-crash",
            FaultKind::EdgeNodeCrash => "edge-node-crash",
            FaultKind::TenantQuotaFlap { .. } => "tenant-quota-flap",
            FaultKind::RegionHandoffStorm => "region-handoff-storm",
            FaultKind::CollectorOutage => "collector-outage",
            FaultKind::StorageBrownout { .. } => "storage-brownout",
            FaultKind::EngineCrash { .. } => "engine-crash",
            FaultKind::SnapshotTornWrite => "snapshot-torn-write",
            FaultKind::SnapshotCorruption => "snapshot-corruption",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One configured fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Failure mode.
    pub kind: FaultKind,
    /// Component label the owning layer resolves.
    pub target: String,
    /// First activation time.
    pub start: SimTime,
    /// How long each activation lasts.
    pub duration: SimDuration,
    /// Optional period between activation starts; `None` = one-shot.
    pub recurrence: Option<SimDuration>,
}

impl FaultSpec {
    /// A one-shot fault.
    #[must_use]
    pub fn new(
        kind: FaultKind,
        target: impl Into<String>,
        start: SimTime,
        duration: SimDuration,
    ) -> Self {
        FaultSpec {
            kind,
            target: target.into(),
            start,
            duration,
            recurrence: None,
        }
    }

    /// Makes the fault recur every `period` (measured start-to-start).
    ///
    /// # Panics
    ///
    /// Panics when `period` is zero.
    #[must_use]
    pub fn recurring_every(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "recurrence period must be non-zero");
        self.recurrence = Some(period);
        self
    }
}

/// Relative fault intensities for [`FaultPlan::randomized`].
///
/// Mean inter-fault gaps and durations are per category; categories with
/// no targets are skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Compute-slot labels eligible for failure/throttling.
    pub slots: Vec<String>,
    /// Link labels eligible for outage/bandwidth collapse.
    pub links: Vec<String>,
    /// Storage labels eligible for write errors.
    pub stores: Vec<String>,
    /// Service names eligible for crashes.
    pub services: Vec<String>,
    /// XEdge node labels eligible for node crashes.
    pub edge_nodes: Vec<String>,
    /// Tenant labels eligible for quota flaps.
    pub tenants: Vec<String>,
    /// Region labels eligible for handoff storms.
    pub regions: Vec<String>,
    /// Regional DDI collector labels eligible for outages.
    pub collectors: Vec<String>,
    /// Mean gap between fault activations (exponential).
    pub mean_gap: SimDuration,
    /// Mean fault duration (exponential, floored at 100 ms).
    pub mean_duration: SimDuration,
}

impl ChaosProfile {
    /// A profile with moderate default rates and no targets; fill in the
    /// target lists for the components present in the scenario.
    #[must_use]
    pub fn new() -> Self {
        ChaosProfile {
            slots: Vec::new(),
            links: Vec::new(),
            stores: Vec::new(),
            services: Vec::new(),
            edge_nodes: Vec::new(),
            tenants: Vec::new(),
            regions: Vec::new(),
            collectors: Vec::new(),
            mean_gap: SimDuration::from_secs(60),
            mean_duration: SimDuration::from_secs(15),
        }
    }
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile::new()
    }
}

/// An ordered set of faults over a scenario horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    horizon: SimDuration,
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan over `horizon`.
    #[must_use]
    pub fn new(horizon: SimDuration) -> Self {
        FaultPlan {
            horizon,
            faults: Vec::new(),
        }
    }

    /// Adds a fault.
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// The scenario horizon recurrences expand against.
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// The configured faults.
    #[must_use]
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Draws a randomized plan from a dedicated RNG stream: fault start
    /// times arrive as a Poisson process (exponential gaps at
    /// `profile.mean_gap`), each picking a fault kind uniformly among
    /// *all* kind slots, a target uniformly within that kind's class,
    /// and an exponential duration. An arrival whose drawn class has no
    /// targets is skipped outright — it does not redistribute its
    /// probability to the populated classes, so each class's fault rate
    /// is independent of which other classes are empty. Same stream
    /// state ⇒ identical plan.
    #[must_use]
    pub fn randomized(rng: &mut RngStream, horizon: SimDuration, profile: &ChaosProfile) -> Self {
        const KIND_SLOTS: u64 = 11;
        let mut plan = FaultPlan::new(horizon);
        let any_targets = !(profile.slots.is_empty()
            && profile.links.is_empty()
            && profile.stores.is_empty()
            && profile.services.is_empty()
            && profile.edge_nodes.is_empty()
            && profile.tenants.is_empty()
            && profile.regions.is_empty()
            && profile.collectors.is_empty());
        if !any_targets {
            return plan;
        }
        let mut at = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_secs_f64(rng.exponential(profile.mean_gap.as_secs_f64()));
            at += gap;
            if at.elapsed() >= horizon {
                break;
            }
            let duration = SimDuration::from_secs_f64(
                rng.exponential(profile.mean_duration.as_secs_f64())
                    .max(0.1),
            );
            let spec = match rng.below(KIND_SLOTS) {
                0 => rng
                    .pick(&profile.slots)
                    .cloned()
                    .map(|target| FaultSpec::new(FaultKind::SlotFailure, target, at, duration)),
                1 => {
                    // Draw the factor before picking so the stream
                    // consumption per slot id is fixed even when the
                    // class is empty and the arrival is skipped.
                    let factor = rng.uniform_range(0.2, 0.8);
                    rng.pick(&profile.slots).cloned().map(|target| {
                        FaultSpec::new(FaultKind::SlotThrottle { factor }, target, at, duration)
                    })
                }
                2 => rng
                    .pick(&profile.links)
                    .cloned()
                    .map(|target| FaultSpec::new(FaultKind::LinkOutage, target, at, duration)),
                3 => {
                    let factor = rng.uniform_range(0.02, 0.3);
                    rng.pick(&profile.links).cloned().map(|target| {
                        FaultSpec::new(
                            FaultKind::BandwidthCollapse { factor },
                            target,
                            at,
                            duration,
                        )
                    })
                }
                4 => rng.pick(&profile.stores).cloned().map(|target| {
                    FaultSpec::new(FaultKind::StorageWriteError, target, at, duration)
                }),
                5 => rng
                    .pick(&profile.services)
                    .cloned()
                    .map(|target| FaultSpec::new(FaultKind::ServiceCrash, target, at, duration)),
                6 => rng
                    .pick(&profile.edge_nodes)
                    .cloned()
                    .map(|target| FaultSpec::new(FaultKind::EdgeNodeCrash, target, at, duration)),
                7 => {
                    let factor = rng.uniform_range(0.1, 0.5);
                    rng.pick(&profile.tenants).cloned().map(|target| {
                        FaultSpec::new(FaultKind::TenantQuotaFlap { factor }, target, at, duration)
                    })
                }
                8 => rng.pick(&profile.regions).cloned().map(|target| {
                    FaultSpec::new(FaultKind::RegionHandoffStorm, target, at, duration)
                }),
                9 => rng
                    .pick(&profile.collectors)
                    .cloned()
                    .map(|target| FaultSpec::new(FaultKind::CollectorOutage, target, at, duration)),
                _ => {
                    let factor = rng.uniform_range(0.05, 0.4);
                    rng.pick(&profile.stores).cloned().map(|target| {
                        FaultSpec::new(FaultKind::StorageBrownout { factor }, target, at, duration)
                    })
                }
            };
            if let Some(spec) = spec {
                plan.faults.push(spec);
            }
        }
        plan
    }

    /// Compiles the plan into an injector (expanding recurrences).
    #[must_use]
    pub fn compile(&self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    #[test]
    fn randomized_plans_replay_bit_identically() {
        let profile = ChaosProfile {
            slots: vec!["slot0".into(), "slot1".into()],
            links: vec!["lte".into()],
            stores: vec!["ddi".into()],
            services: vec!["kidnapper".into()],
            ..ChaosProfile::new()
        };
        let draw = |seed: u64| {
            let mut rng = SeedFactory::new(seed).stream("faults");
            FaultPlan::randomized(&mut rng, SimDuration::from_secs(600), &profile)
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn randomized_plan_respects_horizon_and_targets() {
        let profile = ChaosProfile {
            slots: vec!["slot0".into()],
            mean_gap: SimDuration::from_secs(10),
            ..ChaosProfile::new()
        };
        let mut rng = SeedFactory::new(3).stream("faults");
        let plan = FaultPlan::randomized(&mut rng, SimDuration::from_secs(600), &profile);
        assert!(!plan.faults().is_empty(), "600 s at 10 s mean gap");
        for f in plan.faults() {
            assert!(f.start.elapsed() < SimDuration::from_secs(600));
            assert_eq!(f.target, "slot0");
            assert!(matches!(
                f.kind,
                FaultKind::SlotFailure | FaultKind::SlotThrottle { .. }
            ));
        }
    }

    #[test]
    fn empty_profile_yields_empty_plan() {
        let mut rng = SeedFactory::new(3).stream("faults");
        let plan =
            FaultPlan::randomized(&mut rng, SimDuration::from_secs(600), &ChaosProfile::new());
        assert!(plan.faults().is_empty());
    }

    /// Regression: an arrival whose class has no targets must be
    /// dropped, not redistributed. With only the slot class populated,
    /// slot faults claim their own 2 of 11 kind slots — the plan emits
    /// roughly 2/11 of the Poisson arrivals instead of all of them.
    #[test]
    fn empty_classes_skip_arrivals_instead_of_biasing() {
        let profile = ChaosProfile {
            slots: vec!["slot0".into()],
            mean_gap: SimDuration::from_secs(10),
            ..ChaosProfile::new()
        };
        let mut rng = SeedFactory::new(17).stream("faults");
        let plan = FaultPlan::randomized(&mut rng, SimDuration::from_secs(9_000), &profile);
        // ~900 arrivals at a 10 s mean gap; unbiased draw keeps ~164.
        let n = plan.faults().len();
        assert!(
            (90..=260).contains(&n),
            "expected ~2/11 of ~900 arrivals, got {n}"
        );
        for f in plan.faults() {
            assert!(matches!(
                f.kind,
                FaultKind::SlotFailure | FaultKind::SlotThrottle { .. }
            ));
        }
    }

    #[test]
    fn edge_tier_kinds_are_drawn_with_sane_factors() {
        let profile = ChaosProfile {
            edge_nodes: vec!["xedge/node0".into(), "xedge/node1".into()],
            tenants: vec!["tenant0".into()],
            regions: vec!["region0/handoff".into()],
            mean_gap: SimDuration::from_secs(5),
            ..ChaosProfile::new()
        };
        let mut rng = SeedFactory::new(7).stream("faults");
        let plan = FaultPlan::randomized(&mut rng, SimDuration::from_secs(3_000), &profile);
        let mut crashes = 0;
        let mut flaps = 0;
        let mut storms = 0;
        for f in plan.faults() {
            match f.kind {
                FaultKind::EdgeNodeCrash => {
                    assert!(f.target.starts_with("xedge/node"));
                    crashes += 1;
                }
                FaultKind::TenantQuotaFlap { factor } => {
                    assert!((0.1..=0.5).contains(&factor), "factor {factor}");
                    assert_eq!(f.target, "tenant0");
                    flaps += 1;
                }
                FaultKind::RegionHandoffStorm => {
                    assert_eq!(f.target, "region0/handoff");
                    storms += 1;
                }
                other => panic!("unexpected kind {other}"),
            }
        }
        assert!(crashes > 0 && flaps > 0 && storms > 0);
    }

    #[test]
    fn ddi_tier_kinds_are_drawn_with_sane_factors() {
        let profile = ChaosProfile {
            collectors: vec!["region0/collector".into(), "region1/collector".into()],
            stores: vec!["ddi/store".into()],
            mean_gap: SimDuration::from_secs(5),
            ..ChaosProfile::new()
        };
        let mut rng = SeedFactory::new(11).stream("faults");
        let plan = FaultPlan::randomized(&mut rng, SimDuration::from_secs(3_000), &profile);
        let mut outages = 0;
        let mut brownouts = 0;
        let mut write_errors = 0;
        for f in plan.faults() {
            match f.kind {
                FaultKind::CollectorOutage => {
                    assert!(f.target.ends_with("/collector"));
                    outages += 1;
                }
                FaultKind::StorageBrownout { factor } => {
                    assert!((0.05..=0.4).contains(&factor), "factor {factor}");
                    assert_eq!(f.target, "ddi/store");
                    brownouts += 1;
                }
                FaultKind::StorageWriteError => {
                    assert_eq!(f.target, "ddi/store");
                    write_errors += 1;
                }
                other => panic!("unexpected kind {other}"),
            }
        }
        assert!(outages > 0 && brownouts > 0 && write_errors > 0);
    }
}
