//! The four benchmark workloads. Each is one closed batch run of the
//! fleet engine to its horizon, built from `FleetConfig::default()`
//! through public fields and `with_*` builders only.

use std::path::Path;

use vdap_fleet::{FleetConfig, MobilityConfig};
use vdap_sim::{SimDuration, SimTime};

/// Telemetry budget E23 pairs with a 100,000-vehicle fleet; the
/// telemetry workload scales it with its fleet so the budget is crossed
/// at the same point of the run and spans spill at every barrier.
const E23_BUDGET_BYTES: u64 = 8 << 20;
const E23_VEHICLES: u64 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Serve,
    Rush,
    Telemetry,
    Resume,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    vehicles: u32,
    horizon_s: u64,
    shape: Shape,
}

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-5k",
        why: "vehicle tick, executor and XEdge admission/DRR serving under a regional outage, with no ingest, mobility, telemetry or checkpoint",
        vehicles: 5_000,
        horizon_s: 60,
        shape: Shape::Serve,
    },
    Workload {
        name: "rush-4k",
        why: "rush-hour mobility plus DDI ingest: serial barrier passes dominate and the tick is small",
        vehicles: 4_000,
        horizon_s: 24,
        shape: Shape::Rush,
    },
    Workload {
        name: "telemetry-25k",
        why: "bounded telemetry at the largest fleet: span sampling, JSONL spill every barrier, the biggest set-up and RSS",
        vehicles: 25_000,
        horizon_s: 6,
        shape: Shape::Telemetry,
    },
    Workload {
        name: "resume-500",
        why: "checkpoint writes, a torn snapshot and a crash resumed by the supervisor: the same layers as rush through the snapshot path",
        vehicles: 500,
        horizon_s: 30,
        shape: Shape::Resume,
    },
];

impl Workload {
    /// The workload called `name`.
    #[must_use]
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether the workload runs under the crash supervisor
    /// (`FleetEngine::run_supervised`) rather than `FleetEngine::run`.
    #[must_use]
    pub fn supervised(&self) -> bool {
        self.shape == Shape::Resume
    }

    /// The full scenario at `1/scale_div` of the fleet; spill segments
    /// land under `scratch`.
    #[must_use]
    pub fn config(&self, seed: u64, scale_div: u32, scratch: &Path) -> FleetConfig {
        let cfg = self.base(seed, scale_div, scratch);
        match self.shape {
            // Checkpoints land at epochs 8/16/24/…; the torn-write window
            // covers the epoch-16 write, so the crash at epoch 20 must
            // reject it and resume from generation 8 (the E21 shape).
            Shape::Resume => cfg
                .with_checkpoint(8, 3)
                .with_snapshot_torn_write(SimTime::from_secs(8), SimDuration::from_millis(100))
                .with_engine_crash(20, SimDuration::from_millis(750)),
            _ => cfg,
        }
    }

    /// The set-up probe: the scenario cut to its first epoch, without
    /// checkpointing or the faults that act on it, so it times state
    /// construction, executor spawn and the first barrier.
    #[must_use]
    pub fn setup_config(&self, seed: u64, scale_div: u32, scratch: &Path) -> FleetConfig {
        let mut cfg = self.base(seed, scale_div, scratch);
        cfg.duration = cfg.epoch;
        cfg
    }

    fn base(&self, seed: u64, scale_div: u32, scratch: &Path) -> FleetConfig {
        let cfg = FleetConfig {
            seed,
            vehicles: self.vehicles / scale_div,
            duration: SimDuration::from_secs(self.horizon_s),
            ..FleetConfig::default()
        };
        match self.shape {
            Shape::Serve => cfg.with_elastic_capacity().with_regional_outage(
                0,
                SimTime::from_secs(20),
                SimDuration::from_secs(12),
            ),
            Shape::Rush => cfg
                .with_ingest()
                .with_mobility_config(MobilityConfig::rush_hour()),
            Shape::Telemetry => {
                let budget = (E23_BUDGET_BYTES * u64::from(cfg.vehicles) / E23_VEHICLES).max(1);
                cfg.with_telemetry_budget(budget)
                    .with_span_spill(scratch.join("spill"))
                    .with_span_sampling(8)
            }
            Shape::Resume => cfg.with_telemetry().with_ingest().with_mobility(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_validates_at_full_and_smoke_scale() {
        let scratch = Path::new("scratch");
        for w in &WORKLOADS {
            for scale in [1, 100] {
                for cfg in [
                    w.config(1, scale, scratch),
                    w.setup_config(1, scale, scratch),
                ] {
                    assert_eq!(cfg.validate(), Ok(()), "{} at 1/{scale}", w.name);
                }
            }
            assert_eq!(w.setup_config(1, 1, scratch).total_epochs(), 1);
            assert!(w.config(1, 1, scratch).checkpoint.is_some() == w.supervised());
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(Workload::find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(Workload::find("nope").is_none());
    }
}
