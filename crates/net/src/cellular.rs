//! Cellular channel model with mobility-dependent loss.
//!
//! Reproduces the generative structure behind the paper's Figure 2 drive
//! test. Two loss mechanisms compose:
//!
//! 1. **Handoff outages** — at speed `v` the vehicle crosses a cell every
//!    `cell_diameter / v`; each crossing suspends connectivity for an
//!    outage whose duration grows exponentially with speed (the paper:
//!    "the vehicle might disconnect from the Internet during the process
//!    of base station change"). At 70 MPH outages consume roughly half of
//!    all airtime, which is what drives the measured 53.5% packet loss.
//! 2. **Residual losses** — scattered fading/queue losses outside
//!    outages. Their stationary rate is calibrated against the paper's
//!    six measured `(speed, bitrate)` points (this *is* empirical drive
//!    data; the model interpolates it), and their burstiness falls with
//!    speed: at rest the rare losses are sender-queue drops in runs,
//!    on the move they are scattered per-packet fading errors.
//!
//! Packet loss is therefore *calibrated*; frame loss is **emergent** —
//! it comes out of the GOP keyframe-dependency rule in
//! [`crate::video`], exactly the mechanism the paper describes.

use vdap_sim::{RngStream, SimTime};

use crate::mobility::Mph;

/// Paper Figure 2: measured packet loss at `(speed MPH, bitrate Mbps)`.
pub const FIG2_PACKET_LOSS: [(f64, f64, f64); 6] = [
    (0.0, 3.8, 0.002),
    (0.0, 5.8, 0.006),
    (35.0, 3.8, 0.021),
    (35.0, 5.8, 0.070),
    (70.0, 3.8, 0.535),
    (70.0, 5.8, 0.617),
];

/// Paper Figure 2: measured frame loss at `(speed MPH, bitrate Mbps)`.
pub const FIG2_FRAME_LOSS: [(f64, f64, f64); 6] = [
    (0.0, 3.8, 0.012),
    (0.0, 5.8, 0.027),
    (35.0, 3.8, 0.390),
    (35.0, 5.8, 0.763),
    (70.0, 3.8, 0.911),
    (70.0, 5.8, 0.980),
];

/// How much a handoff storm stretches the per-crossing connectivity
/// gap: a storming cell's signalling plane serializes re-registrations,
/// so each arriving vehicle pays a few back-to-back registration
/// attempts instead of one.
pub const STORM_HANDOFF_MULTIPLIER: f64 = 3.0;

/// Parameters of the cellular loss model.
#[derive(Debug, Clone, PartialEq)]
pub struct CellularChannel {
    /// Distance between handoffs, in miles.
    cell_diameter_miles: f64,
    /// Outage duration at 0 MPH (seconds) — the exponential's prefactor.
    outage_base_secs: f64,
    /// Speed constant of the outage-growth exponential (MPH).
    outage_speed_scale: f64,
    /// Residual fade-burst length at rest, in packets.
    fade_burst_base: f64,
    /// Speed constant of the burst-length decay (MPH).
    fade_burst_speed_scale: f64,
}

impl Default for CellularChannel {
    fn default() -> Self {
        CellularChannel::calibrated()
    }
}

impl CellularChannel {
    /// The model calibrated against the paper's drive test.
    #[must_use]
    pub fn calibrated() -> Self {
        CellularChannel {
            cell_diameter_miles: 0.7,
            outage_base_secs: 0.008,
            outage_speed_scale: 9.1,
            fade_burst_base: 6.0,
            fade_burst_speed_scale: 12.0,
        }
    }

    /// Seconds the vehicle stays inside one cell at `speed`
    /// (infinite when stationary).
    #[must_use]
    pub fn cell_stay_secs(&self, speed: Mph) -> f64 {
        if speed.0 <= 0.0 {
            f64::INFINITY
        } else {
            self.cell_diameter_miles / speed.0 * 3600.0
        }
    }

    /// Outage duration per handoff at `speed`, seconds.
    #[must_use]
    pub fn outage_secs(&self, speed: Mph) -> f64 {
        if speed.0 <= 0.0 {
            0.0
        } else {
            self.outage_base_secs * (speed.0 / self.outage_speed_scale).exp()
        }
    }

    /// Connectivity gap a vehicle pays to re-register through a
    /// different cell at `speed` — the per-handoff outage as a
    /// [`vdap_sim::SimDuration`]. Degraded-mode serving charges this on
    /// every request routed through a neighbor region's coverage.
    #[must_use]
    pub fn handoff_cost(&self, speed: Mph) -> vdap_sim::SimDuration {
        vdap_sim::SimDuration::from_secs_f64(self.outage_secs(speed))
    }

    /// [`CellularChannel::handoff_cost`] while the destination cell is
    /// in a signalling storm: re-registration contends with every other
    /// arriving vehicle, stretching the outage by
    /// [`STORM_HANDOFF_MULTIPLIER`].
    #[must_use]
    pub fn storm_handoff_cost(&self, speed: Mph) -> vdap_sim::SimDuration {
        self.handoff_cost(speed).mul_f64(STORM_HANDOFF_MULTIPLIER)
    }

    /// Long-run fraction of airtime lost to handoff outages, in
    /// `[0, 0.95]`.
    #[must_use]
    pub fn outage_fraction(&self, speed: Mph) -> f64 {
        let stay = self.cell_stay_secs(speed);
        if !stay.is_finite() {
            return 0.0;
        }
        (self.outage_secs(speed) / stay).min(0.95)
    }

    /// Target stationary packet loss interpolated from the drive test
    /// (bilinear over speed × bitrate, clamped to `[0, 0.95]`).
    #[must_use]
    pub fn target_packet_loss(&self, speed: Mph, bitrate_mbps: f64) -> f64 {
        let lo = interp_speed(speed.0, 3.8);
        let hi = interp_speed(speed.0, 5.8);
        let t = ((bitrate_mbps - 3.8) / (5.8 - 3.8)).clamp(-0.5, 2.0);
        (lo + (hi - lo) * t).clamp(0.0, 0.95)
    }

    /// Stationary residual (non-outage) loss rate at `(speed, bitrate)`.
    #[must_use]
    pub fn residual_loss(&self, speed: Mph, bitrate_mbps: f64) -> f64 {
        let o = self.outage_fraction(speed);
        let p = self.target_packet_loss(speed, bitrate_mbps);
        ((p - o) / (1.0 - o)).clamp(0.0, 0.95)
    }

    /// Mean residual fade-burst length in packets at `speed` (≥ 1).
    #[must_use]
    pub fn fade_burst_len(&self, speed: Mph) -> f64 {
        (self.fade_burst_base * (-speed.0 / self.fade_burst_speed_scale).exp()).max(1.0)
    }

    /// Builds a per-packet loss oracle for a transmission at `speed`
    /// sending `bitrate_mbps`, driven by the given RNG stream.
    #[must_use]
    pub fn loss_process(&self, speed: Mph, bitrate_mbps: f64, rng: RngStream) -> LossProcess {
        let stay = self.cell_stay_secs(speed);
        let outage = self.outage_secs(speed);
        let mut rng = rng;
        // Random phase so the first handoff is not synchronized to t = 0.
        let phase = if stay.is_finite() {
            rng.uniform() * stay
        } else {
            0.0
        };
        LossProcess {
            stay_secs: stay,
            outage_secs: outage,
            phase_secs: phase,
            residual: self.residual_loss(speed, bitrate_mbps),
            burst_len: self.fade_burst_len(speed),
            burst_remaining: 0,
            rng,
        }
    }
}

/// Piecewise-linear interpolation of the drive-test packet loss over
/// speed, at one of the two measured bitrates.
fn interp_speed(speed: f64, bitrate: f64) -> f64 {
    let points: Vec<(f64, f64)> = FIG2_PACKET_LOSS
        .iter()
        .filter(|&&(_, b, _)| (b - bitrate).abs() < 1e-9)
        .map(|&(v, _, p)| (v, p))
        .collect();
    debug_assert_eq!(points.len(), 3);
    let speed = speed.clamp(0.0, 120.0);
    if speed <= points[0].0 {
        return points[0].1;
    }
    for w in points.windows(2) {
        let (v0, p0) = w[0];
        let (v1, p1) = w[1];
        if speed <= v1 {
            return p0 + (p1 - p0) * (speed - v0) / (v1 - v0);
        }
    }
    // Beyond 70 MPH: extrapolate along the last segment, clamped later.
    let (v0, p0) = points[1];
    let (v1, p1) = points[2];
    p0 + (p1 - p0) * (speed - v0) / (v1 - v0)
}

/// A stateful per-packet loss oracle for one streaming session.
#[derive(Debug, Clone)]
pub struct LossProcess {
    stay_secs: f64,
    outage_secs: f64,
    phase_secs: f64,
    residual: f64,
    burst_len: f64,
    burst_remaining: u32,
    rng: RngStream,
}

impl LossProcess {
    /// Whether a packet transmitted at `at` is in a handoff outage.
    #[must_use]
    pub fn in_outage(&self, at: SimTime) -> bool {
        if !self.stay_secs.is_finite() || self.outage_secs <= 0.0 {
            return false;
        }
        let t = at.as_secs_f64() + self.phase_secs;
        let into_cell = t % self.stay_secs;
        // The outage sits at the end of each cell stay (approach + handoff).
        into_cell > self.stay_secs - self.outage_secs
    }

    /// Decides the fate of one packet sent at `at`; mutates fade state.
    pub fn packet_lost(&mut self, at: SimTime) -> bool {
        if self.in_outage(at) {
            // Outages also reset any fade burst.
            self.burst_remaining = 0;
            return true;
        }
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            return true;
        }
        let start_prob = self.residual / self.burst_len;
        if self.rng.chance(start_prob) {
            // Geometric burst with mean `burst_len`; this packet is lost
            // and `burst_remaining` more will follow.
            let mut len = 1u32;
            while self.rng.chance(1.0 - 1.0 / self.burst_len) && len < 10_000 {
                len += 1;
            }
            self.burst_remaining = len - 1;
            return true;
        }
        false
    }

    /// Stationary residual loss rate the process was built with.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    fn measured_loss(speed: f64, bitrate: f64, seed: u64) -> f64 {
        let ch = CellularChannel::calibrated();
        let mut proc = ch.loss_process(Mph(speed), bitrate, SeedFactory::new(seed).stream("ch"));
        // 5 minutes of packets at the stream's packet rate.
        let pkt_per_sec = bitrate * 1e6 / 8.0 / 1400.0;
        let n = (300.0 * pkt_per_sec) as u64;
        let mut lost = 0u64;
        for i in 0..n {
            let at = SimTime::from_nanos((i as f64 / pkt_per_sec * 1e9) as u64);
            if proc.packet_lost(at) {
                lost += 1;
            }
        }
        lost as f64 / n as f64
    }

    #[test]
    fn storm_handoff_is_a_fixed_multiple_of_the_calm_cost() {
        let ch = CellularChannel::calibrated();
        for speed in [15.0, 30.0, 55.0] {
            let calm = ch.handoff_cost(Mph(speed));
            let storm = ch.storm_handoff_cost(Mph(speed));
            let ratio = storm.as_secs_f64() / calm.as_secs_f64();
            assert!(
                (ratio - STORM_HANDOFF_MULTIPLIER).abs() < 1e-9,
                "speed={speed}: ratio={ratio}"
            );
        }
    }

    #[test]
    fn outage_fraction_grows_with_speed() {
        let ch = CellularChannel::calibrated();
        assert_eq!(ch.outage_fraction(Mph(0.0)), 0.0);
        let f35 = ch.outage_fraction(Mph(35.0));
        let f70 = ch.outage_fraction(Mph(70.0));
        assert!(f35 > 0.0 && f35 < 0.05, "f35={f35}");
        assert!(f70 > 0.4 && f70 < 0.6, "f70={f70}");
    }

    #[test]
    fn target_loss_matches_drive_test_anchors() {
        let ch = CellularChannel::calibrated();
        for (v, b, p) in FIG2_PACKET_LOSS {
            let got = ch.target_packet_loss(Mph(v), b);
            assert!((got - p).abs() < 1e-9, "({v},{b}): {got} vs {p}");
        }
    }

    #[test]
    fn simulated_loss_tracks_targets() {
        for (v, b, p) in FIG2_PACKET_LOSS {
            let got = measured_loss(v, b, 42);
            let tol = (p * 0.35).max(0.004);
            assert!(
                (got - p).abs() < tol,
                "({v} MPH, {b} Mbps): simulated {got:.4}, paper {p:.4}"
            );
        }
    }

    #[test]
    fn loss_monotone_in_speed_and_bitrate() {
        let ch = CellularChannel::calibrated();
        let mut last = -1.0;
        for v in [0.0, 20.0, 35.0, 50.0, 70.0] {
            let p = ch.target_packet_loss(Mph(v), 3.8);
            assert!(p >= last, "loss must grow with speed");
            last = p;
        }
        for v in [0.0, 35.0, 70.0] {
            assert!(
                ch.target_packet_loss(Mph(v), 5.8) > ch.target_packet_loss(Mph(v), 3.8),
                "1080P must lose more at {v} MPH"
            );
        }
    }

    #[test]
    fn residual_plus_outage_reconstructs_target() {
        let ch = CellularChannel::calibrated();
        for (v, b, p) in FIG2_PACKET_LOSS {
            let o = ch.outage_fraction(Mph(v));
            let r = ch.residual_loss(Mph(v), b);
            let reconstructed = o + (1.0 - o) * r;
            assert!(
                (reconstructed - p).abs() < 0.02,
                "({v},{b}): {reconstructed} vs {p}"
            );
        }
    }

    #[test]
    fn stationary_process_has_no_outages() {
        let ch = CellularChannel::calibrated();
        let proc = ch.loss_process(Mph(0.0), 3.8, SeedFactory::new(1).stream("x"));
        for s in 0..600 {
            assert!(!proc.in_outage(SimTime::from_secs(s)));
        }
    }

    #[test]
    fn handoff_cost_matches_outage_and_grows_with_speed() {
        let ch = CellularChannel::calibrated();
        assert_eq!(ch.handoff_cost(Mph(0.0)), vdap_sim::SimDuration::ZERO);
        let c30 = ch.handoff_cost(Mph(30.0));
        let c70 = ch.handoff_cost(Mph(70.0));
        assert!(c30 < c70);
        // 0.008 * exp(30 / 9.1) ≈ 0.216 s at city speed; the round trip
        // through integer nanoseconds quantizes at 1e-9 s.
        assert!((c30.as_secs_f64() - ch.outage_secs(Mph(30.0))).abs() < 1e-8);
        assert!(
            c30.as_secs_f64() > 0.1 && c30.as_secs_f64() < 0.4,
            "{c30:?}"
        );
    }

    #[test]
    fn fade_bursts_shorten_with_speed() {
        let ch = CellularChannel::calibrated();
        assert!(ch.fade_burst_len(Mph(0.0)) > ch.fade_burst_len(Mph(35.0)));
        assert_eq!(ch.fade_burst_len(Mph(70.0)), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = measured_loss(35.0, 5.8, 7);
        let b = measured_loss(35.0, 5.8, 7);
        assert_eq!(a, b);
    }
}
