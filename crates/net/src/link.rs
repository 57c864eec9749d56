//! Point-to-point link models.
//!
//! §IV-A: OpenVDAP vehicles carry DSRC, 5G, 3G/4G/LTE, Wi-Fi and
//! Bluetooth radios; RSUs and base stations reach the cloud over wired
//! Ethernet or optical fiber. A [`LinkSpec`] models a link as asymmetric
//! bandwidth plus a propagation/setup latency, which is all the
//! offloading planner needs to price a transfer.

use vdap_sim::SimDuration;

/// Transfer direction relative to the vehicle (or the link's "A side").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Vehicle → infrastructure.
    Uplink,
    /// Infrastructure → vehicle.
    Downlink,
}

/// Families of links available in the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkKind {
    /// 4G/LTE cellular.
    Lte,
    /// 5G cellular.
    FiveG,
    /// Dedicated short-range communications (V2V, V2I).
    Dsrc,
    /// Wi-Fi (parked / depot use).
    Wifi,
    /// Bluetooth LE to passenger devices.
    Bluetooth,
    /// Wired Ethernet (RSU backhaul).
    Ethernet,
    /// Optical fiber (base station → cloud).
    Fiber,
}

impl LinkKind {
    /// Short lowercase label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            LinkKind::Lte => "lte",
            LinkKind::FiveG => "5g",
            LinkKind::Dsrc => "dsrc",
            LinkKind::Wifi => "wifi",
            LinkKind::Bluetooth => "ble",
            LinkKind::Ethernet => "ethernet",
            LinkKind::Fiber => "fiber",
        }
    }
}

impl std::fmt::Display for LinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A link's bandwidth/latency description.
///
/// # Examples
///
/// ```
/// use vdap_net::{Direction, LinkSpec};
///
/// let lte = LinkSpec::lte();
/// // A 1 MB upload: 50 ms RTT setup + 8 Mb / 8 Mbps = ~1.05 s.
/// let t = lte.transfer_time(Direction::Uplink, 1_000_000);
/// assert!(t.as_millis() > 1000 && t.as_millis() < 1200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    kind: LinkKind,
    uplink_mbps: f64,
    downlink_mbps: f64,
    latency: SimDuration,
}

impl LinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics when a bandwidth is not positive and finite.
    #[must_use]
    pub fn new(kind: LinkKind, uplink_mbps: f64, downlink_mbps: f64, latency: SimDuration) -> Self {
        assert!(
            uplink_mbps.is_finite() && uplink_mbps > 0.0,
            "uplink bandwidth must be positive"
        );
        assert!(
            downlink_mbps.is_finite() && downlink_mbps > 0.0,
            "downlink bandwidth must be positive"
        );
        LinkSpec {
            kind,
            uplink_mbps,
            downlink_mbps,
            latency,
        }
    }

    /// Representative 2018 LTE: 8 Mbps up, 20 Mbps down, 50 ms latency.
    #[must_use]
    pub fn lte() -> Self {
        LinkSpec::new(LinkKind::Lte, 8.0, 20.0, SimDuration::from_millis(50))
    }

    /// Early 5G: 60 Mbps up, 200 Mbps down, 10 ms latency.
    #[must_use]
    pub fn five_g() -> Self {
        LinkSpec::new(LinkKind::FiveG, 60.0, 200.0, SimDuration::from_millis(10))
    }

    /// DSRC (802.11p): 12 Mbps symmetric, 2 ms latency, short range.
    #[must_use]
    pub fn dsrc() -> Self {
        LinkSpec::new(LinkKind::Dsrc, 12.0, 12.0, SimDuration::from_millis(2))
    }

    /// Wi-Fi: 80 Mbps symmetric, 5 ms.
    #[must_use]
    pub fn wifi() -> Self {
        LinkSpec::new(LinkKind::Wifi, 80.0, 80.0, SimDuration::from_millis(5))
    }

    /// Bluetooth LE: 1 Mbps symmetric, 15 ms.
    #[must_use]
    pub fn bluetooth() -> Self {
        LinkSpec::new(LinkKind::Bluetooth, 1.0, 1.0, SimDuration::from_millis(15))
    }

    /// RSU wired backhaul: 1 Gbps symmetric, 5 ms.
    #[must_use]
    pub fn ethernet() -> Self {
        LinkSpec::new(
            LinkKind::Ethernet,
            1000.0,
            1000.0,
            SimDuration::from_millis(5),
        )
    }

    /// Base-station fiber to the cloud: 10 Gbps, 20 ms (wide-area).
    #[must_use]
    pub fn fiber() -> Self {
        LinkSpec::new(
            LinkKind::Fiber,
            10_000.0,
            10_000.0,
            SimDuration::from_millis(20),
        )
    }

    /// Link family.
    #[must_use]
    pub fn kind(&self) -> LinkKind {
        self.kind
    }

    /// Bandwidth in Mbps for a direction.
    #[must_use]
    pub fn bandwidth_mbps(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Uplink => self.uplink_mbps,
            Direction::Downlink => self.downlink_mbps,
        }
    }

    /// One-way propagation/setup latency.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Time to move `bytes` in one direction (latency + serialization).
    #[must_use]
    pub fn transfer_time(&self, dir: Direction, bytes: u64) -> SimDuration {
        let secs = (bytes as f64 * 8.0) / (self.bandwidth_mbps(dir) * 1e6);
        self.latency + SimDuration::from_secs_f64(secs)
    }

    /// Hours to upload a daily data volume — the §III-A "4 TB per day"
    /// feasibility check.
    #[must_use]
    pub fn upload_hours(&self, bytes_per_day: u64) -> f64 {
        self.transfer_time(Direction::Uplink, bytes_per_day)
            .as_secs_f64()
            / 3600.0
    }

    /// Returns a copy with bandwidth scaled by `factor` in both
    /// directions (used for degraded-coverage what-ifs).
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> LinkSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        LinkSpec {
            kind: self.kind,
            uplink_mbps: self.uplink_mbps * factor,
            downlink_mbps: self.downlink_mbps * factor,
            latency: self.latency,
        }
    }

    /// Returns the per-vehicle share of this link when `n` vehicles use
    /// it concurrently: bandwidth divides evenly, latency is unchanged.
    /// `n = 0` is treated as a single user. Fleet-scale runs use this to
    /// surface cell-tower / RSU contention without simulating the MAC
    /// layer.
    #[must_use]
    pub fn shared_among(&self, n: u32) -> LinkSpec {
        let n = n.max(1) as f64;
        LinkSpec {
            kind: self.kind,
            uplink_mbps: self.uplink_mbps / n,
            downlink_mbps: self.downlink_mbps / n,
            latency: self.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: u64 = 1_000_000_000_000;

    #[test]
    fn transfer_time_includes_latency_and_serialization() {
        let link = LinkSpec::new(LinkKind::Wifi, 8.0, 16.0, SimDuration::from_millis(10));
        // 1 MB up at 8 Mbps = 1 s + 10 ms.
        let t = link.transfer_time(Direction::Uplink, 1_000_000);
        assert_eq!(t.as_millis(), 1010);
        // Downlink is twice as fast.
        let d = link.transfer_time(Direction::Downlink, 1_000_000);
        assert_eq!(d.as_millis(), 510);
    }

    #[test]
    fn four_tb_per_day_is_infeasible_on_lte() {
        // The paper: even at LTE's nominal best, uploading a day of CAV
        // data takes multiple days.
        let hours = LinkSpec::lte().upload_hours(4 * TB);
        assert!(
            hours > 24.0,
            "4 TB on LTE should take > 1 day, got {hours} h"
        );
        // Even a 100 Mbps ideal LTE link takes more than 3 days... the
        // paper says "a few days" at 100 Mbps:
        let ideal = LinkSpec::new(LinkKind::Lte, 100.0, 100.0, SimDuration::ZERO);
        let ideal_hours = ideal.upload_hours(4 * TB);
        assert!(ideal_hours > 24.0 * 3.0);
    }

    #[test]
    fn five_g_shrinks_but_does_not_solve_upload_wall() {
        let lte = LinkSpec::lte().upload_hours(4 * TB);
        let five_g = LinkSpec::five_g().upload_hours(4 * TB);
        assert!(five_g < lte);
        assert!(five_g > 24.0, "even 5G cannot stream 4 TB/day in real time");
    }

    #[test]
    fn dsrc_latency_below_cellular() {
        assert!(LinkSpec::dsrc().latency() < LinkSpec::lte().latency());
        assert!(LinkSpec::dsrc().latency() < LinkSpec::five_g().latency());
    }

    #[test]
    fn scaled_changes_bandwidth_only() {
        let l = LinkSpec::lte().scaled(0.5);
        assert_eq!(l.bandwidth_mbps(Direction::Uplink), 4.0);
        assert_eq!(l.latency(), LinkSpec::lte().latency());
    }

    #[test]
    fn shared_among_divides_bandwidth_keeps_latency() {
        let l = LinkSpec::lte().shared_among(4);
        assert_eq!(l.bandwidth_mbps(Direction::Uplink), 2.0);
        assert_eq!(l.bandwidth_mbps(Direction::Downlink), 5.0);
        assert_eq!(l.latency(), LinkSpec::lte().latency());
        // Zero users degrades to a single user, not a division by zero.
        let solo = LinkSpec::lte().shared_among(0);
        assert_eq!(solo, LinkSpec::lte());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::new(LinkKind::Lte, 0.0, 1.0, SimDuration::ZERO);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            LinkKind::Lte,
            LinkKind::FiveG,
            LinkKind::Dsrc,
            LinkKind::Wifi,
            LinkKind::Bluetooth,
            LinkKind::Ethernet,
            LinkKind::Fiber,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
