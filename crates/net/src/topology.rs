//! The vehicle / XEdge / cloud topology (paper Figure 1 and §IV-A).
//!
//! Vehicles reach nearby XEdge servers (RSUs, base stations) over DSRC or
//! 5G, reach the cloud over cellular, and XEdge reaches the cloud over
//! wired fiber. [`NetTopology`] prices a transfer along any of these
//! paths; the offloading planner uses it to compare pipeline placements.

use vdap_sim::SimDuration;

use crate::link::{Direction, LinkSpec};

/// Where computation (or data) can live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Site {
    /// On the vehicle itself.
    Vehicle,
    /// A nearby roadside/base-station edge server.
    Edge,
    /// The remote cloud.
    Cloud,
}

impl Site {
    /// All sites.
    pub const ALL: [Site; 3] = [Site::Vehicle, Site::Edge, Site::Cloud];

    /// Short lowercase label for reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Site::Vehicle => "vehicle",
            Site::Edge => "edge",
            Site::Cloud => "cloud",
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The link fabric between vehicle, edge and cloud.
///
/// # Examples
///
/// ```
/// use vdap_net::{NetTopology, Site};
///
/// let net = NetTopology::reference();
/// let to_edge = net.transfer_time(Site::Vehicle, Site::Edge, 100_000);
/// let to_cloud = net.transfer_time(Site::Vehicle, Site::Cloud, 100_000);
/// assert!(to_edge < to_cloud); // the paper's core latency argument
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetTopology {
    vehicle_edge: LinkSpec,
    vehicle_cloud: LinkSpec,
    edge_cloud: LinkSpec,
    vehicle_vehicle: LinkSpec,
    /// Per-link outage flags, indexed by [`NetTopology::link_index`].
    link_up: [bool; 3],
    /// Per-link bandwidth factors in `(0, 1]` (fault injection).
    link_factor: [f64; 3],
}

impl NetTopology {
    /// Transfer time reported while a link is in outage: effectively
    /// never, but finite so sums never overflow. Any deadline-aware
    /// consumer treats a transfer this slow as infeasible.
    pub const OUTAGE: SimDuration = SimDuration::from_secs(86_400);

    /// The paper's reference fabric: DSRC to the edge, LTE to the cloud,
    /// fiber edge→cloud, DSRC vehicle→vehicle.
    #[must_use]
    pub fn reference() -> Self {
        Self::new(
            LinkSpec::dsrc(),
            LinkSpec::lte(),
            LinkSpec::fiber(),
            LinkSpec::dsrc(),
        )
    }

    /// A 5G variant: 5G to the edge and the cloud.
    #[must_use]
    pub fn five_g() -> Self {
        Self::new(
            LinkSpec::five_g(),
            LinkSpec::five_g(),
            LinkSpec::fiber(),
            LinkSpec::dsrc(),
        )
    }

    /// Builds a custom fabric.
    #[must_use]
    pub fn new(
        vehicle_edge: LinkSpec,
        vehicle_cloud: LinkSpec,
        edge_cloud: LinkSpec,
        vehicle_vehicle: LinkSpec,
    ) -> Self {
        NetTopology {
            vehicle_edge,
            vehicle_cloud,
            edge_cloud,
            vehicle_vehicle,
            link_up: [true; 3],
            link_factor: [1.0; 3],
        }
    }

    /// Index of the direct link between two distinct sites.
    fn link_index(a: Site, b: Site) -> Option<usize> {
        match (a.min(b), a.max(b)) {
            (Site::Vehicle, Site::Edge) => Some(0),
            (Site::Vehicle, Site::Cloud) => Some(1),
            (Site::Edge, Site::Cloud) => Some(2),
            _ => None,
        }
    }

    /// Fault-injection hook: takes a link down or brings it back. Same
    /// or unrelated site pairs are ignored.
    pub fn set_link_up(&mut self, a: Site, b: Site, up: bool) {
        if let Some(i) = Self::link_index(a, b) {
            self.link_up[i] = up;
        }
    }

    /// Whether the direct link between two sites carries traffic
    /// (`true` for a same-site "transfer").
    #[must_use]
    pub fn is_link_up(&self, a: Site, b: Site) -> bool {
        match Self::link_index(a, b) {
            Some(i) => self.link_up[i],
            None => true,
        }
    }

    /// Fault-injection hook: collapses a link's effective bandwidth to
    /// `factor` of nominal (`1.0` restores it).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn set_link_factor(&mut self, a: Site, b: Site, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "bandwidth factor must be in (0, 1]"
        );
        if let Some(i) = Self::link_index(a, b) {
            self.link_factor[i] = factor;
        }
    }

    /// The current bandwidth factor of a link (1.0 when nominal or for
    /// same-site pairs).
    #[must_use]
    pub fn link_factor(&self, a: Site, b: Site) -> f64 {
        match Self::link_index(a, b) {
            Some(i) => self.link_factor[i],
            None => 1.0,
        }
    }

    /// The direct link between two distinct sites.
    #[must_use]
    pub fn link(&self, a: Site, b: Site) -> Option<&LinkSpec> {
        match (a.min(b), a.max(b)) {
            (Site::Vehicle, Site::Edge) => Some(&self.vehicle_edge),
            (Site::Vehicle, Site::Cloud) => Some(&self.vehicle_cloud),
            (Site::Edge, Site::Cloud) => Some(&self.edge_cloud),
            _ => None,
        }
    }

    /// The vehicle-to-vehicle link (V2V collaboration, §III-C).
    #[must_use]
    pub fn v2v(&self) -> &LinkSpec {
        &self.vehicle_vehicle
    }

    /// Replaces the vehicle↔cloud link (e.g. to degrade coverage).
    pub fn set_vehicle_cloud(&mut self, link: LinkSpec) {
        self.vehicle_cloud = link;
    }

    /// Replaces the vehicle↔edge link.
    pub fn set_vehicle_edge(&mut self, link: LinkSpec) {
        self.vehicle_edge = link;
    }

    /// Time to move `bytes` from `src` to `dst` (zero when same site).
    ///
    /// Transfers away from the vehicle use the uplink direction; toward
    /// the vehicle the downlink. Edge↔cloud is symmetric. A link in
    /// outage reports [`NetTopology::OUTAGE`]; a degraded link's time is
    /// scaled by the inverse of its bandwidth factor.
    #[must_use]
    pub fn transfer_time(&self, src: Site, dst: Site, bytes: u64) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        if !self.is_link_up(src, dst) {
            return Self::OUTAGE;
        }
        let dir = if src == Site::Vehicle {
            Direction::Uplink
        } else {
            Direction::Downlink
        };
        match self.link(src, dst) {
            Some(link) => {
                let base = link.transfer_time(dir, bytes);
                let factor = self.link_factor(src, dst);
                if factor < 1.0 {
                    base.mul_f64(1.0 / factor)
                } else {
                    base
                }
            }
            None => SimDuration::ZERO,
        }
    }

    /// Round trip: ship `up_bytes` from `src` to `dst` and `down_bytes`
    /// back.
    #[must_use]
    pub fn round_trip(&self, src: Site, dst: Site, up_bytes: u64, down_bytes: u64) -> SimDuration {
        self.transfer_time(src, dst, up_bytes) + self.transfer_time(dst, src, down_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_site_is_free() {
        let net = NetTopology::reference();
        assert_eq!(
            net.transfer_time(Site::Vehicle, Site::Vehicle, 1 << 30),
            SimDuration::ZERO
        );
    }

    #[test]
    fn edge_closer_than_cloud() {
        let net = NetTopology::reference();
        for bytes in [1_000u64, 100_000, 10_000_000] {
            assert!(
                net.transfer_time(Site::Vehicle, Site::Edge, bytes)
                    < net.transfer_time(Site::Vehicle, Site::Cloud, bytes)
            );
        }
    }

    #[test]
    fn link_lookup_is_symmetric() {
        let net = NetTopology::reference();
        let ab = net.link(Site::Vehicle, Site::Cloud).unwrap();
        let ba = net.link(Site::Cloud, Site::Vehicle).unwrap();
        assert_eq!(ab, ba);
        assert!(net.link(Site::Edge, Site::Edge).is_none());
    }

    #[test]
    fn round_trip_sums_directions() {
        let net = NetTopology::reference();
        let rt = net.round_trip(Site::Vehicle, Site::Edge, 1000, 100);
        let up = net.transfer_time(Site::Vehicle, Site::Edge, 1000);
        let down = net.transfer_time(Site::Edge, Site::Vehicle, 100);
        assert_eq!(rt, up + down);
    }

    #[test]
    fn five_g_fabric_faster_to_cloud() {
        let lte = NetTopology::reference();
        let fg = NetTopology::five_g();
        let bytes = 5_000_000;
        assert!(
            fg.transfer_time(Site::Vehicle, Site::Cloud, bytes)
                < lte.transfer_time(Site::Vehicle, Site::Cloud, bytes)
        );
    }

    #[test]
    fn outage_makes_transfers_infeasible() {
        let mut net = NetTopology::reference();
        net.set_link_up(Site::Vehicle, Site::Cloud, false);
        assert!(!net.is_link_up(Site::Vehicle, Site::Cloud));
        assert!(!net.is_link_up(Site::Cloud, Site::Vehicle), "symmetric");
        assert_eq!(
            net.transfer_time(Site::Vehicle, Site::Cloud, 1_000),
            NetTopology::OUTAGE
        );
        // Other links keep working.
        assert!(net.is_link_up(Site::Vehicle, Site::Edge));
        assert!(net.transfer_time(Site::Vehicle, Site::Edge, 1_000) < SimDuration::from_secs(1));
        net.set_link_up(Site::Cloud, Site::Vehicle, true);
        assert!(net.is_link_up(Site::Vehicle, Site::Cloud));
    }

    #[test]
    fn bandwidth_collapse_scales_transfer_time() {
        let mut net = NetTopology::reference();
        let nominal = net.transfer_time(Site::Vehicle, Site::Cloud, 10_000_000);
        net.set_link_factor(Site::Vehicle, Site::Cloud, 0.1);
        let collapsed = net.transfer_time(Site::Vehicle, Site::Cloud, 10_000_000);
        assert!(
            (collapsed.as_secs_f64() / nominal.as_secs_f64() - 10.0).abs() < 1e-6,
            "10x slower at 0.1 factor"
        );
        net.set_link_factor(Site::Vehicle, Site::Cloud, 1.0);
        assert_eq!(
            net.transfer_time(Site::Vehicle, Site::Cloud, 10_000_000),
            nominal
        );
    }

    #[test]
    fn degrading_cloud_link_shows_up() {
        let mut net = NetTopology::reference();
        let before = net.transfer_time(Site::Vehicle, Site::Cloud, 1_000_000);
        net.set_vehicle_cloud(crate::link::LinkSpec::lte().scaled(0.25));
        let after = net.transfer_time(Site::Vehicle, Site::Cloud, 1_000_000);
        assert!(after > before);
    }
}
