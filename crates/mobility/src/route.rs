//! Deterministic per-vehicle route plans and barrier-quantized tracks.

use vdap_net::Mph;
use vdap_sim::{RngStream, SimDuration, SimTime};

use crate::graph::RegionGraph;

/// Tunables for the seeded traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityConfig {
    /// Relative weight of the commute profile in the per-vehicle draw.
    pub commute_weight: u32,
    /// Relative weight of the roam profile.
    pub roam_weight: u32,
    /// Relative weight of the rush-hour profile.
    pub rush_weight: u32,
    /// Mean dwell between roam legs.
    pub dwell_mean: SimDuration,
    /// Rush-hour departure window as fractions of the horizon
    /// (narrow by design: synchronized departures make the storm).
    pub rush_window: (f64, f64),
    /// Fraction of regions that count as downtown (rush destinations).
    pub downtown_fraction: f64,
    /// Extra chord segments per region beyond the connectivity ring.
    pub chord_fraction: f64,
    /// Per-segment capacity before congestion bites.
    pub segment_capacity: u32,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            commute_weight: 3,
            roam_weight: 3,
            rush_weight: 2,
            dwell_mean: SimDuration::from_millis(2500),
            rush_window: (0.25, 0.35),
            downtown_fraction: 0.15,
            chord_fraction: 0.5,
            segment_capacity: 24,
        }
    }
}

impl MobilityConfig {
    /// A mix dominated by the rush-hour profile — the configuration the
    /// E20 experiment uses to provoke an organic handoff storm.
    #[must_use]
    pub fn rush_hour() -> Self {
        MobilityConfig {
            commute_weight: 1,
            roam_weight: 1,
            rush_weight: 6,
            ..MobilityConfig::default()
        }
    }

    /// Total profile weight (must be positive to draw a profile).
    #[must_use]
    pub fn total_weight(&self) -> u32 {
        self.commute_weight + self.roam_weight + self.rush_weight
    }

    /// Number of downtown regions for a metro of `regions`.
    #[must_use]
    pub fn downtown_regions(&self, regions: u32) -> u32 {
        (((f64::from(regions)) * self.downtown_fraction).floor() as u32).clamp(1, regions)
    }

    /// Number of chord segments for a metro of `regions`.
    #[must_use]
    pub fn chords(&self, regions: u32) -> u32 {
        (f64::from(regions) * self.chord_fraction).floor() as u32
    }
}

/// The traffic pattern a vehicle follows for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteProfile {
    /// Home → work early, work → home late, wide departure windows.
    Commute,
    /// Random walk between neighboring regions with exponential dwells.
    Roam,
    /// Narrow synchronized departure window into a downtown region.
    RushHour,
}

/// One region-boundary crossing produced by a barrier advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Region the vehicle left.
    pub from: u32,
    /// Region the vehicle entered.
    pub to: u32,
    /// Index of the road segment it arrived on.
    pub edge: usize,
    /// Segment speed at the crossing (prices the cellular handoff).
    pub speed: Mph,
    /// Crossing instant (inside the advanced window).
    pub at: SimTime,
}

/// Which leg of a commute or rush-hour plan a track is on; a snapshot
/// writes the discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackLeg {
    /// Hasn't departed for work yet.
    BeforeOutbound = 0,
    /// At work, waiting for the return departure.
    AtWork = 1,
    /// Plan finished; parked for good.
    Done = 2,
}

/// What a track is doing.
#[derive(Debug, Clone, PartialEq)]
pub enum TrackMotion {
    /// Parked for good.
    Parked,
    /// Dwelling in the current region until the contained instant.
    Dwell(SimTime),
    /// Traversing a segment with `remaining` travel time; `path` holds
    /// the regions still ahead.
    Drive {
        /// Segment index being traversed.
        edge: usize,
        /// Travel time left on the segment.
        remaining: SimDuration,
        /// Regions still ahead (the segment's far end is `path[0]`).
        path: Vec<u32>,
    },
}

/// A vehicle's deterministic position process, advanced only in whole
/// epoch windows by the engine's mobility pass.
#[derive(Debug, Clone)]
pub struct VehicleTrack {
    id: u32,
    profile: RouteProfile,
    region: u32,
    home: u32,
    work: u32,
    return_at: SimTime,
    dwell_mean: SimDuration,
    leg: TrackLeg,
    motion: TrackMotion,
    rng: RngStream,
}

impl VehicleTrack {
    /// Builds the vehicle's plan from its private stream. All draws for
    /// the plan happen here, in a fixed order, so the plan is a pure
    /// function of the stream regardless of when the track is advanced.
    #[must_use]
    pub fn new(
        id: u32,
        start_region: u32,
        cfg: &MobilityConfig,
        graph: &RegionGraph,
        horizon: SimDuration,
        mut rng: RngStream,
    ) -> Self {
        assert!(
            cfg.total_weight() > 0,
            "profile weights must not all be zero"
        );
        let draw = rng.below(u64::from(cfg.total_weight())) as u32;
        let profile = if draw < cfg.commute_weight {
            RouteProfile::Commute
        } else if draw < cfg.commute_weight + cfg.roam_weight {
            RouteProfile::Roam
        } else {
            RouteProfile::RushHour
        };
        let regions = graph.regions();
        let h = horizon.as_secs_f64();
        let (work, outbound_at, return_at) = match profile {
            RouteProfile::Commute => {
                let mut work = rng.below(u64::from(regions.max(1))) as u32;
                if work == start_region {
                    work = (work + 1) % regions.max(1);
                }
                let out =
                    SimTime::ZERO + SimDuration::from_secs_f64(h * rng.uniform_range(0.05, 0.35));
                let back =
                    SimTime::ZERO + SimDuration::from_secs_f64(h * rng.uniform_range(0.60, 0.90));
                (work, out, back)
            }
            RouteProfile::RushHour => {
                let downtown = cfg.downtown_regions(regions);
                let work = rng.below(u64::from(downtown)) as u32;
                let (lo, hi) = cfg.rush_window;
                let out = SimTime::ZERO + SimDuration::from_secs_f64(h * rng.uniform_range(lo, hi));
                let back =
                    SimTime::ZERO + SimDuration::from_secs_f64(h * rng.uniform_range(0.75, 0.95));
                (work, out, back)
            }
            RouteProfile::Roam => (start_region, SimTime::ZERO, SimTime::ZERO),
        };
        let motion = match profile {
            RouteProfile::Roam => TrackMotion::Dwell(
                SimTime::ZERO
                    + SimDuration::from_secs_f64(rng.exponential(cfg.dwell_mean.as_secs_f64())),
            ),
            _ => TrackMotion::Dwell(outbound_at),
        };
        VehicleTrack {
            id,
            profile,
            region: start_region,
            home: start_region,
            work,
            return_at,
            dwell_mean: cfg.dwell_mean,
            leg: TrackLeg::BeforeOutbound,
            motion,
            rng,
        }
    }

    /// Vehicle id the track belongs to.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The profile this vehicle drew.
    #[must_use]
    pub fn profile(&self) -> RouteProfile {
        self.profile
    }

    /// Region the vehicle is currently in (or entering).
    #[must_use]
    pub fn region(&self) -> u32 {
        self.region
    }

    /// Segment currently being traversed, if driving.
    #[must_use]
    pub fn driving_edge(&self) -> Option<usize> {
        match &self.motion {
            TrackMotion::Drive { edge, .. } => Some(*edge),
            TrackMotion::Parked | TrackMotion::Dwell(_) => None,
        }
    }

    /// Advances the track across `[now, now + window]`, locking each
    /// segment's congestion multiplier (from `congestion`, indexed by
    /// segment) at entry, and appends every boundary crossing to `out`.
    pub fn advance(
        &mut self,
        now: SimTime,
        window: SimDuration,
        graph: &RegionGraph,
        congestion: &[f64],
        out: &mut Vec<Crossing>,
    ) {
        let end = now + window;
        let mut clock = now;
        // Each iteration consumes a dwell tail or a segment remainder,
        // both strictly positive, so the loop terminates at `end`.
        while clock < end {
            match std::mem::replace(&mut self.motion, TrackMotion::Parked) {
                TrackMotion::Parked => return,
                TrackMotion::Dwell(u) => {
                    if u >= end {
                        self.motion = TrackMotion::Dwell(u);
                        return;
                    }
                    clock = u.max(clock);
                    self.depart(clock, graph, congestion);
                }
                TrackMotion::Drive {
                    edge,
                    mut remaining,
                    mut path,
                } => {
                    let left = end - clock;
                    if remaining > left {
                        remaining -= left;
                        self.motion = TrackMotion::Drive {
                            edge,
                            remaining,
                            path,
                        };
                        return;
                    }
                    clock += remaining;
                    let to = path.remove(0);
                    let from = self.region;
                    self.region = to;
                    out.push(Crossing {
                        from,
                        to,
                        edge,
                        speed: graph.segments()[edge].speed,
                        at: clock,
                    });
                    if path.is_empty() {
                        self.arrive(clock);
                    } else {
                        let e = graph
                            .edge_between(self.region, path[0])
                            .expect("path steps are adjacent");
                        self.motion = TrackMotion::Drive {
                            edge: e,
                            remaining: travel_time(graph, e, congestion),
                            path,
                        };
                    }
                }
            }
        }
    }

    /// Starts the next leg once a dwell expires.
    fn depart(&mut self, clock: SimTime, graph: &RegionGraph, congestion: &[f64]) {
        match self.profile {
            RouteProfile::Roam => {
                let adj = graph.adjacent(self.region);
                if adj.is_empty() {
                    self.motion = TrackMotion::Parked;
                    return;
                }
                let e = adj[self.rng.below(adj.len() as u64) as usize];
                let to = graph.segments()[e].other(self.region);
                self.motion = TrackMotion::Drive {
                    edge: e,
                    remaining: travel_time(graph, e, congestion),
                    path: vec![to],
                };
            }
            RouteProfile::Commute | RouteProfile::RushHour => {
                let dest = match self.leg {
                    TrackLeg::BeforeOutbound => self.work,
                    TrackLeg::AtWork => self.home,
                    TrackLeg::Done => {
                        self.motion = TrackMotion::Parked;
                        return;
                    }
                };
                let path = graph.shortest_path(self.region, dest);
                if path.is_empty() {
                    // Already there (or unreachable): skip the leg.
                    self.arrive(clock);
                    return;
                }
                let e = graph
                    .edge_between(self.region, path[0])
                    .expect("path steps are adjacent");
                self.motion = TrackMotion::Drive {
                    edge: e,
                    remaining: travel_time(graph, e, congestion),
                    path,
                };
            }
        }
    }

    /// Parks the vehicle after finishing a leg and schedules the next.
    fn arrive(&mut self, clock: SimTime) {
        match self.profile {
            RouteProfile::Roam => {
                let dwell = SimDuration::from_secs_f64(
                    self.rng
                        .exponential(self.dwell_mean.as_secs_f64())
                        .max(0.05),
                );
                self.motion = TrackMotion::Dwell(clock + dwell);
            }
            RouteProfile::Commute | RouteProfile::RushHour => match self.leg {
                TrackLeg::BeforeOutbound => {
                    self.leg = TrackLeg::AtWork;
                    self.motion = TrackMotion::Dwell(self.return_at.max(clock));
                }
                TrackLeg::AtWork | TrackLeg::Done => {
                    self.leg = TrackLeg::Done;
                    self.motion = TrackMotion::Parked;
                }
            },
        }
    }
}

/// The run-time state of a [`VehicleTrack`], exposed for
/// checkpoint/restore: where the vehicle is and what it is doing. The
/// plan (profile, home, work, departure times, dwell mean) is not part
/// of it: [`VehicleTrack::new`] draws the plan once from the track's
/// seeded stream, so a restore rebuilds the track and lays this state
/// over it with [`VehicleTrack::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSnapshot {
    /// Current (or entering) region.
    pub region: u32,
    /// Which leg of the plan the vehicle is on.
    pub leg: TrackLeg,
    /// What the vehicle is doing right now.
    pub motion: TrackMotion,
    /// Raw state of the track's private RNG stream.
    pub rng: [u64; 4],
}

impl VehicleTrack {
    /// Captures the track's run-time state for checkpointing.
    #[must_use]
    pub fn snapshot(&self) -> TrackSnapshot {
        TrackSnapshot {
            region: self.region,
            leg: self.leg,
            motion: self.motion.clone(),
            rng: self.rng.state(),
        }
    }

    /// Lays a captured run-time state over the track's plan, which
    /// reproduces the exact position process, including all future RNG
    /// draws, without replaying the run.
    ///
    /// # Panics
    ///
    /// Panics on an all-zero RNG state (never produced by
    /// [`VehicleTrack::snapshot`]).
    pub fn restore(&mut self, snap: TrackSnapshot) {
        self.region = snap.region;
        self.leg = snap.leg;
        self.motion = snap.motion;
        self.rng = RngStream::from_state(snap.rng);
    }
}

/// Traversal time of segment `e` with its congestion multiplier locked
/// at entry (multiplier 1.0 when the engine passes no sample).
fn travel_time(graph: &RegionGraph, e: usize, congestion: &[f64]) -> SimDuration {
    let mult = congestion.get(e).copied().unwrap_or(1.0);
    graph.segments()[e].base_travel.mul_f64(mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    fn setup(regions: u32) -> (RegionGraph, MobilityConfig) {
        let cfg = MobilityConfig::default();
        let mut rng = SeedFactory::new(11).stream("graph");
        let g = RegionGraph::seeded(regions, cfg.chords(regions), cfg.segment_capacity, &mut rng);
        (g, cfg)
    }

    fn run_track(seed: u64, id: u32, cfg: &MobilityConfig, g: &RegionGraph) -> Vec<Crossing> {
        let horizon = SimDuration::from_secs(30);
        let mut t = VehicleTrack::new(
            id,
            id % g.regions(),
            cfg,
            g,
            horizon,
            SeedFactory::new(seed).indexed_stream("fleet-mobility", u64::from(id)),
        );
        let epoch = SimDuration::from_millis(500);
        let none = vec![1.0; g.segments().len()];
        let mut out = Vec::new();
        for k in 0..60u64 {
            t.advance(SimTime::ZERO + epoch * k, epoch, g, &none, &mut out);
        }
        out
    }

    #[test]
    fn snapshot_resumes_identically_mid_drive() {
        let (g, cfg) = setup(12);
        let horizon = SimDuration::from_secs(30);
        let epoch = SimDuration::from_millis(500);
        let none = vec![1.0; g.segments().len()];
        for id in 0..16u32 {
            let track = || {
                VehicleTrack::new(
                    id,
                    id % g.regions(),
                    &cfg,
                    &g,
                    horizon,
                    SeedFactory::new(42).indexed_stream("fleet-mobility", u64::from(id)),
                )
            };
            let mut straight = track();
            let mut resumed = None;
            let mut a = Vec::new();
            let mut b = Vec::new();
            for k in 0..60u64 {
                let at = SimTime::ZERO + epoch * k;
                straight.advance(at, epoch, &g, &none, &mut a);
                if k == 20 {
                    // A fresh track draws the same plan; the snapshot
                    // carries the rest.
                    let mut fresh = track();
                    fresh.restore(straight.snapshot());
                    resumed = Some(fresh);
                    b = a.clone();
                }
                if let Some(r) = resumed.as_mut() {
                    if k > 20 {
                        r.advance(at, epoch, &g, &none, &mut b);
                    }
                }
            }
            assert_eq!(a, b, "vehicle {id} diverged after snapshot/restore");
        }
    }

    #[test]
    fn crossings_are_deterministic() {
        let (g, cfg) = setup(12);
        for id in 0..16 {
            assert_eq!(run_track(42, id, &cfg, &g), run_track(42, id, &cfg, &g));
        }
    }

    #[test]
    fn crossings_chain_and_stay_in_window() {
        let (g, cfg) = setup(12);
        let mut total = 0;
        for id in 0..32 {
            let xs = run_track(42, id, &cfg, &g);
            total += xs.len();
            let mut at = id % g.regions();
            for x in &xs {
                assert_eq!(x.from, at, "crossings must chain");
                assert!(g.edge_between(x.from, x.to).is_some());
                at = x.to;
            }
        }
        assert!(total > 0, "a 30 s run must move somebody");
    }

    #[test]
    fn rush_hour_synchronizes_departures() {
        let (g, _) = setup(16);
        let cfg = MobilityConfig::rush_hour();
        let mut per_epoch = vec![0u32; 60];
        for id in 0..64u32 {
            for x in run_track(7, id, &cfg, &g) {
                let k = (x.at.as_nanos() / SimDuration::from_millis(500).as_nanos()) as usize;
                per_epoch[k.min(59)] += 1;
            }
        }
        // The narrow departure window concentrates crossings: the
        // busiest epoch must beat the mean by a wide margin.
        let total: u32 = per_epoch.iter().sum();
        let peak = *per_epoch.iter().max().unwrap();
        assert!(total > 0);
        assert!(
            f64::from(peak) > 2.0 * f64::from(total) / 60.0,
            "peak {peak} vs total {total}"
        );
    }

    #[test]
    fn congestion_slows_traversal() {
        let (g, cfg) = setup(8);
        let horizon = SimDuration::from_secs(30);
        let mk = || {
            VehicleTrack::new(
                3,
                0,
                &cfg,
                &g,
                horizon,
                SeedFactory::new(9).indexed_stream("fleet-mobility", 3),
            )
        };
        let epoch = SimDuration::from_millis(500);
        let free = vec![1.0; g.segments().len()];
        let jam = vec![4.0; g.segments().len()];
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        let (mut a, mut b) = (mk(), mk());
        for k in 0..60u64 {
            a.advance(SimTime::ZERO + epoch * k, epoch, &g, &free, &mut fast);
            b.advance(SimTime::ZERO + epoch * k, epoch, &g, &jam, &mut slow);
        }
        assert!(fast.len() >= slow.len());
        if let (Some(f), Some(s)) = (fast.first(), slow.first()) {
            assert!(s.at >= f.at, "jammed first crossing cannot be earlier");
        }
    }

    #[test]
    fn rush_profile_targets_downtown() {
        let (g, _) = setup(16);
        let cfg = MobilityConfig::rush_hour();
        let downtown = cfg.downtown_regions(g.regions());
        let horizon = SimDuration::from_secs(30);
        let mut reached = 0;
        let mut rush = 0;
        for id in 0..64u32 {
            let t = VehicleTrack::new(
                id,
                id % g.regions(),
                &cfg,
                &g,
                horizon,
                SeedFactory::new(5).indexed_stream("fleet-mobility", u64::from(id)),
            );
            if t.profile() == RouteProfile::RushHour {
                rush += 1;
                if t.work < downtown {
                    reached += 1;
                }
            }
        }
        assert!(rush > 32, "rush_hour mix is rush-dominated");
        assert_eq!(reached, rush, "every rush destination is downtown");
    }
}
