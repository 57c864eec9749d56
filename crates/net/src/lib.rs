//! # vdap-net — vehicular network substrate
//!
//! Everything the paper's connectivity story needs: link models for the
//! radios and backhaul OpenVDAP carries (§IV-A), a mobility trace, a
//! cellular channel whose loss behaviour is calibrated against the
//! paper's Figure 2 drive test, the H.264/RTP video-streaming model that
//! makes the figure's frame-loss amplification *emerge* from the GOP
//! key-frame rule, and the vehicle/edge/cloud topology used by the
//! offloading planner.
//!
//! ```
//! use vdap_net::{CellularChannel, Mph, Resolution, stream_clip, VideoStreamSpec};
//! use vdap_sim::{SeedFactory, SimDuration, SimTime};
//!
//! let channel = CellularChannel::calibrated();
//! let spec = VideoStreamSpec::paper_encoding(Resolution::P1080);
//! let mut loss = channel.loss_process(
//!     Mph(70.0),
//!     Resolution::P1080.bitrate_mbps(),
//!     SeedFactory::new(7).stream("uplink"),
//! );
//! let stats = stream_clip(&spec, &mut loss, SimTime::ZERO, SimDuration::from_secs(60));
//! assert!(stats.frame_loss_rate() > 0.9); // 70 MPH 1080P is unusable (Fig. 2)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cellular;
mod contact;
mod link;
mod mobility;
mod topology;
mod video;

pub use cellular::{
    CellularChannel, LossProcess, FIG2_FRAME_LOSS, FIG2_PACKET_LOSS, STORM_HANDOFF_MULTIPLIER,
};
pub use contact::{ContactTracker, ContactWindow, DsrcRadio};
pub use link::{Direction, LinkKind, LinkSpec};
pub use mobility::{Miles, MobilityTrace, Mph, Segment};
pub use topology::{NetTopology, Site};
pub use video::{stream_clip, Resolution, StreamStats, VideoStreamSpec};
