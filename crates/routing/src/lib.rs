//! # tsa-routing — `A_ROUTING` and `A_SAMPLING` for the Linearized DeBruijn Swarm
//!
//! Implements Section 4 of *"Always be Two Steps Ahead of Your Enemy"*:
//!
//! * [`RoutingSim`] executes the redundant swarm-to-swarm routing algorithm
//!   `A_ROUTING` (Listing 1) over a [`RoutableSeries`] of LDS snapshots and
//!   measures delivery rate, dilation (exactly `2λ + 2`, Lemma 9) and
//!   congestion (`O(k log n)`).
//! * [`sample_many`] exercises the uniform peer-sampling algorithm
//!   `A_SAMPLING` (Listing 2, Lemma 13).
//! * [`CongestionTracker`] records per-node per-round load.
//!
//! The sampler draws Δ and delivers by [`tsa_overlay::rules`], the functions
//! the maintenance protocol in `tsa-core` calls; how [`RoutingSim`]'s hop
//! differs from the protocol's is stated there.
//!
//! ```
//! use tsa_routing::{RoutableSeries, RoutingConfig, RoutingSim, uniform_workload};
//! use tsa_overlay::OverlayParams;
//! use tsa_sim::NodeId;
//!
//! let series = RoutableSeries::new(OverlayParams::with_default_c(64), 7, (0..64).map(NodeId));
//! let sim = RoutingSim::new(&series, RoutingConfig::default());
//! let report = sim.route_all(0, &uniform_workload(&series, 1, 3));
//! assert_eq!(report.delivered, 64);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod congestion;
pub mod router;
pub mod sampling;
pub mod series;

pub use config::RoutingConfig;
pub use congestion::CongestionTracker;
pub use router::{
    trajectory_crossings, uniform_workload, MessageOutcome, MessageSpec, RoutingReport, RoutingSim,
};
pub use sampling::{sample_many, select_sample_target, SamplingReport};
pub use series::RoutableSeries;
