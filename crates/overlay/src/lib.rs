//! # tsa-overlay — the Linearized DeBruijn Swarm and friends
//!
//! Topology layer of the reproduction of *"Always be Two Steps Ahead of Your
//! Enemy"*. It provides:
//!
//! * [`Position`] / [`Interval`]: arithmetic on the `[0,1)` ring (Section 3);
//! * [`OverlayParams`]: `n`, `κ`, `c` and every derived quantity (`λ`, swarm
//!   radius, maturity age, churn window, dilation);
//! * [`SwarmIndex`]: efficient wrap-around range queries over node positions;
//! * [`Lds`]: the Linearized DeBruijn Swarm of Definition 5 with swarm-property
//!   and goodness checks (Lemma 6, Definition 8);
//! * [`Ldg`]: the classical Linearized DeBruijn Graph baseline;
//! * [`Trajectory`]: Definition 7, the backbone of the routing algorithm;
//! * [`rules`]: the per-copy decisions of `A_ROUTING` and `A_SAMPLING` (the
//!   hop, the Δ range, the delivery rule), once, for the protocol and the
//!   Lemma 13 sampler alike;
//! * [`OverlayGraph`]: graph snapshots with connectivity and degree analysis.
//!
//! ```
//! use tsa_overlay::{Lds, OverlayParams, Position};
//! use tsa_sim::NodeId;
//! use rand::SeedableRng;
//!
//! let params = OverlayParams::with_default_c(64);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let lds = Lds::random(params, (0..64).map(NodeId), &mut rng);
//! assert!(lds.to_graph().is_connected());
//! assert!(lds.swarm_property_holds_at(Position::new(0.25)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod graph;
pub mod interval;
pub mod ldg;
pub mod lds;
pub mod params;
pub mod position;
pub mod rules;
pub mod swarm;
pub mod trajectory;

pub use graph::OverlayGraph;
pub use interval::Interval;
pub use ldg::Ldg;
pub use lds::{GoodnessStats, Lds};
pub use params::{OverlayParams, Radii};
pub use position::{ring_distance, Position};
pub use swarm::SwarmIndex;
pub use trajectory::{step_bit, Trajectory};
