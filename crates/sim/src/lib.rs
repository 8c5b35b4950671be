//! # tsa-sim — round-synchronous network simulator with an `(a,b)`-late adversary
//!
//! This crate is the substrate on which the reproduction of *"Always be Two
//! Steps Ahead of Your Enemy"* (Götte, Ravindran Vijayalakshmi, Scheideler)
//! runs. It realizes the paper's model from Section 1.1:
//!
//! * a dynamic node set `V_1, V_2, …` controlled by an adversary,
//! * synchronous rounds with receive → compute → send phases and a one-round
//!   message delay,
//! * churn applied at the beginning of each round (departures receive no
//!   messages; joins happen via bootstrap nodes that are at least two rounds
//!   old),
//! * an `(a,b)`-late omniscient adversary that sees the communication graphs
//!   with lateness `a` and node states / message contents with lateness `b`,
//! * per-round message, congestion and degree metrics.
//!
//! Protocols implement [`Process`]; adversary strategies implement
//! [`Adversary`]. One round loop ([`World`]) wires them together and enforces
//! both the adversary's knowledge limits and its churn budget; how messages
//! travel between rounds is its [`Delivery`] policy, and [`Simulator`] is the
//! world under the paper's own one-round delay ([`Lockstep`]).
//!
//! ```
//! use tsa_sim::prelude::*;
//!
//! // A trivial protocol: every node pings node 0 each round.
//! struct Pinger;
//! impl Process for Pinger {
//!     type Msg = ();
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
//!         ctx.send(NodeId(0), ());
//!     }
//! }
//!
//! let mut sim = Simulator::new(
//!     SimConfig::default(),
//!     NullAdversary,
//!     Box::new(|_, _| Pinger),
//! );
//! sim.seed_nodes(8);
//! sim.run(4);
//! assert_eq!(sim.node_count(), 8);
//! assert!(sim.metrics_summary().total_messages_sent > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod churn;
pub mod config;
pub mod engine;
pub mod ids;
pub mod in_flight;
pub mod knowledge;
pub mod message;
pub mod metrics;
pub mod node;
pub mod rng;
pub mod slot_index;
pub mod world;

pub use adversary::{Adversary, NullAdversary};
pub use churn::{
    apply_churn_plan, ChurnBudget, ChurnOutcome, ChurnPlan, ChurnRules, JoinPlan, PlanScratch,
};
pub use config::SimConfig;
pub use engine::{Lockstep, Simulator};
pub use ids::{parity, NodeId, Round, RoundParity};
pub use in_flight::InFlight;
pub use knowledge::{CommGraph, KnowledgeView, Lateness, MemberInfo, RoundRecord};
pub use message::Envelope;
pub use metrics::{
    record_round_obs, MetricsHistory, MetricsMode, MetricsSummary, RoundMetrics, StreamingMetrics,
};
pub use node::{activate, handle, run_activation, Ctx, Outbox, Process, Shared};
pub use slot_index::{SlotIndex, NO_SLOT};
pub use world::{Delivery, NodeFactory, PhaseSpans, World};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::adversary::{Adversary, NullAdversary};
    pub use crate::churn::{ChurnPlan, ChurnRules, JoinPlan};
    pub use crate::config::SimConfig;
    pub use crate::engine::Simulator;
    pub use crate::ids::{NodeId, Round};
    pub use crate::knowledge::{KnowledgeView, Lateness};
    pub use crate::message::Envelope;
    pub use crate::node::{Ctx, Process};
}
