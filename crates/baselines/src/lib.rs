//! # tsa-baselines — the Table-1 comparison overlays
//!
//! Faithful structural reimplementations of the related-work overlays the
//! paper compares against in Table 1, plus churn-resilience trials:
//!
//! * [`HdGraph`] — union of `d` random rings (Drees, Gmyr & Scheideler);
//! * [`SpartanOverlay`] — wrapped butterfly of `Θ(log n)` committees
//!   (Augustine & Sivasubramaniam);
//! * [`ChordSwarm`] — Chord with swarms (Fiat, Saia & Young);
//! * a *static* (never reconfigured) LDS is available directly from
//!   `tsa_overlay::Lds`;
//! * [`attack_trial`] — remove a churn budget randomly or targeted at a
//!   neighbourhood and measure what is left.
//!
//! Only the structures are reproduced, not the full maintenance protocols of
//! those papers: the Table-1 experiment compares what a 2-late adversary can
//! do to a topology it can observe, which depends on the structure alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord_swarm;
pub mod hdgraph;
pub mod resilience;
pub mod spartan;

pub use chord_swarm::ChordSwarm;
pub use hdgraph::HdGraph;
pub use resilience::{attack_trial, AttackMode, ResilienceOutcome};
pub use spartan::SpartanOverlay;
