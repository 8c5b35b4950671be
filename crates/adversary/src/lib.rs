//! # tsa-adversary — attack strategies for the `(a,b)`-late churn model
//!
//! Concrete implementations of the [`tsa_sim::Adversary`] trait:
//!
//! * [`RandomChurnAdversary`] — oblivious uniform churn (the control group);
//! * [`TargetedSwarmAdversary`] / [`DegreeAttackAdversary`] — the strongest
//!   attacks a topology-late adversary can mount: wipe out observed
//!   neighbourhoods or hubs;
//! * [`IsolateNewcomerAdversary`] — the Lemma 3 impossibility strategy that a
//!   `(0,∞)`-late adversary uses to cut a newcomer off;
//! * [`JoinChainAdversary`] — the Lemma 4 impossibility strategy exploiting a
//!   weakened join rule;
//! * [`ErodeOldGuardAdversary`] — background erosion of the stable core, used
//!   as a building block by the impossibility experiments.
//!
//! Every strategy only acts through the lateness-filtered
//! [`tsa_sim::KnowledgeView`], so an experiment that hands the same strategy a
//! different lateness automatically measures how much that knowledge is worth.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod isolate;
pub mod join_chain;
pub mod random_churn;
pub mod targeted;
pub mod util;

pub use isolate::{victim_is_isolated, ErodeOldGuardAdversary, IsolateNewcomerAdversary};
pub use join_chain::JoinChainAdversary;
pub use random_churn::RandomChurnAdversary;
pub use targeted::{DegreeAttackAdversary, TargetedSwarmAdversary};
