//! # tsa-scenario — one fluent entry point for every experiment
//!
//! Every layer of the reproduction — overlay parameters, maintenance
//! protocol, churn rules, adversary strategy, lateness, routing and sampling
//! workloads, and the Table-1 baseline structures — is composed behind a
//! single type-safe builder:
//!
//! ```
//! use tsa_scenario::{AdversarySpec, ChurnSpec, Scenario};
//!
//! let outcome = Scenario::maintained_lds(48)
//!     .with_c(1.5)
//!     .with_tau(4)
//!     .with_replication(2)
//!     .churn(ChurnSpec::budget(12))
//!     .adversary(AdversarySpec::targeted(2, 6))
//!     .seed(11)
//!     .run(40);
//! assert!(outcome.maintenance.is_some());
//! ```
//!
//! [`Scenario::run`] executes the whole scenario and returns a
//! serde-serializable [`ScenarioOutcome`] (the experiment binaries dump these
//! as `BENCH_*.json`); [`Scenario::build`] instead hands back a live
//! [`ScenarioRun`] for experiments that need to observe the overlay while it
//! runs. The builder sits directly on `MaintenanceHarness::assemble`, so
//! fixed seeds produce byte-identical reports through either path.
//!
//! Maintained scenarios additionally choose their *execution engine* through
//! [`ExecutionModel`]: the synchronous round model (default), or the
//! virtual-time event engine of `tsa-event` under a per-message
//! latency/jitter/loss model:
//!
//! ```no_run
//! use tsa_scenario::{ExecutionModel, LatencyModel, Scenario};
//!
//! let outcome = Scenario::maintained_lds(48)
//!     .with_c(1.5)
//!     .with_tau(4)
//!     .with_replication(2)
//!     .execution(ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800)))
//!     .seed(7)
//!     .run(8);
//! assert!(outcome.maintenance.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod outcome;
pub mod spec;

pub use builder::{Scenario, ScenarioRun};
pub use outcome::{
    BaselineOutcome, MaintenanceOutcome, RoutingOutcome, SamplingOutcome, ScenarioOutcome,
};
pub use spec::{AdversarySpec, BaselineKind, ChurnSpec, ScenarioKind, ScenarioSpec};
// The execution-model and fault-injection vocabulary every spec embeds,
// re-exported so scenario consumers need no direct tsa-event dependency.
pub use tsa_event::{
    ExecutionModel, FaultAction, FaultPlan, FaultRule, FaultStats, LatencyModel, NetModel,
    NetStats, NodeSelector, PartitionSchedule, RegionAssign, RoundWindow, Topology,
};
// The byzantine-role vocabulary, re-exported for the same reason.
pub use tsa_core::{ByzantineSpec, MisbehaviorKind};
// The metrics-mode vocabulary every spec embeds, re-exported for the same
// reason.
pub use tsa_sim::MetricsMode;
