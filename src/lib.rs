//! # two-steps-ahead
//!
//! A complete reproduction of *"Always be Two Steps Ahead of Your Enemy —
//! Maintaining a Routable Overlay under Massive Churn in Networks with an
//! Almost Up-to-date Adversary"* (Götte, Ravindran Vijayalakshmi, Scheideler).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — round-synchronous simulator with an `(a,b)`-late adversary;
//! * [`event`] — deterministic virtual-time event engine: the same node
//!   logic under per-message latency, jitter and loss;
//! * [`net`] — loopback-TCP transport runtime: the same node logic over
//!   real sockets and wall-clock rounds, with a recorded message-fate trace
//!   that replays deterministically through [`event`];
//! * [`overlay`] — the Linearized DeBruijn Swarm and related topologies;
//! * [`routing`] — `A_ROUTING` and `A_SAMPLING`;
//! * [`maintenance`] — the `A_LDS` + `A_RANDOM` maintenance protocol
//!   (the paper's main contribution);
//! * [`adversary`] — attack strategies, including the Lemma 3 / Lemma 4
//!   impossibility constructions;
//! * [`baselines`] — SPARTAN-style, H_d-graph and Chord-with-swarms
//!   comparison overlays;
//! * [`analysis`] — statistics, uniformity tests and table rendering;
//! * [`obs`] — observability: deterministic counters/histograms and
//!   wall-clock phase spans, streaming metrics, progress reporting;
//! * [`dash`] — the presentation layer over [`obs`]: the flight-recorder
//!   journal, Chrome-trace/Perfetto export, the cross-PR perf trajectory
//!   and the live experiment dashboard;
//! * [`scenario`] — the fluent [`Scenario`](scenario::Scenario) builder that
//!   composes all of the above into runnable, serializable experiments;
//! * [`sweep`] — declarative parameter sweeps over `Scenario`: grid
//!   enumeration, parallel execution with streaming JSONL shards and resume,
//!   and replicate aggregation.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the reproduction results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tsa_adversary as adversary;
pub use tsa_analysis as analysis;
pub use tsa_baselines as baselines;
pub use tsa_core as maintenance;
pub use tsa_dash as dash;
pub use tsa_event as event;
pub use tsa_net as net;
pub use tsa_obs as obs;
pub use tsa_overlay as overlay;
pub use tsa_routing as routing;
pub use tsa_scenario as scenario;
pub use tsa_sim as sim;
pub use tsa_sweep as sweep;

/// The most frequently used items from across the workspace.
pub mod prelude {
    pub use tsa_adversary::{RandomChurnAdversary, TargetedSwarmAdversary};
    pub use tsa_core::{
        AsyncMaintenanceHarness, ByzantineSpec, MaintenanceHarness, MaintenanceParams,
        MaintenanceReport, MisbehaviorKind, NetMaintenanceHarness,
    };
    pub use tsa_dash::{DashConfig, JournalRecorder, RunJournal, TraceBuilder, TrajectoryRow};
    pub use tsa_event::{
        ExecutionModel, FaultAction, FaultPlan, FaultRule, LatencyModel, MessageTrace, NetModel,
        NodeSelector, PartitionSchedule, RegionAssign, RoundWindow, Topology,
    };
    pub use tsa_net::{NetConfig, NetRunner};
    pub use tsa_obs::{ObsHandle, ObsRecorder, ProgressSnapshot, Reporter};
    pub use tsa_overlay::{Lds, OverlayParams, Position};
    pub use tsa_routing::{RoutableSeries, RoutingConfig, RoutingSim};
    pub use tsa_scenario::{
        AdversarySpec, BaselineKind, ChurnSpec, MetricsMode, Scenario, ScenarioOutcome, ScenarioRun,
    };
    pub use tsa_sim::prelude::*;
    pub use tsa_sweep::{aggregate, RoundsSpec, SweepAggregate, SweepRunner, SweepSpec};
}
