//! # tsa-sweep — declarative parameter sweeps over the `Scenario` API
//!
//! The paper's claims are all *sweeps*: grids over `n`, `c`, churn rate,
//! adversary kind and seeds. This crate turns the
//! [`Scenario`](tsa_scenario::Scenario) API into an orchestration engine:
//!
//! * a serde-round-trippable [`SweepSpec`] enumerates a cartesian grid of
//!   scenario axes × a seed range into concrete
//!   [`ScenarioSpec`](tsa_scenario::ScenarioSpec)s ([`SweepSpec::enumerate`]);
//! * a parallel [`SweepRunner`] executes cells on a work-stealing pool
//!   (bounded by `TSA_THREADS` / [`SweepSpec::max_parallel`]), each cell
//!   bit-identical to a standalone `Scenario::run` at the same seed;
//! * completed cells stream to a JSONL shard file ([`CellRecord`] per line),
//!   so a killed sweep loses nothing and re-running *resumes* from the
//!   shards;
//! * [`aggregate()`] folds cell outcomes into per-axis summary tables with
//!   seed-replicate confidence intervals.
//!
//! ```
//! use tsa_scenario::{ScenarioKind, ScenarioSpec};
//! use tsa_sweep::{aggregate, SweepRunner, SweepSpec};
//!
//! let mut base = ScenarioSpec::new(ScenarioKind::Sampling, 32);
//! base.attempts = 500;
//! let sweep = SweepSpec::new("uniformity", base)
//!     .over_n([32, 64])
//!     .seeds(1, 3); // 2 × 3 = 6 cells
//! let run = SweepRunner::new(sweep).threads(2).run();
//! let summary = aggregate("uniformity", &run.records);
//! assert_eq!(summary.groups.len(), 2);
//! println!("{}", summary.to_table().to_markdown());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod executor;
pub mod shard;
pub mod spec;

pub use aggregate::{aggregate, outcome_metrics, GroupSummary, SweepAggregate};
pub use executor::{progress_sidecar_path, CellTiming, SweepRun, SweepRunner};
pub use shard::{read_shards, CellRecord};
pub use spec::{RoundsSpec, SeedRange, SweepCell, SweepSpec};
