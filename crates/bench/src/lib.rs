//! # tsa-bench — the experiment binaries and their shared driver
//!
//! Each binary in `src/bin/` regenerates one exhibit of the paper (or one
//! quantitative claim of a lemma/theorem) as a grid and a table: a thin set
//! of [`tsa_sweep::SweepSpec`] declarations (or a grid of its own) over the
//! shared [`cli`] flags and the shared [`driver`] (shards, resume,
//! aggregation, and the one [`publish`] tail that writes `BENCH_<exp>.json`
//! and gates it under `--compare`). `EXPERIMENTS.md` in the repository root
//! records the outputs; the artifact of a sweep-driven binary is a
//! [`BenchDoc`] (sweep aggregates plus compacted cell records), so the
//! results are diffable across PRs. Claims about wall-clock cost
//! are the `benchmark/` package's; `exp_perf` adds the `n × threads` grid.
//!
//! | binary            | exhibit / claim |
//! |--------------------|-----------------|
//! | `exp_table1`       | Table 1 — adversary-model comparison, measured as survival under a 2-late targeted attack |
//! | `exp_fig1`         | Figure 1 — LDS neighbourhood structure (swarm sizes, edge counts, swarm property) |
//! | `exp_routing`      | Lemmas 9–12 — delivery, dilation `2λ+2`, congestion `O(k log n)`, trajectory crossings |
//! | `exp_sampling`     | Lemma 13 — sampling uniformity and discard probability |
//! | `exp_maintenance`  | Theorem 14, Lemmas 16/17/20/22/24 — routability under churn, lateness ablation, connect load, congestion scaling |
//! | `exp_ablation`     | Robustness parameter `c`, replication `r` sweeps |
//! | `exp_async`        | Survival and congestion under bounded-delay asynchrony (latency/jitter/loss regimes vs the synchronous baseline) |
//! | `exp_partition`    | Regional partitions: bridge latency × loss survival grid, scheduled healing, the reconnection probe |
//! | `exp_perf`         | The maintained overlay over `n × threads`: exact message counts (CI byte-compares them) plus wall-clock rounds/s and peak RSS |
//! | `exp_net`          | The overlay over loopback TCP: wall-clock throughput, bytes on the wire, and the deterministic-twin replay check |
//! | `exp_profile`      | The `tsa-obs` observability layer: deterministic counters/histograms per scheduler (CI byte-compares them), the journal streams and the transport's twin-counter pin |
//! | `exp_byzantine`    | Byzantine nodes and injected faults: zero-fraction anchors, per-kind breaking points of the swarm property, the cross-engine fault twin |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod driver;

pub use cli::{ExpArgs, Extra};
pub use compare::{compare_artifact, CompareReport};
pub use driver::{
    bench_artifact_path, bench_doc, finish, list_cells, list_grid, publish, run_sweeps, shard_path,
    BenchDoc, Compared,
};

use tsa_core::MaintenanceParams;
use tsa_scenario::{Scenario, ScenarioSpec};

/// Maintenance-protocol parameters used across the experiments: slightly
/// reduced constants (`c`, `τ`, `r`) keep the message volume manageable while
/// preserving every qualitative property.
pub fn experiment_params(n: usize) -> MaintenanceParams {
    MaintenanceParams::new(n)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

/// The maintained-LDS scenario all experiments start from: the same reduced
/// constants as [`experiment_params`], expressed through the builder.
pub fn experiment_scenario(n: usize) -> Scenario {
    Scenario::maintained_lds(n)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

/// The maintained-LDS spec all sweeps start from: [`experiment_scenario`] as
/// plain data, ready for `SweepSpec` axes.
pub fn experiment_spec(n: usize) -> ScenarioSpec {
    experiment_scenario(n).spec().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_params_scale() {
        let small = experiment_params(64);
        let large = experiment_params(256);
        assert!(large.lambda() > small.lambda());
        assert_eq!(small.replication, 2);
    }

    #[test]
    fn experiment_scenario_matches_experiment_params() {
        let scenario = experiment_scenario(96);
        assert_eq!(scenario.spec().maintenance_params(), experiment_params(96));
    }
}
