//! The serde-serializable result of running a scenario.
//!
//! A [`ScenarioOutcome`] always carries the [`ScenarioSpec`]
//! that produced it, plus exactly one of the kind-specific payloads. The
//! experiment binaries serialize these as `BENCH_*.json`, so every published
//! number is reproducible from the spec embedded next to it.

use serde::{Deserialize, Serialize};
use tsa_baselines::ResilienceOutcome;
use tsa_core::MaintenanceReport;
use tsa_event::{FaultStats, NetStats};
use tsa_sim::{MetricsHistory, MetricsSummary};

use crate::spec::ScenarioSpec;

/// Result of a maintained-LDS scenario: the final health report, a compact
/// whole-run metrics digest, and (unless compacted away) the full per-round
/// message metrics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MaintenanceOutcome {
    /// Health of the overlay after the final round.
    pub report: MaintenanceReport,
    /// Compact whole-run digest of the message metrics — always present, and
    /// all `BENCH_*.json` stores by default.
    pub metrics_summary: MetricsSummary,
    /// Per-round message/congestion/churn metrics of the whole run. `None`
    /// after [`ScenarioOutcome::compact`]; experiment binaries keep it behind
    /// `--full`.
    pub metrics: Option<MetricsHistory>,
    /// The largest number of fresh-node connects any mature node received in
    /// the final round (the Lemma 22 quantity).
    pub max_connect_load: usize,
    /// Whole-run network-effect counters — loss, delays, and the
    /// cross-region bridge traffic of partition topologies
    /// (`bridge_sent` / `bridge_lost`). Only asynchronous executions have a
    /// network model, so this is `None` for round-engine runs and absent
    /// from their serialized form (which keeps pre-existing artifacts
    /// byte-stable).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub net_stats: Option<NetStats>,
    /// Whole-run counters of injected faults. Only present when the spec
    /// carried a [`FaultPlan`](tsa_event::FaultPlan), so fault-free outcomes
    /// (and every pre-existing artifact) keep their exact serialized form.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_stats: Option<FaultStats>,
}

/// Result of a static-baseline attack trial.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// The removal budget the attack spent.
    pub budget: usize,
    /// What was left of the structure after the attack.
    pub resilience: ResilienceOutcome,
    /// The budget a topology-aware adversary needs to eclipse the
    /// easiest-to-cut node of this *static* structure: its minimum degree.
    pub eclipse_budget: usize,
}

/// Result of an `A_ROUTING` workload over a routable series.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RoutingOutcome {
    /// Number of address bits `λ`.
    pub lambda: u32,
    /// Messages routed.
    pub total: usize,
    /// Messages delivered to their target swarm.
    pub delivered: usize,
    /// Delivered fraction.
    pub delivery_rate: f64,
    /// The dilation every delivered message took (always `2λ + 2`).
    pub dilation: u64,
    /// Maximum copies handled by one node in one round.
    pub max_congestion: usize,
    /// Mean copies per active (node, round) pair.
    pub mean_congestion: f64,
    /// Total copies created across all messages.
    pub total_copies: usize,
    /// Mean fraction of the target swarm covered, over delivered messages.
    pub mean_target_coverage: f64,
}

/// Result of an `A_SAMPLING` uniformity workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SamplingOutcome {
    /// Sampling attempts.
    pub attempts: usize,
    /// Attempts discarded by the delivery rule.
    pub discarded: usize,
    /// Empirical discard probability (Lemma 13 bounds it by `1/2 + o(1)`).
    pub discard_rate: f64,
    /// Distinct nodes selected at least once.
    pub distinct_nodes: usize,
    /// Smallest per-node hit count.
    pub hits_min: usize,
    /// Mean per-node hit count.
    pub hits_mean: f64,
    /// Largest per-node hit count.
    pub hits_max: usize,
    /// Total-variation distance to the uniform distribution.
    pub total_variation: f64,
    /// Pearson chi-square statistic against the uniform distribution.
    pub chi_square: f64,
    /// Degrees of freedom of the chi-square statistic.
    pub degrees_of_freedom: usize,
}

/// The complete, self-describing result of one scenario run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// A short human-readable description of the run.
    pub label: String,
    /// The spec that produced this outcome.
    pub spec: ScenarioSpec,
    /// Measured rounds executed after the (optional) bootstrap phase, so
    /// `Scenario::from_spec(outcome.spec).run(outcome.rounds)` replays this
    /// outcome exactly. 0 for one-shot trials.
    pub rounds: u64,
    /// Present for [`ScenarioKind::MaintainedLds`](crate::ScenarioKind) runs.
    pub maintenance: Option<MaintenanceOutcome>,
    /// Present for [`ScenarioKind::Baseline`](crate::ScenarioKind) runs.
    pub baseline: Option<BaselineOutcome>,
    /// Present for [`ScenarioKind::Routing`](crate::ScenarioKind) runs.
    pub routing: Option<RoutingOutcome>,
    /// Present for [`ScenarioKind::Sampling`](crate::ScenarioKind) runs.
    pub sampling: Option<SamplingOutcome>,
}

impl ScenarioOutcome {
    /// Whether a maintained run ended routable (always `false` for other
    /// kinds).
    pub fn is_routable(&self) -> bool {
        self.maintenance
            .as_ref()
            .map(|m| m.report.is_routable())
            .unwrap_or(false)
    }

    /// Drops the bulky per-round metrics history, keeping the
    /// [`MetricsSummary`] digest. One-shot outcomes are unchanged. This is
    /// what experiment binaries serialize by default; pass `--full` to keep
    /// the raw history. The same as [`to_compact`](Self::to_compact).
    pub fn compact(self) -> Self {
        self.to_compact()
    }

    /// A compacted copy, made without ever copying the per-round history
    /// (which for long maintained runs is megabytes the compaction would
    /// immediately drop).
    ///
    /// The digest is **re-folded from the history** whenever a history is
    /// present: the per-round congestion rows are the source of truth for
    /// the paper's Lemma 24 claim (max per-node congestion over the whole
    /// run), so the max must be recorded before the rows are dropped.
    /// Without this, an outcome whose digest went stale — assembled by hand,
    /// or deserialized from an artifact written before the digest existed —
    /// would silently lose its peak congestion in every compacted
    /// `BENCH_*.json`.
    pub fn to_compact(&self) -> Self {
        ScenarioOutcome {
            label: self.label.clone(),
            spec: self.spec.clone(),
            rounds: self.rounds,
            maintenance: self.maintenance.as_ref().map(|m| MaintenanceOutcome {
                report: m.report.clone(),
                metrics_summary: m
                    .metrics
                    .as_ref()
                    .map(|h| h.summary())
                    .unwrap_or(m.metrics_summary),
                metrics: None,
                max_connect_load: m.max_connect_load,
                net_stats: m.net_stats,
                fault_stats: m.fault_stats,
            }),
            baseline: self.baseline,
            routing: self.routing,
            sampling: self.sampling,
        }
    }

    /// Compact JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("outcome serialization is infallible")
    }

    /// Pretty JSON rendering, as written into `BENCH_*.json`.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("outcome serialization is infallible")
    }
}
