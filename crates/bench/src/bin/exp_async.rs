//! Experiment ASYNC — does two-steps-ahead maintenance survive asynchrony?
//!
//! The paper proves Theorem 14 in a synchronous round model. This experiment
//! re-runs the maintained overlay on `tsa-event`'s virtual-time engine under
//! per-message latency regimes and compares swarm-property survival and
//! routing congestion against the synchronous baseline, as two declarative
//! sweeps over the execution-model axis:
//!
//! * `survival`: routability / participation / minimum swarm size under
//!   `n/4`-per-window random churn, across the latency regimes;
//! * `congestion`: churn-free steady-state per-node message load (the
//!   Lemma 24 quantity), across the same regimes.
//!
//! The regimes (1000 virtual ticks = one round):
//!
//! | label                   | network |
//! |-------------------------|---------|
//! | `sync`                  | the round engine (baseline) |
//! | `async(c500)`           | constant half-round delay — provably identical to sync |
//! | `async(u200-1800+j200)` | ~one-round delays, spread across two boundaries |
//! | `async(u1000-3000)`     | one-to-three-round delays |
//! | `async(p200/800a2)`     | heavy-tailed (Pareto α=2, capped at 8 rounds) |
//! | `async(u200-1800-l0.02)`| ~one-round delays plus 2% message loss |
//!
//! `--smoke` shrinks the grid to a seconds-long CI-sized run (same regimes,
//! one `n`, one seed) whose `BENCH_exp_async.json` is byte-reproducible —
//! CI runs it twice and diffs.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use serde::Serialize;
use tsa_analysis::{fmt_bool, fmt_f, Table};
use tsa_bench::{experiment_spec, finish, run_sweeps, ExpArgs, Extra};
use tsa_scenario::{AdversarySpec, ChurnSpec, ExecutionModel, LatencyModel};
use tsa_sweep::{RoundsSpec, SweepSpec};

/// One row of the machine-readable regime comparison stored in the BENCH
/// document's `extra` field.
#[derive(Serialize)]
struct RegimeRow {
    /// Network size.
    n: usize,
    /// Execution-model label (`sync` or `async(...)`).
    execution: String,
    /// Mean routable indicator over seed replicates (1.0 = always).
    routable: f64,
    /// Mean minimum swarm size of the final report.
    min_swarm_size: f64,
    /// Mean participation rate of the final report.
    participation_rate: f64,
    /// Mean whole-run peak per-node congestion.
    peak_congestion: f64,
    /// `peak_congestion` relative to the synchronous baseline at the same n.
    peak_congestion_vs_sync: f64,
}

/// The `extra` payload of `BENCH_exp_async.json`.
#[derive(Serialize)]
struct AsyncExtra {
    /// One row per (n, execution regime) of the survival sweep.
    regimes: Vec<RegimeRow>,
}

/// The latency regimes every sweep crosses with its other axes: the
/// synchronous baseline plus five asynchronous network models.
fn regimes() -> Vec<ExecutionModel> {
    vec![
        ExecutionModel::rounds(),
        ExecutionModel::asynchronous(LatencyModel::constant(500)),
        ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800)).with_jitter(200),
        ExecutionModel::asynchronous(LatencyModel::uniform(1000, 3000)),
        ExecutionModel::asynchronous(LatencyModel::pareto(200, 800, 1, 8000)),
        ExecutionModel::asynchronous(LatencyModel::uniform(200, 1800)).with_loss(0.02),
    ]
}

fn main() {
    let exp = "exp_async";
    let args = ExpArgs::parse(
        exp,
        "maintained-overlay survival and congestion across asynchronous \
         latency/jitter/loss regimes vs the synchronous baseline",
        &[
            Extra::Smoke("CI-sized grid (a few seconds end to end)"),
            Extra::Full,
            Extra::Threads,
            Extra::Trace,
        ],
    );

    let (ns, survival_rounds, congestion_rounds, seeds): (&[usize], RoundsSpec, u64, u64) =
        if args.smoke {
            (&[48], RoundsSpec::MaturityAges(1), 4, 1)
        } else {
            (&[48, 96], RoundsSpec::MaturityAges(3), 6, 2)
        };

    let survival = SweepSpec::new("survival", experiment_spec(48))
        .over_n(ns.iter().copied())
        .over_churn([ChurnSpec::fraction(1, 4)])
        .over_adversaries([AdversarySpec::random(1, 211)])
        .over_execution(regimes())
        .rounds(survival_rounds)
        .seeds(41, seeds);

    let congestion = SweepSpec::new("congestion", experiment_spec(48))
        .over_n(ns.iter().copied())
        .over_churn([ChurnSpec::none()])
        .over_execution(regimes())
        .rounds(RoundsSpec::Fixed(congestion_rounds))
        .seeds(43, seeds);

    let runs = run_sweeps(exp, &args, vec![survival, congestion]);

    // The comparison the aggregate tables show per axis point, condensed to
    // one regime-vs-baseline table per n: did the swarm property survive,
    // and what did asynchrony cost in congestion?
    let mut table = Table::new(
        "Survival and congestion vs the synchronous baseline (survival sweep)",
        &[
            "n",
            "execution",
            "routable",
            "min swarm",
            "participation",
            "peak congestion",
            "vs sync",
        ],
    );
    let mut regimes_json = Vec::new();
    let metric = |g: &tsa_sweep::GroupSummary, name: &str| {
        g.metric(name).map(|m| m.mean).unwrap_or(f64::NAN)
    };
    let survival_agg = tsa_sweep::aggregate("survival", &runs[0].records);
    for &n in ns {
        let sync_peak = survival_agg
            .groups
            .iter()
            .find(|g| g.label.contains(&format!("n={n} ")) && !g.label.contains("exec="))
            .map(|g| metric(g, "peak_congestion"))
            .unwrap_or(f64::NAN);
        for group in survival_agg
            .groups
            .iter()
            .filter(|g| g.label.contains(&format!("n={n} ")))
        {
            let execution = group
                .label
                .split_whitespace()
                .find_map(|part| part.strip_prefix("exec="))
                .unwrap_or("sync");
            let routable = metric(group, "routable");
            let min_swarm = metric(group, "min_swarm_size");
            let participation = metric(group, "participation_rate");
            let peak = metric(group, "peak_congestion");
            table.row(vec![
                n.to_string(),
                execution.to_string(),
                fmt_bool(routable >= 1.0),
                fmt_f(min_swarm),
                fmt_f(participation),
                fmt_f(peak),
                format!("{:+.0}%", (peak / sync_peak - 1.0) * 100.0),
            ]);
            regimes_json.push(RegimeRow {
                n,
                execution: execution.to_string(),
                routable,
                min_swarm_size: min_swarm,
                participation_rate: participation,
                peak_congestion: peak,
                peak_congestion_vs_sync: peak / sync_peak,
            });
        }
    }
    println!("{}", table.to_markdown());
    println!(
        "The half-round constant regime is bit-identical to the synchronous baseline (the\n\
         round engine is the event engine's sub-round special case). The interesting rows\n\
         are the multi-round and heavy-tail regimes: maintenance messages straddle epoch\n\
         boundaries there, so survival is a genuinely new result, not a re-proof."
    );

    let extra = AsyncExtra {
        regimes: regimes_json,
    };
    finish(exp, &args, &runs, serde::Serialize::to_value(&extra));
}
