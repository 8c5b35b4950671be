//! Experiment E4/E5 — Lemmas 9–12: `A_ROUTING` delivery rate, exact dilation
//! `2λ+2`, congestion `O(k log n)` (a declarative n × k sweep with seed
//! replicates), and trajectory-crossing counts (a bespoke Lemma 12 check).

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use serde::Serialize;

use tsa_analysis::{fmt_f, Table};
use tsa_bench::{finish, run_sweeps, ExpArgs, Extra};
use tsa_overlay::{Interval, OverlayParams, Position};
use tsa_routing::{trajectory_crossings, uniform_workload, RoutableSeries};
use tsa_scenario::{ScenarioKind, ScenarioSpec};
use tsa_sim::NodeId;
use tsa_sweep::SweepSpec;

/// One measured trajectory-crossing row (Lemma 12).
#[derive(Serialize)]
struct CrossingRow {
    step: usize,
    measured: usize,
    predicted: f64,
}

fn main() {
    let exp = "exp_routing";
    let args = ExpArgs::parse(
        exp,
        "Lemmas 9-12: delivery, dilation, congestion, crossings",
        &[Extra::Full, Extra::Threads, Extra::Trace],
    );

    // Lemma 9: delivery + dilation + congestion over the n × k grid, three
    // seed replicates per cell for confidence intervals.
    let mut base = ScenarioSpec::new(ScenarioKind::Routing, 128);
    base.replication = Some(4);
    base.holder_failure = 0.25;
    let grid = SweepSpec::new("grid", base)
        .over_n([128, 256, 512])
        .over_messages_per_node([1, 4])
        .seeds(7, 3);
    let runs = run_sweeps(exp, &args, vec![grid]);

    // Lemma 12: trajectory crossings of an interval vs the k·n·|I| prediction
    // (structure-level, not a Scenario — stays bespoke).
    let n = 512usize;
    let params = OverlayParams::with_default_c(n);
    let series = RoutableSeries::new(params, 9, (0..n as u64).map(NodeId));
    let k = 2usize;
    let msgs = uniform_workload(&series, k, 13);
    let overlay = series.overlay(0);
    let interval = Interval::around(Position::new(0.42), 0.05);
    let expected = k as f64 * n as f64 * interval.length();
    let mut crossings: Vec<CrossingRow> = Vec::new();
    let mut table = Table::new(
        "Lemma 12 (measured): trajectories crossing an interval of length 0.1 (n = 512, k = 2)",
        &[
            "trajectory step j",
            "measured crossings",
            "predicted k·n·|I|",
        ],
    );
    for j in [1usize, 3, 5, 7, params.lambda() as usize] {
        let measured = trajectory_crossings(&overlay, &msgs, j, &interval);
        table.row(vec![j.to_string(), measured.to_string(), fmt_f(expected)]);
        crossings.push(CrossingRow {
            step: j,
            measured,
            predicted: expected,
        });
    }
    println!("{}", table.to_markdown());
    finish(
        exp,
        &args,
        &runs,
        serde_json::to_value(&crossings).expect("crossing rows serialize"),
    );
}
