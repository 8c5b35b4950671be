//! Experiment T1 — Table 1, re-measured, as two declarative sweeps:
//!
//! * `static`: every static overlay structure from the related work (H_d
//!   graph, SPARTAN-style butterfly, Chord with swarms, a static LDS) on the
//!   kind axis × an oblivious and a topology-aware adversary on the adversary
//!   axis, all attacked with the same `n/4` churn burst;
//! * `maintained`: the paper's LDS through the full message-level protocol
//!   against the 2-late targeted adversary.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use tsa_analysis::{fmt_bool, fmt_f, Table};
use tsa_bench::{experiment_spec, finish, run_sweeps, ExpArgs, Extra};
use tsa_scenario::{AdversarySpec, BaselineKind, ChurnSpec, ScenarioKind, ScenarioSpec};
use tsa_sweep::{RoundsSpec, SweepSpec};

fn main() {
    let exp = "exp_table1";
    let args = ExpArgs::parse(
        exp,
        "Table 1: adversary-model comparison, re-measured",
        &[Extra::Full, Extra::Threads, Extra::Trace],
    );
    let n = 256usize;

    let static_sweep = SweepSpec::new(
        "static",
        ScenarioSpec::new(ScenarioKind::Baseline(BaselineKind::HdGraph), n),
    )
    .over_kinds([
        ScenarioKind::Baseline(BaselineKind::HdGraph),
        ScenarioKind::Baseline(BaselineKind::Spartan),
        ScenarioKind::Baseline(BaselineKind::ChordSwarm),
        ScenarioKind::Baseline(BaselineKind::StaticLds),
    ])
    .over_churn([ChurnSpec::fraction(1, 4)])
    .over_adversaries([AdversarySpec::random(1, 11), AdversarySpec::targeted(1, 11)])
    .seeds(11, 1);

    let mut maintained_base = experiment_spec(96);
    maintained_base.churn = ChurnSpec::fraction(1, 4);
    maintained_base.adversary = AdversarySpec::targeted(2, 5);
    let maintained = SweepSpec::new("maintained", maintained_base)
        .rounds(RoundsSpec::MaturityAges(2))
        .seeds(3, 1);

    let runs = run_sweeps(exp, &args, vec![static_sweep, maintained]);

    // The paper-shaped exhibit: one row per overlay, random vs targeted burst
    // side by side, with the maintained protocol last.
    let budget = n / 4;
    let mut table = Table::new(
        &format!("Table 1 (measured): survival of a {budget}-node churn burst, n = {n}"),
        &[
            "overlay",
            "maintenance",
            "largest comp (random churn)",
            "largest comp (targeted churn)",
            "nodes lost to targeted churn (removed + eclipsed)",
            "budget to eclipse one node",
        ],
    );
    // Pair each overlay's random and targeted trials by their specs (not by
    // position, which would silently break if the sweep gained replicates).
    let mut rows: Vec<(&str, [Option<tsa_scenario::BaselineOutcome>; 2])> = Vec::new();
    for record in &runs[0].records {
        let label = record.outcome.spec.kind_label();
        let slot = match record.outcome.spec.adversary {
            AdversarySpec::Random { .. } => 0,
            _ => 1,
        };
        match rows.iter_mut().find(|(l, _)| *l == label) {
            Some((_, pair)) => pair[slot] = record.outcome.baseline,
            None => {
                let mut pair = [None, None];
                pair[slot] = record.outcome.baseline;
                rows.push((label, pair));
            }
        }
    }
    for (label, [random, targeted]) in rows {
        let rb = random.expect("random-adversary trial present");
        let tb = targeted.expect("targeted-adversary trial present");
        table.row(vec![
            label.to_string(),
            "static".to_string(),
            fmt_f(rb.resilience.largest_component_fraction),
            fmt_f(tb.resilience.largest_component_fraction),
            format!(
                "{} + {}",
                tb.resilience.removed, tb.resilience.isolated_survivors
            ),
            tb.eclipse_budget.to_string(),
        ]);
    }
    let protocol = &runs[1].records[0].outcome;
    let report = &protocol
        .maintenance
        .as_ref()
        .expect("maintained cell")
        .report;
    let unwired = report.mature_count - report.participating;
    table.row(vec![
        "LDS + maintenance (this paper)".to_string(),
        "rebuilt every 2 rounds".to_string(),
        "-".to_string(),
        format!(
            "{} ({})",
            fmt_f(report.largest_component_fraction),
            fmt_bool(report.connected)
        ),
        format!(
            "{} churned + {} unwired",
            report
                .node_count
                .saturating_sub(report.participating)
                .min(protocol.spec.n),
            unwired
        ),
        "unbounded (positions relocate every 2 rounds)".to_string(),
    ]);
    println!("{}", table.to_markdown());
    println!(
        "Reading: every structure keeps a giant component under a single oblivious burst, but\n\
         against a *static* overlay a topology-aware adversary (which is what 2-lateness means\n\
         when the topology never changes) only needs a budget equal to one node's fixed\n\
         neighbourhood to eclipse it — a handful of removals for the constant-degree H_d graph,\n\
         Θ(log n) for the committee/swarm structures — and it can repeat this every window.\n\
         The maintained LDS (n = 96, full message-level protocol, same 2-late targeted\n\
         adversary) offers no such static target: the neighbourhood it observes is stale two\n\
         reconfigurations later, and every mature node stays wired in."
    );
    finish(exp, &args, &runs, serde_json::Value::Null);
}
