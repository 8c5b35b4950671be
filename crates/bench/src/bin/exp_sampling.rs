//! Experiment E6 — Lemma 13: `A_SAMPLING` chooses every node with the same
//! probability and discards at most half of all attempts — a declarative
//! sweep over the size axis with seed replicates.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use tsa_bench::{finish, run_sweeps, ExpArgs};
use tsa_scenario::{ScenarioKind, ScenarioSpec};
use tsa_sweep::SweepSpec;

fn main() {
    let exp = "exp_sampling";
    let args = ExpArgs::parse(exp, "Lemma 13: A_SAMPLING uniformity and discard rate", &[]);

    let uniformity = SweepSpec::new("uniformity", ScenarioSpec::new(ScenarioKind::Sampling, 128))
        .over_n([128, 256, 512])
        .seeds(21, 3);
    let runs = run_sweeps(exp, &args, vec![uniformity]);

    println!(
        "Every node is hit, hit counts concentrate around the mean, the total-variation\n\
         distance to the uniform distribution is small, and the discard rate stays at the\n\
         Lemma 13 bound of one half."
    );
    finish(exp, &args, &runs, serde_json::Value::Null);
}
