//! Experiment A1 — ablation of the two robustness knobs the design section
//! calls out, as two declarative sweeps on the standalone routing layer
//! (which isolates their effect from the rest of the protocol) under a fixed
//! 25% per-step holder failure:
//!
//! * `c`: the swarm-radius parameter at `r = 3`;
//! * `replication`: the replication factor at `c = 2`.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use tsa_bench::{finish, run_sweeps, ExpArgs, Extra};
use tsa_scenario::{ScenarioKind, ScenarioSpec};
use tsa_sweep::SweepSpec;

fn main() {
    let exp = "exp_ablation";
    let args = ExpArgs::parse(
        exp,
        "ablation: swarm-radius c and replication r sweeps",
        &[Extra::Full, Extra::Threads, Extra::Trace],
    );
    let n = 256usize;

    let mut base = ScenarioSpec::new(ScenarioKind::Routing, n);
    base.holder_failure = 0.25;

    let mut c_base = base.clone();
    c_base.replication = Some(3);
    let c_sweep = SweepSpec::new("c", c_base)
        .over_c([0.5, 1.0, 1.5, 2.0, 3.0])
        .seeds(3, 2);

    let mut r_base = base;
    r_base.c = Some(2.0);
    let r_sweep = SweepSpec::new("replication", r_base)
        .over_replication([1, 2, 3, 4, 6])
        .seeds(4, 2);

    let runs = run_sweeps(exp, &args, vec![c_sweep, r_sweep]);
    println!(
        "Small c starves swarms (delivery collapses); growing c or r buys reliability at a\n\
         linear cost in congestion — the trade-off the paper's constants encode."
    );
    finish(exp, &args, &runs, serde_json::Value::Null);
}
