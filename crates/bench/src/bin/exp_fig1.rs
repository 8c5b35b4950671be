//! Experiment F1 — Figure 1 (the LDS neighbourhood sketch), reproduced as
//! measured structure: per-node edge counts towards `S(v)`, `S(v/2)` and
//! `S((v+1)/2)`, swarm-size statistics and an exhaustive swarm-property check.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use tsa_analysis::{fmt_f, Summary, Table};
use tsa_bench::{publish, Compared, ExpArgs};
use tsa_overlay::{Lds, OverlayParams, Position};
use tsa_sim::NodeId;

/// One measured row of the Figure-1 reproduction.
#[derive(Serialize)]
struct Fig1Row {
    n: usize,
    lambda: u32,
    swarm_size_mean: f64,
    swarm_size_min: f64,
    list_edges_per_node: f64,
    long_distance_edges_per_node: f64,
    total_degree: f64,
    swarm_property_violations: usize,
    swarm_property_checks: usize,
}

fn main() {
    // Structure-level measurement (no scenarios to sweep); the shared flags
    // still apply for --out/--help uniformity across the exp_* binaries.
    let exp = "exp_fig1";
    let args = ExpArgs::parse(
        exp,
        "Figure 1: LDS neighbourhood structure, measured (structure-level, \
         no scenario sweep: --full and --threads are accepted but no-ops)",
        &[],
    );
    let mut rows: Vec<Fig1Row> = Vec::new();
    let mut table = Table::new(
        "Figure 1 (measured): LDS neighbourhood structure",
        &[
            "n",
            "lambda",
            "swarm size (mean/min)",
            "list edges/node",
            "long-distance edges/node",
            "total degree",
            "swarm property violations",
        ],
    );
    for &n in &[256usize, 1024, 4096] {
        let params = OverlayParams::with_default_c(n);
        let mut rng = ChaCha8Rng::seed_from_u64(42 + n as u64);
        let lds = Lds::random(params, (0..n as u64).map(NodeId), &mut rng);

        let swarm_sizes = Summary::of_counts(lds.index().swarm_size_distribution(&params));
        let list: Vec<usize> = lds.members().map(|v| lds.list_neighbors(v).len()).collect();
        let db: Vec<usize> = lds
            .members()
            .map(|v| lds.debruijn_neighbors(v).len())
            .collect();
        let total: Vec<usize> = lds.members().map(|v| lds.neighbors(v).len()).collect();

        // Probe the swarm property at many points against one precomputed
        // adjacency instead of re-deriving each probe's neighbour sets — the
        // sweep is identical in outcome but runs in a fraction of the time
        // (see the "Performance model" chapter of DESIGN.md).
        let neighbor_sets = lds.neighbor_sets();
        let checks = 2_000usize;
        let mut violations = 0usize;
        for _ in 0..checks {
            let p = Position::new(rng.gen::<f64>());
            if !lds.swarm_property_holds_at_with(p, &neighbor_sets) {
                violations += 1;
            }
        }

        let row = Fig1Row {
            n,
            lambda: params.lambda(),
            swarm_size_mean: swarm_sizes.mean,
            swarm_size_min: swarm_sizes.min,
            list_edges_per_node: Summary::of_counts(list).mean,
            long_distance_edges_per_node: Summary::of_counts(db).mean,
            total_degree: Summary::of_counts(total).mean,
            swarm_property_violations: violations,
            swarm_property_checks: checks,
        };
        table.row(vec![
            row.n.to_string(),
            row.lambda.to_string(),
            format!(
                "{} / {}",
                fmt_f(row.swarm_size_mean),
                fmt_f(row.swarm_size_min)
            ),
            fmt_f(row.list_edges_per_node),
            fmt_f(row.long_distance_edges_per_node),
            fmt_f(row.total_degree),
            format!("{violations} / {checks}"),
        ]);
        rows.push(row);
    }
    println!("{}", table.to_markdown());
    println!(
        "Every node is connected to the whole swarm around its own position (list edges)\n\
         and around both de Bruijn images of its position (long-distance edges), so every\n\
         swarm is adjacent to its image swarms — the structure sketched in Figure 1."
    );
    // Fixed seeds, one grid, no timing section: the artifact is machine-
    // invariant in full.
    publish(exp, &args, &rows, Compared::Whole, Vec::new(), Ok(()));
}
