//! Fidelity at the experiments' own `c`: the neighbour sets the protocol
//! builds contain the LDS of Definition 5 at `n = 512`, `c = 1.5` — the
//! scale at which join requests that miss their target's swarm first cost
//! neighbours (recall 0.677, participation 0.941 with the bit order of
//! Definition 7 reversed). The tier-1 sibling
//! (`tests/maintenance_under_churn.rs`) makes the same check at `n = 256`,
//! `c = 0.75`; this one takes over a minute in a debug build.

use tsa_core::{MaintenanceHarness, MaintenanceParams};
use tsa_overlay::Lds;
use tsa_sim::NullAdversary;

#[test]
fn protocol_built_neighbor_sets_contain_the_ideal_lds_at_n_512() {
    let params = MaintenanceParams::new(512)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2);
    let mut harness = MaintenanceHarness::assemble(
        params,
        NullAdversary,
        29,
        params.paper_churn_rules(),
        params.paper_lateness(),
    );
    harness.run_bootstrap();
    harness.run(8);
    let report = harness.report();
    let snapshots = harness.snapshots();
    let lds = Lds::from_hash(
        params.overlay,
        snapshots.iter().map(|(id, _)| *id),
        harness.simulator().config().hash_seed,
        report.epoch,
    );
    let (mut ideal, mut found) = (0usize, 0usize);
    for (v, snapshot) in &snapshots {
        let neighbors = lds.neighbors(*v);
        ideal += neighbors.len();
        found += neighbors
            .iter()
            .filter(|w| snapshot.neighbors.contains(w))
            .count();
    }
    assert_eq!(found, ideal, "recall {:.3}", found as f64 / ideal as f64);
    assert_eq!(report.participation_rate, 1.0, "{report:?}");
    assert!(report.is_routable(), "{report:?}");
}
