//! Integration tests for Theorem 14: the maintenance protocol keeps the
//! overlay routable under adversarial churn, fresh nodes are integrated, and
//! the adversary's 2-late topology knowledge buys it nothing. All scenarios
//! are composed through the `Scenario` builder.

use two_steps_ahead::prelude::*;
use two_steps_ahead::scenario::ScenarioRun;

fn small_scenario() -> Scenario {
    Scenario::maintained_lds(48)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

fn run_with(adversary: AdversarySpec, rounds: u64) -> ScenarioRun {
    // Budget: n/4 churn events per churn window — four times the paper's
    // α = 1/16 rate, applied gradually.
    let mut run = small_scenario()
        .churn(ChurnSpec::budget(48 / 4))
        .adversary(adversary)
        .seed(11)
        .build();
    run.run_bootstrap();
    run.run(rounds);
    run
}

#[test]
fn overlay_stays_connected_under_random_churn() {
    let maturity_age = small_scenario().spec().maintenance_params().maturity_age();
    let run = run_with(AdversarySpec::random(2, 5), 3 * maturity_age);
    let report = run.report();
    assert!(
        report.largest_component_fraction > 0.9,
        "random churn must not shatter the overlay: {report:?}"
    );
    assert!(report.participation_rate > 0.8, "{report:?}");
    assert!(report.min_swarm_size > 0, "{report:?}");
}

#[test]
fn overlay_stays_connected_under_targeted_churn() {
    let maturity_age = small_scenario().spec().maintenance_params().maturity_age();
    let run = run_with(AdversarySpec::targeted(2, 6), 3 * maturity_age);
    let report = run.report();
    assert!(
        report.largest_component_fraction > 0.9,
        "a 2-late targeted adversary must do no better than random churn (Lemma 16): {report:?}"
    );
}

#[test]
fn churned_in_nodes_eventually_join_the_overlay() {
    let maturity_age = small_scenario().spec().maintenance_params().maturity_age();
    let run = run_with(AdversarySpec::random(2, 7), 4 * maturity_age);
    let snapshots = run.snapshots();
    let late_joiners: Vec<_> = snapshots
        .iter()
        .filter(|(_, s)| !s.genesis && s.mature)
        .collect();
    assert!(
        !late_joiners.is_empty(),
        "the run must contain nodes that joined after the bootstrap and matured"
    );
    let integrated = late_joiners.iter().filter(|(_, s)| s.participating).count();
    assert!(
        integrated * 2 >= late_joiners.len(),
        "at least half of the matured late joiners must be wired into the overlay \
         ({integrated}/{})",
        late_joiners.len()
    );
}

#[test]
fn congestion_stays_polylogarithmic() {
    let params = small_scenario().spec().maintenance_params();
    let run = run_with(AdversarySpec::random(2, 8), 2 * params.maturity_age());
    let lambda = params.lambda() as usize;
    let peak = run.metrics_summary().peak_congestion;
    // Lemma 24: O(log^3 n) messages per node and round. With the small
    // constants used in tests the peak must stay well below n * λ and within a
    // modest multiple of λ^3.
    assert!(
        peak < 60 * lambda * lambda * lambda,
        "peak congestion {peak} is not O(log^3 n) (λ = {lambda})"
    );
}

#[test]
fn fresh_nodes_are_known_by_mature_nodes() {
    // Lemma 20/22: every fresh node connects to Θ(δ) mature nodes and no
    // mature node is overloaded with connects.
    let params = small_scenario().spec().maintenance_params();
    let run = run_with(AdversarySpec::random(2, 9), 2 * params.maturity_age());
    let connect_load = run.connect_load();
    let max_load = connect_load.values().copied().max().unwrap_or(0);
    assert!(
        max_load <= 2 * params.delta + params.connect_slots(),
        "a mature node received {max_load} connects, far above 2δ = {}",
        params.connect_slots()
    );
}

/// Fidelity: the neighbour sets the protocol builds are the LDS of
/// Definition 5, not merely a connected graph. A join request that does not
/// end in its target's swarm (Definition 7) is announced to the wrong
/// responsibility intervals, and the introductions never happen — invisible
/// while the radii cover most of the ring, so this runs at c = 0.75, where
/// they do not.
#[test]
fn protocol_built_neighbor_sets_contain_the_ideal_lds() {
    let mut run = Scenario::maintained_lds(256)
        .with_c(0.75)
        .with_tau(4)
        .with_replication(2)
        .churn(ChurnSpec::none())
        .seed(29)
        .build();
    run.run_bootstrap();
    run.run(8);
    let report = run.report();
    let snapshots = run.snapshots();
    let lds = Lds::from_hash(
        run.params().overlay,
        snapshots.iter().map(|(id, _)| *id),
        run.simulator().config().hash_seed,
        report.epoch,
    );
    for (v, snapshot) in &snapshots {
        let missing: Vec<NodeId> = lds
            .neighbors(*v)
            .into_iter()
            .filter(|w| !snapshot.neighbors.contains(w))
            .collect();
        assert!(
            missing.is_empty(),
            "{v} lacks its Definition-5 neighbours {missing:?}"
        );
    }
    assert_eq!(report.participation_rate, 1.0, "{report:?}");
    assert!(report.is_routable(), "{report:?}");
}

#[test]
fn scenario_outcome_captures_the_run() {
    let run = run_with(AdversarySpec::targeted(2, 6), 20);
    let outcome = run.into_outcome();
    assert!(outcome.maintenance.is_some());
    let json = outcome.to_json();
    assert!(json.contains("\"Targeted\""), "spec embedded in outcome");
}
