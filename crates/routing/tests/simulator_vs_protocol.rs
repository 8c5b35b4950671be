//! The one place the Lemma 9–12 simulator and the protocol decide a hop
//! differently (see `tsa_overlay::rules`): the protocol's hop picks up to `r`
//! *distinct* members of the next swarm, `RoutingSim::transfer` makes `r`
//! draws *with* replacement. `BENCH_exp_routing.json` and
//! `BENCH_exp_ablation.json` record the latter. Delete this test in the
//! change that closes the difference (and regenerates those two artifacts).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsa_overlay::rules::{hop, Placed};
use tsa_overlay::{OverlayParams, Trajectory};
use tsa_routing::{uniform_workload, RoutableSeries, RoutingConfig, RoutingSim};
use tsa_sim::NodeId;

#[test]
fn a_hop_reaches_r_distinct_members_where_transfer_may_repeat_one() {
    let (n, r) = (64usize, 4usize);
    let params = OverlayParams::with_default_c(n);
    let series = RoutableSeries::new(params, 1234, (0..n as u64).map(NodeId));
    let d0 = series.overlay(0);
    let everyone: Vec<Placed> = d0.index().iter().map(|(id, p)| (id, p.value())).collect();

    // A message that dies in round 3 lost every holder in its first
    // handover, so its copies are the source swarm plus whoever the first
    // forwarding step reached: that step's distinct receivers can be read
    // off the public outcome. Nine holders in ten fail, so the step is often
    // one survivor's `r` draws.
    let config = RoutingConfig::default()
        .with_replication(r)
        .with_holder_failure(0.9)
        .with_seed(5);
    let messages = uniform_workload(&series, 4, 9);
    let report = RoutingSim::new(&series, config).route_all(0, &messages);

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let (mut checked, mut repeated) = (0, 0);
    for (spec, outcome) in messages.iter().zip(&report.outcomes) {
        let source = d0.position(spec.source).expect("a member of the series");
        let x1 = Trajectory::compute(source, spec.target, params.lambda()).point(1);
        if outcome.rounds != 3 || d0.swarm(x1).len() < r {
            continue;
        }
        checked += 1;
        let reached = outcome.copies - d0.swarm(source).len();
        assert!(
            reached >= 1,
            "a message that reached nobody dies in round 2"
        );
        repeated += usize::from(reached < r);

        // The protocol's hop into the same swarm.
        let mut members = Vec::new();
        let to = hop(
            &everyone,
            x1.value(),
            params.swarm_radius(),
            r,
            &mut members,
            &mut rng,
        );
        let mut distinct = to.to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!((to.len(), distinct.len()), (r, r));
    }
    assert!(checked >= 20, "only {checked} messages died in round 3");
    assert!(
        repeated > 0,
        "no first step reached fewer than r = {r} members of a swarm that has \
         them: transfer no longer draws with replacement"
    );
}
