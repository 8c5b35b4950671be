//! The healing property of partial partitions, pinned as regression tests.
//!
//! The question ISSUE 5 asks — does the overlay heal a finite partition
//! within O(1) rebuild cadences? — turns out to have a *three-regime* answer
//! at the experiment parameters (`exp_partition` measures the full grid;
//! the per-round trajectories below are deterministic and identical across
//! seeds):
//!
//! * a partition **shorter than the protocol's two-steps-ahead memory**
//!   (≤ 4 rounds at n = 48, even for a *complete* bridge cut) is absorbed
//!   wholesale — routability is not lost at the heal, so the observed
//!   reconnection bound is **0 rounds**, inside the two-cadence prediction
//!   of `2·2 + 1` rounds. The partition does leave a delayed **echo**: one
//!   maturity age later the neighbor lists built from partition-era samples
//!   become current and routability dips for a few rounds. The echo does
//!   not fade: a node that sits out an epoch starts no join request for the
//!   epoch `λ + 1` later, so the dip comes back once per pipeline period of
//!   `2(λ + 1)` rounds, with routable stretches in between (PR 17 found
//!   this; the earlier "heals completely" read one round of such a stretch);
//! * around 6–8 rounds the overlay sits on the **cliff edge**: routability
//!   oscillates with the epoch cadence and participation is scarred;
//! * a partition that clearly outlives the protocol memory (12 rounds)
//!   falls off the cliff: the epochs current after the heal were built
//!   entirely over a severed bridge, next-epoch construction routes over
//!   the broken current overlay, and the protocol — which has no
//!   retransmission — never recovers. This is the **documented
//!   counterexample** to O(1) healing; see the PARTITION section of
//!   EXPERIMENTS.md and the loss-recovery item in ROADMAP.md.
//!
//! All three regimes are pinned below (fixed seeds, deterministic engine),
//! so any protocol change that moves the cliff — in either direction —
//! shows up as a test failure rather than a silent drift of the headline
//! result.

use tsa_core::{AsyncMaintenanceHarness, MaintenanceParams};
use tsa_scenario::{
    AdversarySpec, ChurnSpec, LatencyModel, NetModel, PartitionSchedule, RegionAssign, Scenario,
    Topology,
};
use tsa_sim::NullAdversary;

fn params() -> MaintenanceParams {
    MaintenanceParams::new(48)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

/// Sub-round intra-region model: provably the synchronous engine.
fn intra() -> NetModel {
    NetModel::new(LatencyModel::constant(100))
}

/// A complete bridge cut: every cross-region message is lost.
fn cut() -> NetModel {
    NetModel {
        latency: LatencyModel::constant(1000),
        jitter: 0,
        loss: 1.0,
    }
}

/// Bootstraps a harness whose bridge is cut for `duration` rounds after
/// bootstrap; the partition window has just ended when this returns.
fn cut_partition(duration: u64, seed: u64) -> AsyncMaintenanceHarness<NullAdversary> {
    let params = params();
    let boot = params.bootstrap_rounds();
    let topology = Topology::regions_with_schedule(
        RegionAssign::halves(24),
        intra(),
        cut(),
        PartitionSchedule::window(boot, boot + duration),
    );
    let mut harness = AsyncMaintenanceHarness::assemble_with_topology(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        topology,
    );
    harness.run_bootstrap();
    harness.run(duration);
    harness
}

#[test]
fn short_partitions_are_absorbed_then_echo_once_per_pipeline_period() {
    // Observed bound, pinned: for complete cuts of 2 and 4 rounds the
    // overlay is routable at the heal boundary itself (reconnection takes 0
    // rounds, within the two-cadence prediction of 2·2 + 1 = 5) and stays
    // routable through the prediction window; the partition-era samples
    // echo as a short dip within the following maturity age; the halves talk
    // again, but the dip returns in the next pipeline period of 2(λ + 1)
    // rounds, with the overlay routable for most of that period.
    let maturity = params().maturity_age();
    let period = 2 * (params().lambda() as u64 + 1);
    for duration in [2u64, 4] {
        for seed in [41u64, 42] {
            let mut harness = cut_partition(duration, seed);
            assert!(
                harness.report().is_routable(),
                "duration {duration}, seed {seed}: routability lost at the heal: {:?}",
                harness.report()
            );
            assert!(harness.cross_region_edges() > 0);
            // Routable through the whole two-cadence prediction window.
            for offset in 1..=(2 * 2 + 1) {
                harness.step();
                assert!(
                    harness.report().is_routable(),
                    "duration {duration}, seed {seed}: dip inside the prediction \
                     window at heal + {offset}"
                );
            }
            // The delayed echo: partition-era samples surface as a
            // non-routable dip somewhere in the following maturity age...
            let mut echoed = false;
            for _ in (2 * 2 + 1)..maturity {
                harness.step();
                echoed |= !harness.report().is_routable();
            }
            assert!(
                echoed,
                "duration {duration}, seed {seed}: the maturity-age echo vanished — \
                 a protocol improvement? update EXPERIMENTS.md (PARTITION) and this pin"
            );
            // ... and again one pipeline period later, between routable
            // stretches (10 of 14 rounds after a 2-round cut, 8 to 10 after
            // a 4-round cut).
            let mut routable_rounds = 0;
            for _ in 0..period {
                harness.step();
                routable_rounds += harness.report().is_routable() as u64;
            }
            assert!(
                routable_rounds < period,
                "duration {duration}, seed {seed}: the echo no longer recurs — \
                 a protocol improvement? update EXPERIMENTS.md (PARTITION) and this pin"
            );
            assert!(
                routable_rounds >= 8,
                "duration {duration}, seed {seed}: only {routable_rounds} of {period} \
                 rounds routable in the period after the first echo"
            );
            assert!(harness.cross_region_edges() > 0, "halves talk again");
        }
    }
}

#[test]
fn six_round_partitions_sit_on_the_cliff_edge() {
    // The transition regime, pinned loosely: after a 6-round cut the
    // overlay is neither cleanly healed (participation stays scarred below
    // 0.9 one maturity age after the heal) nor fully collapsed (the giant
    // component never disappears).
    let mut harness = cut_partition(6, 41);
    let mut best_component = 0.0f64;
    let mut worst_participation = 1.0f64;
    for _ in 0..(params().maturity_age() + 6) {
        harness.step();
        let report = harness.report();
        best_component = best_component.max(report.largest_component_fraction);
        worst_participation = worst_participation.min(report.participation_rate);
    }
    let end = harness.report();
    assert!(
        end.participation_rate < 0.9,
        "the cliff edge moved: a 6-round cut now heals cleanly ({end:?}) — \
         update EXPERIMENTS.md (PARTITION) and this pin"
    );
    assert!(best_component > 0.5, "never fully collapsed either");
    assert!(worst_participation < 0.7, "the scar is real");
}

#[test]
fn long_partitions_fall_off_the_healing_cliff() {
    // The documented counterexample, pinned: a 12-round complete cut
    // outlives the protocol memory; the overlay collapses and does not
    // recover within two full maturity ages after the heal — there is no
    // retransmission path back.
    let mut harness = cut_partition(12, 41);
    harness.run(2 * params().maturity_age());
    let report = harness.report();
    assert!(
        !report.is_routable(),
        "the healing cliff moved: a 12-round cut now recovers ({report:?}) — \
         update EXPERIMENTS.md (PARTITION) and this pin"
    );
}

#[test]
fn healing_under_churn_within_one_cadence_pair() {
    // The scenario/sweep-level positive pin (mirrors the `healing` sweep of
    // exp_partition): a 2-round severe-bridge partition under n/4 random
    // churn still ends routable after two maturity ages.
    let boot = params().bootstrap_rounds();
    let severe = NetModel {
        latency: LatencyModel::constant(2500),
        jitter: 0,
        loss: 0.5,
    };
    let outcome = Scenario::maintained_lds(48)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
        .churn(ChurnSpec::fraction(1, 4))
        .adversary(AdversarySpec::random(1, 223))
        .seed(103)
        .topology(Topology::regions_with_schedule(
            RegionAssign::halves(24),
            intra(),
            severe,
            PartitionSchedule::window(boot, boot + 2),
        ))
        .run(2 * params().maturity_age());
    assert!(
        outcome.is_routable(),
        "a 2-round partition under churn must heal: {:?}",
        outcome.maintenance.map(|m| m.report)
    );
}
