//! The fault-injection half of the differential twin contract, plus the
//! zero-fault anchors.
//!
//! `net_twin.rs` pins the fault-free twin: a recorded loopback-TCP run
//! replays bit-for-bit through the event engine. This file extends the same
//! inductive argument to *injected* faults and byzantine nodes: fault
//! decisions are pure functions of `(seed, seq)` and byzantine role
//! assignment is a pure function of the node id, so a transport run under a
//! non-empty [`FaultPlan`] and a byzantine population, trace-replayed under
//! the *same* plan and parameters, must land on identical protocol state —
//! report, membership, every node snapshot, and the fault counters
//! themselves.
//!
//! The anchors pin the other direction: byzantine fraction 0 and the empty
//! plan must be byte-identical to runs that never heard of the fault layer,
//! on all three engines — otherwise merely *wiring in* the feature would
//! silently shift every committed baseline.

use std::time::Duration;

use tsa_core::{
    AsyncMaintenanceHarness, ByzantineSpec, MaintenanceHarness, MaintenanceParams, MisbehaviorKind,
    NetMaintenanceHarness,
};
use tsa_event::{FaultPlan, LatencyModel, NetModel};
use tsa_sim::NullAdversary;

fn small_params(n: usize) -> MaintenanceParams {
    MaintenanceParams::new(n)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

/// Runs the transport under the mixed plan (all four actions, so each pin
/// covers drop, delay, duplicate and mutate in one trace) + a byzantine
/// population, replays its trace in the event engine under the same plan,
/// and demands identical protocol state and fault counters.
fn assert_faulted_twin(kind: MisbehaviorKind, seed: u64) {
    let params = small_params(16).with_byzantine(ByzantineSpec::fraction(1, 8, kind));
    let rounds = params.bootstrap_rounds() + 4;

    let mut real = NetMaintenanceHarness::assemble(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(15),
    );
    real.set_faults(FaultPlan::mixed());
    real.run(rounds);
    let label = kind.label();
    assert!(
        real.fault_stats().total() > 0,
        "{label}/{seed}: the plan must actually inject faults"
    );
    assert_eq!(
        real.trace().len() as u64,
        real.net_stats().sent,
        "{label}/{seed}: one fate per sent message, duplicates included"
    );

    let mut twin = real.twin(NullAdversary);
    twin.run(rounds);

    assert_eq!(
        real.runner().member_ids(),
        twin.simulator().member_ids(),
        "{label}/{seed}: membership diverged"
    );
    assert_eq!(
        real.fingerprint(),
        twin.fingerprint(),
        "{label}/{seed}: protocol state diverged"
    );
    assert_eq!(
        real.fault_stats(),
        twin.fault_stats(),
        "{label}/{seed}: the engines took different fault decisions"
    );
}

#[test]
fn stale_claim_runs_twin_exactly_under_faults() {
    for seed in [11, 37] {
        assert_faulted_twin(MisbehaviorKind::StaleClaims, seed);
    }
}

#[test]
fn selective_forward_runs_twin_exactly_under_faults() {
    for seed in [17, 41] {
        assert_faulted_twin(MisbehaviorKind::SelectiveForward, seed);
    }
}

#[test]
fn bogus_reply_runs_twin_exactly_under_faults() {
    for seed in [29, 43] {
        assert_faulted_twin(MisbehaviorKind::BogusReplies, seed);
    }
}

#[test]
fn forged_position_runs_twin_exactly_under_faults() {
    assert_faulted_twin(MisbehaviorKind::ForgedPosition, 23);
}

// ---------------------------------------------------------------------------
// Zero-fault anchors: fraction 0 and the empty plan are invisible.
// ---------------------------------------------------------------------------

#[test]
fn fraction_zero_is_invisible_on_the_round_engine() {
    let params = small_params(24);
    let seed = 7;
    let rounds = 6;
    let run = |params: MaintenanceParams| {
        let mut h = MaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
        );
        h.run_bootstrap();
        h.run(rounds);
        h.fingerprint()
    };
    let honest = run(params);
    for kind in MisbehaviorKind::ALL {
        assert_eq!(
            run(params.with_byzantine(ByzantineSpec::fraction(0, 8, kind))),
            honest,
            "a 0/8 {} population must be byte-invisible",
            kind.label()
        );
    }
}

#[test]
fn the_empty_plan_and_fraction_zero_are_invisible_on_the_event_engine() {
    let seed = 9;
    let rounds = 6;
    let net = NetModel {
        latency: LatencyModel::uniform(100, 1800),
        jitter: 200,
        loss: 0.02,
    };
    let run = |params: MaintenanceParams, plan: Option<FaultPlan>| {
        let mut h = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
            net,
        );
        if let Some(plan) = plan {
            h.set_faults(plan);
        }
        h.run_bootstrap();
        h.run(rounds);
        (h.fingerprint(), h.fault_stats().total())
    };
    let params = small_params(24);
    let (honest, _) = run(params, None);
    let (empty_plan, injected) = run(params, Some(FaultPlan::default()));
    assert_eq!(empty_plan, honest, "the empty plan must be byte-invisible");
    assert_eq!(injected, 0, "and must inject nothing");
    let (zero_fraction, _) = run(
        params.with_byzantine(ByzantineSpec::fraction(
            0,
            8,
            MisbehaviorKind::ForgedPosition,
        )),
        None,
    );
    assert_eq!(
        zero_fraction, honest,
        "a zero byzantine fraction must be byte-invisible"
    );
}

#[test]
fn the_empty_plan_and_fraction_zero_are_invisible_on_the_transport_replay() {
    // Wall-clock transport runs are not repeatable, so the transport anchor
    // pins the deterministic half: one honest recorded trace, replayed under
    // plain parameters, under fraction 0, and under the empty plan, must
    // land on identical protocol state each time.
    let params = small_params(16);
    let seed = 13;
    let rounds = params.bootstrap_rounds() + 4;
    let mut real = NetMaintenanceHarness::assemble(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(15),
    );
    real.run(rounds);
    let trace = real.trace();

    let replay = |params: MaintenanceParams, plan: Option<FaultPlan>| {
        let mut twin = AsyncMaintenanceHarness::assemble_replay(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
            trace.clone(),
        );
        if let Some(plan) = plan {
            twin.set_faults(plan);
        }
        twin.run(rounds);
        twin.fingerprint()
    };
    let plain = replay(params, None);
    assert_eq!(
        plain,
        real.fingerprint(),
        "the plain replay reproduces the transport"
    );
    assert_eq!(
        replay(params, Some(FaultPlan::default())),
        plain,
        "the empty plan must be byte-invisible in replay"
    );
    assert_eq!(
        replay(
            params.with_byzantine(ByzantineSpec::fraction(0, 8, MisbehaviorKind::StaleClaims)),
            None,
        ),
        plain,
        "a zero byzantine fraction must be byte-invisible in replay"
    );
}
