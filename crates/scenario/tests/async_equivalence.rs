//! The equivalence bridge between the two execution engines, pinned by
//! property tests: `ExecutionModel::Async` with zero latency, zero jitter,
//! zero loss and round-boundary delivery reproduces the round engine's
//! `ScenarioOutcome` **byte-identically** across seeds and scenario kinds.
//!
//! This is the contract that makes the round engine "one scheduler policy":
//! any drift between the engines — churn arbitration, delivery order,
//! metrics accounting, report computation — shows up here as a JSON diff.

use proptest::{prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy};
use tsa_scenario::{
    AdversarySpec, ChurnSpec, ExecutionModel, LatencyModel, Scenario, ScenarioKind,
    ScenarioOutcome, ScenarioSpec,
};

/// Serializes an asynchronous outcome with its execution field and network
/// counters normalized away — the round engine records no execution model
/// and has no network model to count, so those are the only permitted
/// differences from its outcome.
fn normalized_json(mut outcome: ScenarioOutcome) -> String {
    outcome.spec.execution = ExecutionModel::Rounds;
    if let Some(m) = outcome.maintenance.as_mut() {
        m.net_stats = None;
    }
    serde_json::to_string(&outcome).expect("outcomes serialize")
}

/// The scenario grid the bridge is pinned over: every kind, with a churning
/// adversary on the maintained kind so the shared churn arbiter is exercised.
fn spec_strategy() -> impl Strategy<Value = (ScenarioSpec, u64)> {
    let kind = prop_oneof![
        (0u64..3).prop_map(|adv| {
            let mut spec = ScenarioSpec::new(ScenarioKind::MaintainedLds, 32);
            spec.c = Some(1.5);
            spec.tau = Some(3);
            spec.replication = Some(2);
            spec.churn = ChurnSpec::fraction(1, 4);
            spec.adversary = match adv {
                0 => AdversarySpec::null(),
                1 => AdversarySpec::random(1, 77),
                _ => AdversarySpec::targeted(1, 78),
            };
            spec
        }),
        (0u64..1).prop_map(|_| {
            let mut spec = ScenarioSpec::new(ScenarioKind::Routing, 48);
            spec.messages_per_node = 2;
            spec
        }),
        (0u64..1).prop_map(|_| {
            let mut spec = ScenarioSpec::new(ScenarioKind::Sampling, 48);
            spec.attempts = 2_000;
            spec
        }),
    ];
    (kind, 0u64..1_000_000)
}

/// The zero-latency/zero-jitter/zero-loss asynchronous model: every message
/// is delivered at the next round boundary, exactly like the round model.
fn zero_delay_async() -> ExecutionModel {
    ExecutionModel::asynchronous(LatencyModel::constant(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_delay_async_reproduces_rounds_byte_identically((spec, seed) in spec_strategy()) {
        let rounds = 6;
        let sync = Scenario::from_spec(spec.clone().with_seed(seed)).run(rounds);

        let mut async_spec = spec.with_seed(seed);
        async_spec.execution = zero_delay_async();
        let asynch = Scenario::from_spec(async_spec).run(rounds);

        prop_assert_eq!(
            normalized_json(asynch),
            serde_json::to_string(&sync).unwrap()
        );
    }
}

#[test]
fn zero_delay_async_matches_rounds_under_every_adversary_kind() {
    // A deterministic (non-property) pin of the same bridge at fixed seeds,
    // so a regression is reproducible from the failure message alone.
    for (adv, seed) in [
        (AdversarySpec::null(), 5u64),
        (AdversarySpec::random(2, 9), 6),
        (AdversarySpec::targeted(1, 10), 7),
        (AdversarySpec::degree(1, 11), 8),
    ] {
        let base = || {
            Scenario::maintained_lds(32)
                .with_c(1.5)
                .with_tau(3)
                .with_replication(2)
                .churn(ChurnSpec::fraction(1, 2))
                .adversary(adv)
                .seed(seed)
        };
        let sync = base().run(10);
        let asynch = base().execution(zero_delay_async()).run(10);
        assert_eq!(
            normalized_json(asynch),
            serde_json::to_string(&sync).unwrap(),
            "engines diverged for {adv:?} at seed {seed}"
        );
    }
}

#[test]
fn any_sub_round_latency_is_also_the_round_model() {
    // Not just zero delay: every model whose delays stay within one round
    // lands on the next boundary, which *is* the synchronous one-round
    // message delay. The jittered and uniform cases are the sharp ones —
    // same-boundary deliveries arrive at *different* ticks, so this only
    // holds because the engine re-sorts each boundary's batch into send
    // order before it reaches the (order-sensitive!) protocol inboxes.
    let models = [
        ExecutionModel::asynchronous(LatencyModel::constant(500)),
        ExecutionModel::asynchronous(LatencyModel::constant(1000)),
        ExecutionModel::asynchronous(LatencyModel::constant(0)).with_jitter(1000),
        ExecutionModel::asynchronous(LatencyModel::uniform(1, 999)).with_jitter(1),
    ];
    for model in models {
        let base = || {
            Scenario::maintained_lds(32)
                .with_c(1.5)
                .with_tau(3)
                .with_replication(2)
                .churn(ChurnSpec::fraction(1, 4))
                .adversary(AdversarySpec::random(1, 44))
                .seed(3)
        };
        let sync = base().run(8);
        let asynch = base().execution(model).run(8);
        assert_eq!(
            normalized_json(asynch),
            serde_json::to_string(&sync).unwrap(),
            "sub-round model {model:?} must reproduce the round engine"
        );
    }
}
