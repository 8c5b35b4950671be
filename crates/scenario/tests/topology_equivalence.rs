//! The equivalence bridge for link topologies, pinned by property tests —
//! the topology-aware sibling of `async_equivalence.rs`:
//!
//! * `Topology::Global(m)` is the scalar network model `m`, byte-identically;
//! * `Topology::Regions { intra == inter }` is `Global` (for every split,
//!   with and without a schedule), byte-identically.
//!
//! Both are pinned at the `ScenarioOutcome` level (full serialized
//! JSON) across scenario kinds, adversaries and seeds, and at the harness
//! level (`AsyncMaintenanceHarness` reports and metrics). The trace-level
//! pins live next to the engine in `tsa-event`. Together they make the
//! link-resolution layer "one more pure function": any drift — a region
//! lookup perturbing an RNG stream, a schedule consulted at the wrong round —
//! shows up here as a JSON diff.

use proptest::{prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy};
use tsa_scenario::{
    AdversarySpec, ChurnSpec, ExecutionModel, LatencyModel, NetModel, PartitionSchedule,
    RegionAssign, Scenario, ScenarioKind, ScenarioSpec, Topology,
};

/// The scenario grid the bridge is pinned over: every kind, with a churning
/// adversary on the maintained kind so the shared churn arbiter is exercised
/// (joiners get fresh ids, which must land in regions deterministically).
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

/// A genuinely asynchronous network model: delays straddle round boundaries,
/// jitter spreads them, and messages are lost — nothing about the runs below
/// is the synchronous special case.
fn net() -> NetModel {
    NetModel {
        latency: LatencyModel::uniform(200, 2600),
        jitter: 300,
        loss: 0.05,
    }
}

/// Region assignments the regional equivalence is quantified over: the
/// genesis halves, a lopsided split, and one that joiners alone cross.
fn assigns() -> [RegionAssign; 3] {
    [
        RegionAssign::halves(16),
        RegionAssign::halves(5),
        RegionAssign::halves(32),
    ]
}

/// Runs `spec` and serializes the outcome with the execution model and the
/// cross-region bridge counters normalized away — the spec's execution field
/// records which engine ran, and a `Regions` topology *labels* some links as
/// bridges where `Global` labels none, so those are the only fields
/// equivalent runs may differ in. Everything else — including the loss and
/// delay counters of `net_stats` — stays pinned byte-identically.
fn normalized_json(spec: ScenarioSpec, rounds: u64) -> String {
    let mut outcome = Scenario::from_spec(spec).run(rounds);
    normalize(&mut outcome);
    serde_json::to_string(&outcome).expect("outcomes serialize")
}

/// See [`normalized_json`].
fn normalize(outcome: &mut tsa_scenario::ScenarioOutcome) {
    outcome.spec.execution = ExecutionModel::Rounds;
    if let Some(stats) = outcome
        .maintenance
        .as_mut()
        .and_then(|m| m.net_stats.as_mut())
    {
        stats.bridge_sent = 0;
        stats.bridge_lost = 0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn global_topology_is_the_scalar_model_byte_identically(
        (spec, seed) in spec_strategy(),
    ) {
        let rounds = 6;
        let mut scalar = spec.clone().with_seed(seed);
        scalar.execution = ExecutionModel::asynchronous(LatencyModel::uniform(200, 2600))
            .with_jitter(300)
            .with_loss(0.05);
        let mut global = spec.with_seed(seed);
        global.execution = ExecutionModel::topo(Topology::global(net()));
        prop_assert_eq!(
            normalized_json(global, rounds),
            normalized_json(scalar, rounds)
        );
    }

    #[test]
    fn equal_intra_inter_regions_are_global_byte_identically(
        (spec, seed) in spec_strategy(),
        which in 0usize..3,
    ) {
        let rounds = 6;
        let mut global = spec.clone().with_seed(seed);
        global.execution = ExecutionModel::topo(Topology::global(net()));
        let mut regional = spec.with_seed(seed);
        regional.execution =
            ExecutionModel::topo(Topology::regions(assigns()[which], net(), net()));
        prop_assert_eq!(
            normalized_json(regional, rounds),
            normalized_json(global, rounds)
        );
    }
}

#[test]
fn equal_model_regions_match_global_under_every_assign_and_schedule() {
    // A deterministic (non-property) pin of the same bridge at fixed seeds,
    // so a regression is reproducible from the failure message alone —
    // including scheduled bridges, whose round-dependence must be invisible
    // when intra == inter.
    let base = || {
        Scenario::maintained_lds(32)
            .with_c(1.5)
            .with_tau(3)
            .with_replication(2)
            .churn(ChurnSpec::fraction(1, 2))
            .adversary(AdversarySpec::random(2, 9))
            .seed(6)
    };
    let global = {
        let mut outcome = base().topology(Topology::global(net())).run(10);
        normalize(&mut outcome);
        serde_json::to_string(&outcome).unwrap()
    };
    for assign in assigns() {
        for schedule in [
            None,
            Some(PartitionSchedule::window(3, 9)),
            Some(PartitionSchedule::starting_at(0)),
        ] {
            let topology = match schedule {
                None => Topology::regions(assign, net(), net()),
                Some(s) => Topology::regions_with_schedule(assign, net(), net(), s),
            };
            let mut outcome = base().topology(topology).run(10);
            normalize(&mut outcome);
            assert_eq!(
                serde_json::to_string(&outcome).unwrap(),
                global,
                "equal-model regions diverged from global for {}",
                topology.label()
            );
        }
    }
}

#[test]
fn zero_delay_global_topology_reproduces_the_round_engine() {
    // Transitivity anchor: Global(constant 0) ≡ scalar constant 0 ≡ the
    // synchronous round engine — so the whole topology layer is pinned all
    // the way back to the paper's execution model.
    let base = || {
        Scenario::maintained_lds(32)
            .with_c(1.5)
            .with_tau(3)
            .with_replication(2)
            .churn(ChurnSpec::fraction(1, 2))
            .adversary(AdversarySpec::random(1, 13))
            .seed(12)
    };
    let sync = base().run(8);
    let mut topo = base()
        .topology(Topology::global(NetModel::new(LatencyModel::constant(0))))
        .run(8);
    topo.spec.execution = ExecutionModel::Rounds;
    // The round engine has no network model, so it reports no counters;
    // drop the event engine's before the byte comparison.
    let stats = topo
        .maintenance
        .as_mut()
        .and_then(|m| m.net_stats.take())
        .expect("async outcomes carry network counters");
    assert_eq!(stats.lost, 0, "a zero-delay lossless model loses nothing");
    assert_eq!(
        serde_json::to_string(&topo).unwrap(),
        serde_json::to_string(&sync).unwrap(),
        "a zero-delay global topology must be the round engine"
    );
}

#[test]
fn harness_level_reports_agree_between_global_and_equal_regions() {
    // The harness-level pin: identical reports, metrics and cross-region
    // accounting straight from AsyncMaintenanceHarness, without the
    // Scenario layer in between.
    use tsa_core::{AsyncMaintenanceHarness, MaintenanceParams};
    use tsa_sim::NullAdversary;

    let params = MaintenanceParams::new(48)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2);
    let run = |topology: Topology| {
        let mut h = AsyncMaintenanceHarness::assemble_with_topology(
            params,
            NullAdversary,
            17,
            params.paper_churn_rules(),
            params.paper_lateness(),
            topology,
        );
        h.run_bootstrap();
        h.run(6);
        (
            serde_json::to_string(&h.report()).unwrap(),
            h.metrics().summary(),
            h.net_stats().sent,
            h.net_stats().lost,
        )
    };
    let global = run(Topology::global(net()));
    let regions = run(Topology::regions(RegionAssign::halves(24), net(), net()));
    assert_eq!(regions, global);
    // Sanity: the equal-model regional run still *accounts* bridge traffic —
    // the halves really are talking through the (healthy) bridge.
    let mut h = AsyncMaintenanceHarness::assemble_with_topology(
        params,
        NullAdversary,
        17,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Topology::regions(RegionAssign::halves(24), net(), net()),
    );
    h.run_bootstrap();
    assert!(h.net_stats().bridge_sent > 0);
    assert!(h.cross_region_edges() > 0);
}
