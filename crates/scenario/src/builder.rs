//! The fluent [`Scenario`] builder and the live [`ScenarioRun`] handle.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tsa_adversary::{DegreeAttackAdversary, RandomChurnAdversary, TargetedSwarmAdversary};
use tsa_analysis::uniformity;
use tsa_baselines::{attack_trial, AttackMode, ChordSwarm, HdGraph, SpartanOverlay};
use tsa_core::{
    AsyncMaintenanceHarness, ByzantineSpec, Maintained, MaintenanceHarness, ProtocolMsg,
};
use tsa_event::{
    ExecutionModel, FaultPlan, FaultStats, LatencyModel, NetModel, NetStats, Topology,
};
use tsa_overlay::{Lds, OverlayGraph};
use tsa_routing::{sample_many, uniform_workload, RoutableSeries, RoutingConfig, RoutingSim};
use tsa_sim::{Adversary, Delivery, Lateness, MetricsMode, NodeId, NullAdversary};

use crate::outcome::{
    BaselineOutcome, MaintenanceOutcome, RoutingOutcome, SamplingOutcome, ScenarioOutcome,
};
use crate::spec::{AdversarySpec, BaselineKind, ChurnSpec, ScenarioKind, ScenarioSpec};

/// A fluent, type-safe builder composing every layer of the reproduction.
///
/// Construct with one of the entry points ([`Scenario::maintained_lds`],
/// [`Scenario::baseline`], [`Scenario::routing`], [`Scenario::sampling`]),
/// chain configuration, then call [`Scenario::run`] for a one-shot
/// [`ScenarioOutcome`] or [`Scenario::build`] for a live [`ScenarioRun`].
#[derive(Clone, Debug)]
pub struct Scenario {
    spec: ScenarioSpec,
}

impl Scenario {
    /// The paper's maintained Linearized DeBruijn Swarm over at least `n`
    /// nodes: the full message-level protocol inside the simulator.
    pub fn maintained_lds(n: usize) -> Self {
        Scenario {
            spec: ScenarioSpec::new(ScenarioKind::MaintainedLds, n),
        }
    }

    /// A static Table-1 comparison overlay (default `n = 256`), attacked with
    /// a one-shot churn burst when the scenario runs.
    pub fn baseline(kind: BaselineKind) -> Self {
        Scenario {
            spec: ScenarioSpec::new(ScenarioKind::Baseline(kind), 256),
        }
    }

    /// An `A_ROUTING` workload over a routable series of ideal LDS snapshots.
    pub fn routing(n: usize) -> Self {
        Scenario {
            spec: ScenarioSpec::new(ScenarioKind::Routing, n),
        }
    }

    /// An `A_SAMPLING` uniformity workload over a static LDS snapshot.
    pub fn sampling(n: usize) -> Self {
        Scenario {
            spec: ScenarioSpec::new(ScenarioKind::Sampling, n),
        }
    }

    /// Starts from a fully explicit spec (e.g. one deserialized from a
    /// previous outcome).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        Scenario { spec }
    }

    /// The current spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Overrides the network-size lower bound `n`.
    pub fn with_n(mut self, n: usize) -> Self {
        self.spec.n = n;
        self
    }

    /// Overrides the robustness parameter `c`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.spec.c = Some(c);
        self
    }

    /// Overrides `δ`, the fresh-node connects per round.
    pub fn with_delta(mut self, delta: usize) -> Self {
        self.spec.delta = Some(delta);
        self
    }

    /// Overrides `τ`, the sampling tokens per round.
    pub fn with_tau(mut self, tau: usize) -> Self {
        self.spec.tau = Some(tau);
        self
    }

    /// Overrides the replication factor `r`.
    pub fn with_replication(mut self, r: usize) -> Self {
        self.spec.replication = Some(r);
        self
    }

    /// Sets the churn budget / join rules.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.spec.churn = churn;
        self
    }

    /// Sets the attack strategy.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.spec.adversary = adversary;
        self
    }

    /// Sets the adversary lateness (defaults to the paper's `(2, 2λ+7)`).
    pub fn lateness(mut self, lateness: Lateness) -> Self {
        self.spec.lateness = Some(lateness);
        self
    }

    /// Selects the execution engine for a maintained scenario: the
    /// synchronous round model (the default), or the virtual-time event
    /// engine of `tsa-event` under a per-message latency/jitter/loss model.
    /// One-shot kinds ignore it.
    pub fn execution(mut self, execution: ExecutionModel) -> Self {
        self.spec.execution = execution;
        self
    }

    /// Runs a maintained scenario on the event engine under an explicit link
    /// [`Topology`] — two halves joined by a possibly scheduled bridge.
    /// Shorthand for `execution(ExecutionModel::topo(topology))`; a one-way
    /// link is a directed [`FaultRule`](tsa_event::FaultRule) in
    /// [`faults`](Self::faults) instead.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.spec.execution = ExecutionModel::topo(topology);
        self
    }

    /// Selects how the engine retains per-round metrics for a maintained
    /// scenario: the full per-round history (the default), or only the O(1)
    /// running digest — same [`MetricsSummary`](tsa_sim::MetricsSummary), no
    /// per-round rows in the outcome. One-shot kinds ignore it.
    pub fn metrics_mode(mut self, mode: MetricsMode) -> Self {
        self.spec.metrics = mode;
        self
    }

    /// Installs a fault-injection plan at the message boundary of a
    /// maintained scenario. Faults act where messages are delivered, so a
    /// plan routes the run onto the event engine even under the default
    /// synchronous execution — with a zero-delay network model, which is the
    /// round engine bit for bit. One-shot kinds ignore it.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Assigns a byzantine role to the id slice `spec` selects (maintained
    /// scenarios only). Flows through [`tsa_core::MaintenanceParams::with_byzantine`],
    /// so every engine resolves it identically.
    pub fn byzantine(mut self, spec: ByzantineSpec) -> Self {
        self.spec.byzantine = Some(spec);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the number of messages per node in a routing workload.
    pub fn messages_per_node(mut self, k: usize) -> Self {
        self.spec.messages_per_node = k;
        self
    }

    /// Sets the per-step holder failure probability of a routing workload.
    pub fn holder_failure(mut self, p: f64) -> Self {
        self.spec.holder_failure = p;
        self
    }

    /// Sets the number of attempts in a sampling workload.
    pub fn attempts(mut self, attempts: usize) -> Self {
        self.spec.attempts = attempts;
        self
    }

    /// Sets the workload seed explicitly (defaults to a value derived from
    /// the master seed).
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.spec.workload_seed = Some(seed);
        self
    }

    /// Builds the live simulator for a maintained scenario.
    ///
    /// # Panics
    ///
    /// Panics for [`ScenarioKind::Baseline`], [`ScenarioKind::Routing`] and
    /// [`ScenarioKind::Sampling`], which are one-shot computations without a
    /// live simulator — use [`Scenario::run`] for those.
    pub fn build(self) -> ScenarioRun {
        assert!(
            matches!(self.spec.kind, ScenarioKind::MaintainedLds),
            "only maintained-LDS scenarios have a live simulator; use Scenario::run \
             for {:?}",
            self.spec.kind
        );
        assert!(
            self.spec.execution.is_rounds(),
            "asynchronous scenarios run to completion on the event engine; use \
             Scenario::run instead of build() for {:?}",
            self.spec.execution
        );
        assert!(
            self.spec.faults.is_none(),
            "fault plans act at the event engine's delivery boundary; use \
             Scenario::run instead of build()"
        );
        let params = self.spec.maintenance_params();
        let rules = self.spec.churn.rules_for(&params);
        let lateness = self
            .spec
            .lateness
            .unwrap_or_else(|| params.paper_lateness());
        let adversary = build_adversary(self.spec.adversary);
        let mut harness =
            MaintenanceHarness::assemble(params, adversary, self.spec.seed, rules, lateness);
        harness.set_metrics_mode(self.spec.metrics);
        ScenarioRun {
            spec: self.spec,
            harness,
            bootstrap_ran: false,
        }
    }

    /// Runs the scenario to completion and returns its outcome.
    ///
    /// For maintained scenarios, `rounds` are executed after the (optional)
    /// bootstrap phase — on the round engine or, for an asynchronous
    /// [`ExecutionModel`], on the event engine. Baseline, routing and
    /// sampling scenarios are one-shot computations: `rounds` is ignored and
    /// reported as 0.
    pub fn run(self, rounds: u64) -> ScenarioOutcome {
        match (self.spec.kind, self.spec.execution.effective_topology()) {
            (ScenarioKind::MaintainedLds, None) if self.spec.faults.is_some() => {
                // Faults act at the delivery boundary, which only the event
                // engine has. A zero-delay model is the round engine bit for
                // bit, so the only difference a fault-free plan makes is the
                // extra network/fault counters in the outcome.
                let topology = Topology::Global(NetModel::new(LatencyModel::constant(0)));
                run_async_maintained(self.spec, topology, rounds)
            }
            (ScenarioKind::MaintainedLds, None) => {
                let mut run = self.build();
                if run.spec.bootstrap {
                    run.run_bootstrap();
                }
                run.run(rounds);
                run.into_outcome()
            }
            (ScenarioKind::MaintainedLds, Some(topology)) => {
                run_async_maintained(self.spec, topology, rounds)
            }
            (ScenarioKind::Baseline(kind), _) => run_baseline(self.spec, kind),
            (ScenarioKind::Routing, _) => run_routing(self.spec),
            (ScenarioKind::Sampling, _) => run_sampling(self.spec),
        }
    }
}

/// Materializes the attack strategy an [`AdversarySpec`] describes.
fn build_adversary(spec: AdversarySpec) -> Box<dyn Adversary> {
    match spec {
        AdversarySpec::Null => Box::new(NullAdversary),
        AdversarySpec::Random { per_round, seed } => {
            Box::new(RandomChurnAdversary::new(per_round, seed))
        }
        AdversarySpec::Targeted { per_round, seed } => {
            Box::new(TargetedSwarmAdversary::new(per_round, seed))
        }
        AdversarySpec::Degree { per_round, seed } => {
            Box::new(DegreeAttackAdversary::new(per_round, seed))
        }
    }
}

/// Runs a maintained scenario on the virtual-time event engine. The outcome
/// has exactly the shape of a round-engine run (the spec's `execution` field
/// is what records the difference), so a zero-delay network model reproduces
/// the round engine's outcome byte for byte.
fn run_async_maintained(spec: ScenarioSpec, topology: Topology, rounds: u64) -> ScenarioOutcome {
    let params = spec.maintenance_params();
    let rules = spec.churn.rules_for(&params);
    let lateness = spec.lateness.unwrap_or_else(|| params.paper_lateness());
    let adversary = build_adversary(spec.adversary);
    let mut harness = AsyncMaintenanceHarness::assemble_with_topology(
        params, adversary, spec.seed, rules, lateness, topology,
    );
    harness.set_metrics_mode(spec.metrics);
    if let Some(plan) = &spec.faults {
        harness.set_faults(plan.clone());
    }
    if spec.bootstrap {
        harness.run_bootstrap();
    }
    harness.run(rounds);
    let bootstrap_ran = spec.bootstrap;
    let net_stats = Some(harness.net_stats());
    let fault_stats = spec.faults.is_some().then(|| harness.fault_stats());
    maintained_outcome(spec, &harness, bootstrap_ran, net_stats, fault_stats)
}

/// Finalizes a maintained run on any scheduler into its serializable
/// outcome. Measured rounds exclude the bootstrap phase when it actually
/// ran, so replaying `Scenario::from_spec(spec).run(rounds)` reproduces the
/// outcome exactly; the spec's bootstrap flag is corrected to what happened,
/// for runs driven manually through `build()`. The network and fault
/// counters are `None` where the scheduler has no network model or no
/// delivery boundary to count at.
fn maintained_outcome<A: Adversary, D: Delivery<ProtocolMsg>>(
    mut spec: ScenarioSpec,
    harness: &Maintained<A, D>,
    bootstrap_ran: bool,
    net_stats: Option<NetStats>,
    fault_stats: Option<FaultStats>,
) -> ScenarioOutcome {
    spec.bootstrap = bootstrap_ran;
    let bootstrap_rounds = if bootstrap_ran {
        harness.params().bootstrap_rounds()
    } else {
        0
    };
    let metrics = match spec.metrics {
        MetricsMode::Full => Some(harness.metrics().clone()),
        MetricsMode::Streaming => None,
    };
    ScenarioOutcome {
        label: format!(
            "maintained LDS, n = {}, adversary = {}",
            spec.n,
            spec.adversary.label()
        ),
        spec,
        rounds: harness.round().saturating_sub(bootstrap_rounds),
        maintenance: Some(MaintenanceOutcome {
            report: harness.report(),
            metrics_summary: harness.metrics_summary(),
            metrics,
            max_connect_load: harness.connect_load().values().copied().max().unwrap_or(0),
            net_stats,
            fault_stats,
        }),
        baseline: None,
        routing: None,
        sampling: None,
    }
}

/// A live maintained-LDS scenario: the protocol running inside the simulator.
/// The full observation and stepping surface of the underlying harness
/// (`run`, `step`, `set_obs`, `report`, `snapshots`, `metrics`, …) is reached
/// through `Deref`.
pub struct ScenarioRun {
    spec: ScenarioSpec,
    harness: MaintenanceHarness<Box<dyn Adversary>>,
    bootstrap_ran: bool,
}

impl std::ops::Deref for ScenarioRun {
    type Target = MaintenanceHarness<Box<dyn Adversary>>;
    fn deref(&self) -> &Self::Target {
        &self.harness
    }
}

impl std::ops::DerefMut for ScenarioRun {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.harness
    }
}

impl ScenarioRun {
    /// The spec this run was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the full churn-free bootstrap phase, and remembers that it ran
    /// (the outcome's measured rounds exclude it).
    pub fn run_bootstrap(&mut self) {
        self.harness.run_bootstrap();
        self.bootstrap_ran = true;
    }

    /// Direct access to the underlying harness.
    pub fn harness(&self) -> &MaintenanceHarness<Box<dyn Adversary>> {
        &self.harness
    }

    /// Finalizes the run into a serializable outcome.
    pub fn into_outcome(self) -> ScenarioOutcome {
        maintained_outcome(self.spec, &self.harness, self.bootstrap_ran, None, None)
    }
}

fn run_baseline(spec: ScenarioSpec, kind: BaselineKind) -> ScenarioOutcome {
    let params = spec.overlay_params();
    let nodes: Vec<NodeId> = (0..spec.n as u64).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let graph: OverlayGraph = match kind {
        BaselineKind::HdGraph => HdGraph::random(nodes, 3, &mut rng).to_graph(),
        BaselineKind::Spartan => {
            SpartanOverlay::build(nodes, params.lambda() as usize, &mut rng).to_graph()
        }
        BaselineKind::ChordSwarm => ChordSwarm::random(params, nodes, &mut rng).to_graph(),
        BaselineKind::StaticLds => Lds::random(params, nodes, &mut rng).to_graph(),
    };
    // A Null adversary attacks nothing, exactly as in maintained scenarios:
    // the trial measures the intact structure (budget 0).
    let budget = match spec.adversary {
        AdversarySpec::Null => 0,
        _ => spec.churn.burst_budget(spec.n),
    };
    let (mode, adversary_seed) = match spec.adversary {
        AdversarySpec::Null => (AttackMode::Random, 0),
        AdversarySpec::Random { seed, .. } => (AttackMode::Random, seed),
        AdversarySpec::Targeted { seed, .. } | AdversarySpec::Degree { seed, .. } => {
            (AttackMode::TargetedNeighborhood, seed)
        }
    };
    // The structure above depends only on the master seed, so two scenarios
    // with the same seed but different adversaries attack the identical
    // graph; the attack's own coin flips honour the adversary seed.
    let mut attack_rng =
        ChaCha8Rng::seed_from_u64(spec.seed.rotate_left(32) ^ adversary_seed ^ 0x4154_5441_434B);
    let resilience = attack_trial(&graph, budget, mode, &mut attack_rng);
    let eclipse_budget = graph
        .vertices()
        .map(|v| graph.out_degree(v))
        .min()
        .unwrap_or(0);
    ScenarioOutcome {
        label: format!("{}, {:?} burst of {budget}", kind.label(), mode),
        spec,
        rounds: 0,
        maintenance: None,
        baseline: Some(BaselineOutcome {
            budget,
            resilience,
            eclipse_budget,
        }),
        routing: None,
        sampling: None,
    }
}

fn run_routing(spec: ScenarioSpec) -> ScenarioOutcome {
    let params = spec.overlay_params();
    let series = RoutableSeries::new(params, spec.seed, (0..spec.n as u64).map(NodeId));
    // An unset replication keeps RoutingConfig's own default rather than
    // inventing a second one here.
    let mut config = RoutingConfig::default()
        .with_holder_failure(spec.holder_failure)
        .with_seed(spec.workload_seed_or_default() ^ 0x524F_5554);
    if let Some(r) = spec.replication {
        config = config.with_replication(r);
    }
    let workload = uniform_workload(
        &series,
        spec.messages_per_node,
        spec.workload_seed_or_default(),
    );
    let report = RoutingSim::new(&series, config).route_all(0, &workload);
    ScenarioOutcome {
        label: format!(
            "A_ROUTING, n = {}, k = {}, holder failure = {}",
            spec.n, spec.messages_per_node, spec.holder_failure
        ),
        spec,
        rounds: 0,
        maintenance: None,
        baseline: None,
        routing: Some(RoutingOutcome {
            lambda: params.lambda(),
            total: report.total,
            delivered: report.delivered,
            delivery_rate: report.delivery_rate(),
            dilation: report.dilation,
            max_congestion: report.max_congestion,
            mean_congestion: report.mean_congestion,
            total_copies: report.total_copies,
            mean_target_coverage: report.mean_target_coverage(),
        }),
        sampling: None,
    }
}

fn run_sampling(spec: ScenarioSpec) -> ScenarioOutcome {
    let params = spec.overlay_params();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let overlay = Lds::random(params, (0..spec.n as u64).map(NodeId), &mut rng);
    let report = sample_many(&overlay, spec.attempts, spec.workload_seed_or_default());
    let (hits_min, hits_max) = report.hit_spread();
    let uni = uniformity(&report.hits, spec.n);
    let distinct = report.distinct_nodes();
    ScenarioOutcome {
        label: format!("A_SAMPLING, n = {}, {} attempts", spec.n, spec.attempts),
        spec,
        rounds: 0,
        maintenance: None,
        baseline: None,
        routing: None,
        sampling: Some(SamplingOutcome {
            attempts: report.attempts,
            discarded: report.discarded,
            discard_rate: report.discard_rate(),
            distinct_nodes: distinct,
            hits_min,
            hits_mean: if distinct == 0 {
                0.0
            } else {
                report.delivered() as f64 / distinct as f64
            },
            hits_max,
            total_variation: uni.total_variation,
            chi_square: uni.chi_square,
            degrees_of_freedom: uni.degrees_of_freedom,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_maintained_scenario_bootstraps_to_routable() {
        let outcome = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(1)
            .run(6);
        let m = outcome.maintenance.as_ref().expect("maintained outcome");
        assert_eq!(m.report.node_count, 48);
        assert!(outcome.is_routable(), "{:?}", m.report);
        assert!(m.metrics_summary.total_messages_sent > 0);
        assert_eq!(
            m.metrics.as_ref().map(|h| h.summary()),
            Some(m.metrics_summary),
            "digest matches the full history"
        );
    }

    #[test]
    fn compact_drops_the_history_but_keeps_the_digest() {
        let outcome = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(1)
            .run(4)
            .compact();
        let m = outcome.maintenance.as_ref().unwrap();
        assert!(m.metrics.is_none());
        assert!(m.metrics_summary.rounds > 0);
    }

    #[test]
    fn compact_records_peak_congestion_before_dropping_the_history() {
        // Regression: compacting must re-fold the digest from the per-round
        // rows *before* they are dropped, so a stale digest (e.g. an outcome
        // assembled by hand or from a pre-digest artifact) cannot lose the
        // paper's Lemma 24 congestion claim.
        let outcome = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(4)
            .run(4);
        let expected = outcome
            .maintenance
            .as_ref()
            .unwrap()
            .metrics
            .as_ref()
            .unwrap()
            .summary();
        assert!(expected.peak_congestion > 0);

        let mut stale = outcome.clone();
        stale.maintenance.as_mut().unwrap().metrics_summary = Default::default();
        let via_compact = stale.clone().compact();
        let via_to_compact = stale.to_compact();
        for compacted in [&via_compact, &via_to_compact] {
            let m = compacted.maintenance.as_ref().unwrap();
            assert!(m.metrics.is_none(), "history dropped");
            assert_eq!(
                m.metrics_summary, expected,
                "digest re-folded from the history before the drop"
            );
        }
    }

    #[test]
    fn streaming_metrics_mode_drops_the_rows_but_pins_the_digest() {
        let base = || {
            Scenario::maintained_lds(48)
                .with_c(1.5)
                .with_tau(4)
                .with_replication(2)
                .seed(11)
        };
        let full = base().run(6);
        let streaming = base().metrics_mode(MetricsMode::Streaming).run(6);
        let fm = full.maintenance.as_ref().unwrap();
        let sm = streaming.maintenance.as_ref().unwrap();
        assert!(fm.metrics.is_some() && sm.metrics.is_none());
        assert_eq!(
            fm.metrics_summary, sm.metrics_summary,
            "streaming accumulators must fold to the full-history digest"
        );
        assert_eq!(
            serde_json::to_string(&fm.report).unwrap(),
            serde_json::to_string(&sm.report).unwrap(),
            "the metrics mode must not perturb the run itself"
        );
        // ... and the same holds on the event engine.
        use tsa_event::LatencyModel;
        let async_base = || {
            base().execution(
                ExecutionModel::asynchronous(LatencyModel::uniform(0, 1500)).with_loss(0.02),
            )
        };
        let afull = async_base().run(6);
        let astream = async_base().metrics_mode(MetricsMode::Streaming).run(6);
        assert_eq!(
            afull.maintenance.as_ref().unwrap().metrics_summary,
            astream.maintenance.as_ref().unwrap().metrics_summary
        );
        assert!(astream.maintenance.unwrap().metrics.is_none());
    }

    #[test]
    fn scenario_run_exposes_the_harness_surface() {
        let mut run = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(2)
            .build();
        run.run_bootstrap();
        run.run(4);
        assert_eq!(run.node_count(), 48);
        assert_eq!(run.snapshots().len(), 48);
        assert!(run.round() > 0);
        let outcome = run.into_outcome();
        assert!(outcome.maintenance.is_some());
    }

    #[test]
    fn baseline_scenarios_measure_resilience() {
        for kind in [
            BaselineKind::HdGraph,
            BaselineKind::Spartan,
            BaselineKind::ChordSwarm,
            BaselineKind::StaticLds,
        ] {
            let outcome = Scenario::baseline(kind)
                .with_n(128)
                .churn(ChurnSpec::budget(32))
                .adversary(AdversarySpec::targeted(1, 9))
                .seed(3)
                .run(0);
            let b = outcome.baseline.expect("baseline outcome");
            assert_eq!(b.budget, 32);
            assert_eq!(b.resilience.nodes_before, 128);
            assert!(b.eclipse_budget > 0, "{kind:?} has isolated nodes");
        }
    }

    #[test]
    fn baseline_attacks_honour_the_adversary_seed_but_share_the_structure() {
        let base = Scenario::baseline(BaselineKind::HdGraph)
            .with_n(96)
            .churn(ChurnSpec::budget(24))
            .seed(8);
        let a = base.clone().adversary(AdversarySpec::random(1, 1)).run(0);
        let b = base.adversary(AdversarySpec::random(1, 2)).run(0);
        let (ab, bb) = (a.baseline.unwrap(), b.baseline.unwrap());
        // Same master seed → identical structure (eclipse budget is a pure
        // function of the graph).
        assert_eq!(ab.eclipse_budget, bb.eclipse_budget);
        // Different adversary seeds → different random removals. Removed
        // counts match (both spend the budget), but the survivors differ.
        assert_eq!(ab.resilience.removed, bb.resilience.removed);
        let same = Scenario::baseline(BaselineKind::HdGraph)
            .with_n(96)
            .churn(ChurnSpec::budget(24))
            .seed(8)
            .adversary(AdversarySpec::random(1, 1))
            .run(0);
        assert_eq!(
            same.baseline.unwrap().resilience.isolated_survivors,
            ab.resilience.isolated_survivors,
            "identical specs must reproduce identical trials"
        );
    }

    #[test]
    fn routing_default_replication_matches_routing_config_default() {
        let via_scenario = Scenario::routing(128).seed(3).run(0);
        let series = RoutableSeries::new(
            tsa_overlay::OverlayParams::with_default_c(128),
            3,
            (0..128u64).map(NodeId),
        );
        let spec = Scenario::routing(128).seed(3).spec().clone();
        let config =
            RoutingConfig::default().with_seed(spec.workload_seed_or_default() ^ 0x524F_5554);
        let direct = RoutingSim::new(&series, config).route_all(
            0,
            &uniform_workload(&series, 1, spec.workload_seed_or_default()),
        );
        let r = via_scenario.routing.unwrap();
        assert_eq!(r.total_copies, direct.total_copies);
        assert_eq!(r.delivered, direct.delivered);
    }

    #[test]
    fn routing_scenario_reports_exact_dilation() {
        let outcome = Scenario::routing(128)
            .with_replication(4)
            .holder_failure(0.25)
            .messages_per_node(1)
            .seed(7)
            .run(0);
        let r = outcome.routing.expect("routing outcome");
        assert_eq!(r.dilation, 2 * r.lambda as u64 + 2);
        assert!(r.delivery_rate > 0.9, "delivery {}", r.delivery_rate);
    }

    #[test]
    fn sampling_scenario_hits_every_node() {
        let outcome = Scenario::sampling(128).attempts(50_000).seed(5).run(0);
        let s = outcome.sampling.expect("sampling outcome");
        assert_eq!(s.distinct_nodes, 128);
        assert!(s.discard_rate < 0.6);
        assert!(s.total_variation < 0.1);
    }

    #[test]
    fn build_panics_for_one_shot_kinds() {
        let result = std::panic::catch_unwind(|| Scenario::routing(64).build());
        assert!(result.is_err());
    }

    #[test]
    fn build_panics_for_async_execution() {
        use tsa_event::LatencyModel;
        let result = std::panic::catch_unwind(|| {
            Scenario::maintained_lds(48)
                .execution(ExecutionModel::asynchronous(LatencyModel::constant(500)))
                .build()
        });
        assert!(
            result.is_err(),
            "async scenarios have no live round harness"
        );
    }

    #[test]
    fn zero_delay_async_outcome_matches_the_round_engine_byte_for_byte() {
        use tsa_event::LatencyModel;
        let base = || {
            Scenario::maintained_lds(48)
                .with_c(1.5)
                .with_tau(4)
                .with_replication(2)
                .seed(21)
        };
        let sync = base().run(6);
        let asynch = base()
            .execution(ExecutionModel::asynchronous(LatencyModel::constant(0)))
            .run(6);
        // The spec's execution field and the network-effect counters (only
        // asynchronous runs have a network model to count) are the *only*
        // differences.
        let mut normalized = asynch.clone();
        normalized.spec.execution = ExecutionModel::Rounds;
        let net_stats = normalized
            .maintenance
            .as_mut()
            .and_then(|m| m.net_stats.take())
            .expect("async outcomes carry network counters");
        assert_eq!(
            serde_json::to_string(&normalized).unwrap(),
            serde_json::to_string(&sync).unwrap(),
            "zero-delay async must reproduce the round engine exactly"
        );
        assert!(net_stats.sent > 0);
        assert_eq!(net_stats.lost, 0, "a lossless model loses nothing");
        assert!(!serde_json::to_string(&sync).unwrap().contains("execution"));
        assert!(serde_json::to_string(&asynch)
            .unwrap()
            .contains("execution"));
    }

    #[test]
    fn only_async_outcomes_expose_network_counters() {
        use tsa_event::{LatencyModel, NetModel, RegionAssign, Topology};
        let base = || {
            Scenario::maintained_lds(48)
                .with_c(1.5)
                .with_tau(4)
                .with_replication(2)
                .seed(9)
        };
        let sync = base().run(4);
        assert!(
            !serde_json::to_string(&sync).unwrap().contains("net_stats"),
            "round-engine outcomes must stay byte-stable: no net_stats key"
        );
        assert!(sync.maintenance.unwrap().net_stats.is_none());

        // A two-region topology with a lossy bridge: the cross-region
        // counters must surface in the outcome, and survive compaction into
        // BENCH artifacts.
        let intra = NetModel::new(LatencyModel::uniform(0, 800));
        let inter = NetModel {
            latency: LatencyModel::uniform(400, 1600),
            jitter: 0,
            loss: 0.05,
        };
        let asynch = base()
            .topology(Topology::regions(RegionAssign::halves(24), intra, inter))
            .run(4);
        let stats = asynch
            .to_compact()
            .maintenance
            .expect("maintained outcome")
            .net_stats
            .expect("async outcomes carry network counters");
        assert!(stats.sent > 0);
        assert!(
            stats.bridge_sent > 0,
            "a partitioned topology must route cross-region traffic"
        );
        assert!(stats.bridge_lost <= stats.bridge_sent);
        assert!(serde_json::to_string(&asynch)
            .unwrap()
            .contains("bridge_sent"));
    }

    #[test]
    fn an_empty_fault_plan_reproduces_the_round_engine_byte_for_byte() {
        // The scenario-level zero-fault anchor: installing FaultPlan::default()
        // routes the run onto the event engine with a zero-delay model, whose
        // only trace in the outcome is the spec's own `faults` field and the
        // extra (all-zero fault, zero-loss network) counters.
        use tsa_event::FaultPlan;
        let base = || {
            Scenario::maintained_lds(48)
                .with_c(1.5)
                .with_tau(4)
                .with_replication(2)
                .seed(21)
        };
        let sync = base().run(6);
        let faulted = base().faults(FaultPlan::default()).run(6);
        let mut normalized = faulted.clone();
        normalized.spec.faults = None;
        let m = normalized.maintenance.as_mut().unwrap();
        let net_stats = m.net_stats.take().expect("fault runs carry net counters");
        let fault_stats = m
            .fault_stats
            .take()
            .expect("fault runs carry fault counters");
        assert_eq!(
            serde_json::to_string(&normalized).unwrap(),
            serde_json::to_string(&sync).unwrap(),
            "an empty plan must not perturb the run"
        );
        assert_eq!(fault_stats.total(), 0, "an empty plan injects nothing");
        assert_eq!(net_stats.lost, 0);
    }

    #[test]
    fn a_drop_all_plan_perturbs_the_run_and_counts_its_drops() {
        use tsa_event::{FaultAction, FaultPlan, FaultRule};
        let base = || {
            Scenario::maintained_lds(48)
                .with_c(1.5)
                .with_tau(4)
                .with_replication(2)
                .seed(21)
        };
        let sync = base().run(6);
        let plan = FaultPlan::new().with_rule(
            FaultRule::every(FaultAction::Drop)
                .with_prob(0.05)
                .in_window(tsa_event::RoundWindow::starting_at(2)),
        );
        let faulted = base().faults(plan).run(6);
        let m = faulted.maintenance.as_ref().unwrap();
        let fs = m.fault_stats.expect("fault counters present");
        assert!(fs.dropped > 0, "a 5% drop plan must fire: {fs:?}");
        assert_eq!(
            fs.dropped,
            m.net_stats.unwrap().lost,
            "on a lossless model every lost message is an injected drop"
        );
        assert_ne!(
            m.metrics_summary,
            sync.maintenance.unwrap().metrics_summary,
            "dropping maintenance traffic must perturb the run"
        );
        // ... and the outcome replays from its own spec.
        let replay = Scenario::from_spec(faulted.spec.clone()).run(faulted.rounds);
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&faulted).unwrap(),
            "fault outcomes replay from their embedded spec"
        );
    }

    #[test]
    fn byzantine_scenarios_run_on_all_engines_and_replay_from_their_spec() {
        use tsa_core::{ByzantineSpec, MisbehaviorKind};
        use tsa_event::LatencyModel;
        let byz = ByzantineSpec::fraction(1, 8, MisbehaviorKind::ForgedPosition);
        let base = || {
            Scenario::maintained_lds(48)
                .with_c(1.5)
                .with_tau(4)
                .with_replication(2)
                .seed(13)
                .byzantine(byz)
        };
        // Round engine.
        let sync = base().run(6);
        assert_eq!(sync.spec.byzantine, Some(byz));
        assert_eq!(
            sync.maintenance.as_ref().unwrap().report.node_count,
            48,
            "byzantine nodes still occupy their slots"
        );
        // Event engine at zero delay: byzantine behaviour is part of the
        // node program, so the two engines coincide exactly as they do for
        // honest runs.
        let asynch = base()
            .execution(ExecutionModel::asynchronous(LatencyModel::constant(0)))
            .run(6);
        assert_eq!(
            serde_json::to_string(&sync.maintenance.as_ref().unwrap().report).unwrap(),
            serde_json::to_string(&asynch.maintenance.as_ref().unwrap().report).unwrap(),
            "zero-delay byzantine runs coincide across engines"
        );
        // A forged-position run must actually differ from the honest run.
        let honest = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(13)
            .run(6);
        assert_ne!(
            sync.maintenance.as_ref().unwrap().metrics_summary,
            honest.maintenance.unwrap().metrics_summary,
            "an eighth of the network forging positions must leave a trace"
        );
        // ... and the outcome replays from its own spec.
        let replay = Scenario::from_spec(sync.spec.clone()).run(sync.rounds);
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
    }

    #[test]
    fn build_panics_for_fault_plans() {
        use tsa_event::{FaultAction, FaultPlan, FaultRule};
        let result = std::panic::catch_unwind(|| {
            Scenario::maintained_lds(48)
                .faults(FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop)))
                .build()
        });
        assert!(result.is_err(), "fault plans need the event engine");
    }

    #[test]
    fn heavy_latency_async_runs_diverge_but_stay_well_formed() {
        use tsa_event::LatencyModel;
        let outcome = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(21)
            .execution(ExecutionModel::asynchronous(LatencyModel::uniform(0, 2500)).with_loss(0.05))
            .run(6);
        let m = outcome.maintenance.as_ref().expect("maintained outcome");
        assert_eq!(m.report.node_count, 48);
        assert!(m.metrics_summary.total_messages_sent > 0);
        // Multi-round delays + loss must actually perturb the run.
        let sync = Scenario::maintained_lds(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
            .seed(21)
            .run(6);
        assert_ne!(
            m.metrics_summary,
            sync.maintenance.unwrap().metrics_summary,
            "2.5-round delays with loss cannot be trace-identical to sync"
        );
        // The outcome replays from its own spec.
        let replay = Scenario::from_spec(outcome.spec.clone()).run(outcome.rounds);
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            serde_json::to_string(&outcome).unwrap(),
            "async outcomes replay from their embedded spec"
        );
    }
}
