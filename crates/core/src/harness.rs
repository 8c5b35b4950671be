//! The maintenance protocol wired to an adversary and a scheduler, plus the
//! routability / health reporting used by the experiments.
//!
//! There is one harness, [`Maintained`], generic over the [`Delivery`] its
//! [`World`] runs on; [`MaintenanceHarness`], [`AsyncMaintenanceHarness`] and
//! [`NetMaintenanceHarness`] name its three instantiations. The *same*
//! [`ProtocolNode`] state machine, genesis configuration, churn arbiter and
//! health reporting run under all of them:
//!
//! * on the lockstep simulator every message takes exactly one round;
//! * on `tsa-event`'s engine every message individually samples a latency
//!   (plus jitter) and may be lost — a run whose delays never exceed one
//!   round is bit-identical to the lockstep run at the same seed, everything
//!   beyond that measures how much asynchrony the two-steps-ahead
//!   maintenance actually tolerates;
//! * on `tsa-net`'s transport the messages are real length-prefixed frames
//!   over loopback TCP, scheduled by the wall clock. The harness records
//!   every message's fate; [`NetMaintenanceHarness::twin`] replays the
//!   recorded [`MessageTrace`] through the event engine from the run's own
//!   genesis and fault plan, re-executing it deterministically, which is how
//!   the twin tests pin the transport to the model.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use tsa_event::{
    EventConfig, FaultPlan, LatencyModel, MessageTrace, NetModel, Topology, VirtualTime,
};
use tsa_net::{Loopback, NetConfig, NetRunner};
use tsa_obs::ObsHandle;
use tsa_overlay::{Lds, OverlayGraph, Position};
use tsa_sim::{
    Adversary, ChurnRules, Delivery, Lateness, Lockstep, MetricsMode, NodeId, Round, SimConfig,
    World,
};

use crate::messages::ProtocolMsg;
use crate::node::ProtocolNode;
use crate::params::MaintenanceParams;
use crate::snapshot::NodeSnapshot;

/// Health report of the maintained overlay at one instant.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MaintenanceReport {
    /// The round the report was taken after.
    pub round: Round,
    /// The overlay epoch that round belongs to.
    pub epoch: u64,
    /// Nodes currently in the network.
    pub node_count: usize,
    /// Nodes that count as mature.
    pub mature_count: usize,
    /// Mature nodes that hold a non-empty neighbour set for the current epoch.
    pub participating: usize,
    /// `participating / mature_count`.
    pub participation_rate: f64,
    /// Whether the actual neighbour graph over participating nodes is
    /// connected.
    pub connected: bool,
    /// Fraction of participating nodes in the largest component.
    pub largest_component_fraction: f64,
    /// Mean degree of participating nodes.
    pub mean_degree: f64,
    /// Smallest swarm size of the *ideal* overlay over participating nodes
    /// (empty swarms make the overlay unroutable).
    pub min_swarm_size: usize,
    /// Maximum messages received by one node in the most recent round.
    pub max_congestion: usize,
}

impl MaintenanceReport {
    /// The routability criterion used by the experiments: every mature node is
    /// wired in, the graph is connected, and no swarm is empty.
    pub fn is_routable(&self) -> bool {
        self.connected && self.participation_rate > 0.9 && self.min_swarm_size > 0
    }
}

/// The maintenance protocol running in a [`World`] over the delivery `D`
/// against the adversary `A`.
pub struct Maintained<A: Adversary, D: Delivery<ProtocolMsg>> {
    sim: World<ProtocolNode, A, D>,
    params: MaintenanceParams,
    /// The harness's own grip on the observability sink (the world holds a
    /// clone): the protocol-level probes — sampling ages — live here, above
    /// the scheduler.
    obs: ObsHandle,
    /// The fault plan installed on a transport run, kept so it can hand it
    /// to its [`twin`](NetMaintenanceHarness::twin).
    faults: Option<FaultPlan>,
}

/// Everything read-only the world and its delivery offer — `round`,
/// `node_count`, `metrics`, `metrics_summary`, `last_metrics`, and the
/// scheduler's own `net_stats`, `fault_stats`, `wire_stats`, `trace`,
/// `peak_queue_depth`, … — is reached through the harness. Stepping is not:
/// the harness's own `run` / `step` carry the protocol-level probes.
impl<A: Adversary, D: Delivery<ProtocolMsg>> std::ops::Deref for Maintained<A, D> {
    type Target = World<ProtocolNode, A, D>;
    fn deref(&self) -> &Self::Target {
        &self.sim
    }
}

/// The maintenance protocol on the round-synchronous simulator.
pub type MaintenanceHarness<A> = Maintained<A, Lockstep>;

/// The maintenance protocol on the virtual-time event engine, under a
/// network model.
pub type AsyncMaintenanceHarness<A> = Maintained<A, VirtualTime<ProtocolMsg>>;

/// The maintenance protocol over loopback TCP.
pub type NetMaintenanceHarness<A> = Maintained<A, Loopback<ProtocolMsg>>;

/// The genesis [`SimConfig`] shared by every scheduler: same seed/hash-seed
/// derivation, same history window — so the three delivery policies start
/// from bit-identical worlds.
fn harness_sim_config(seed: u64, churn_rules: ChurnRules, lateness: Lateness) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_churn_rules(churn_rules)
        .with_lateness(lateness)
        .with_parallel(true)
        .with_history_window(64)
}

/// The node factory shared by every scheduler: genesis nodes (round 0) know
/// the initial member set, later joiners know nothing.
fn harness_factory(params: MaintenanceParams) -> tsa_sim::NodeFactory<ProtocolNode> {
    let n = params.overlay.n;
    let genesis: Arc<Vec<NodeId>> = Arc::new((0..n as u64).map(NodeId).collect());
    Box::new(move |id, round| {
        let genesis_ref = if round == 0 {
            Some(genesis.clone())
        } else {
            None
        };
        let mut node = ProtocolNode::new(params, genesis_ref);
        // The byzantine role is a pure function of the id, so every engine
        // (and a rejoining id) assigns it identically.
        if let Some(spec) = params.byzantine {
            if spec.is_byzantine(id) {
                node.set_byzantine(Some(spec.kind));
            }
        }
        node
    })
}

/// Builds the [`MaintenanceReport`] for one instant of a maintained overlay —
/// so "healthy" means the same thing under every scheduler.
fn build_report(
    params: &MaintenanceParams,
    hash_seed: u64,
    round: Round,
    snapshots: &[(NodeId, NodeSnapshot)],
    max_congestion: usize,
) -> MaintenanceReport {
    let epoch = round / 2;
    let node_count = snapshots.len();
    // Single pass: count the mature nodes and keep the participating
    // subset (no intermediate reference vectors, no set clones).
    let mut mature_count = 0usize;
    let mut participating: Vec<(NodeId, &NodeSnapshot)> = Vec::new();
    for (id, snap) in snapshots {
        if snap.mature {
            mature_count += 1;
            if snap.participating {
                participating.push((*id, snap));
            }
        }
    }
    let participating_ids: HashSet<NodeId> = participating.iter().map(|(id, _)| *id).collect();

    // The actual neighbour graph over participating nodes.
    let mut graph = OverlayGraph::with_vertices(participating_ids.iter().copied());
    for (id, snap) in &participating {
        for n in &snap.neighbors {
            if participating_ids.contains(n) {
                graph.add_edge(*id, *n);
            }
        }
    }
    let connected = !participating.is_empty() && graph.is_connected();
    let largest = if participating.is_empty() {
        0.0
    } else {
        graph.largest_component_fraction()
    };
    let mean_degree = if participating.is_empty() {
        0.0
    } else {
        participating.iter().map(|(_, s)| s.degree()).sum::<usize>() as f64
            / participating.len() as f64
    };

    // Ideal overlay over participating nodes: the smallest swarm size
    // determines whether routing can still make progress everywhere.
    let min_swarm_size = if participating.is_empty() {
        0
    } else {
        let lds = Lds::from_hash(
            params.overlay,
            participating_ids.iter().copied(),
            hash_seed,
            epoch,
        );
        lds.goodness_stats(&participating_ids, 0.75).min_swarm_size
    };

    let participation_rate = if mature_count == 0 {
        0.0
    } else {
        participating.len() as f64 / mature_count as f64
    };

    MaintenanceReport {
        round,
        epoch,
        node_count,
        mature_count,
        participating: participating.len(),
        participation_rate,
        connected,
        largest_component_fraction: largest,
        mean_degree,
        min_swarm_size,
        max_congestion,
    }
}

impl<A: Adversary, D: Delivery<ProtocolMsg>> Maintained<A, D> {
    /// Builds the world from a scheduler configuration and seeds the genesis
    /// node set.
    fn over(params: MaintenanceParams, adversary: A, config: D::Config) -> Self {
        let mut sim: World<_, _, D> = World::new(config, adversary, harness_factory(params));
        sim.seed_nodes(params.overlay.n);
        Maintained {
            sim,
            params,
            obs: ObsHandle::off(),
            faults: None,
        }
    }

    /// Attaches an observability sink to the world and the harness-level
    /// probes (pass [`ObsHandle::off`] to detach).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.sim.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Selects how the world retains per-round metrics. Call before
    /// running.
    pub fn set_metrics_mode(&mut self, mode: MetricsMode) {
        self.sim.set_metrics_mode(mode);
    }

    /// The protocol parameters.
    pub fn params(&self) -> &MaintenanceParams {
        &self.params
    }

    /// The current overlay epoch.
    pub fn epoch(&self) -> u64 {
        self.sim.round() / 2
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        if self.obs.is_on() {
            // The world's own `run` bypasses the harness-level probes.
            for _ in 0..rounds {
                self.step();
            }
        } else {
            self.sim.run(rounds);
        }
    }

    /// Runs the full churn-free bootstrap phase.
    pub fn run_bootstrap(&mut self) {
        self.run(self.params.bootstrap_rounds());
    }

    /// Executes a single round.
    pub fn step(&mut self) {
        self.sim.step();
        if self.obs.is_on() {
            self.probe_repair_sample_ages();
        }
    }

    /// Records the age — in maturity ages — of every sample surfaced by
    /// neighbour repair this round, keyed by the sampled node's region under
    /// the delivery's topology (region 0 wherever there is none, which keeps
    /// the probe bit-identical across schedulers for non-regional runs).
    fn probe_repair_sample_ages(&self) {
        let t = self.sim.round().saturating_sub(1);
        let maturity = self.params.maturity_age().max(1);
        for (_, node) in self.sim.nodes() {
            for &owner in node.repair_samples() {
                if let Some(joined) = self.sim.joined_at(owner) {
                    let age = t.saturating_sub(joined) / maturity;
                    let region = self.sim.region_of(owner);
                    self.obs
                        .observe_region("proto.repair_sample_age", region, age);
                }
            }
        }
    }

    /// Direct access to the underlying world.
    pub fn simulator(&self) -> &World<ProtocolNode, A, D> {
        &self.sim
    }

    /// Snapshots of every node's observable state.
    pub fn snapshots(&self) -> Vec<(NodeId, NodeSnapshot)> {
        let now = self.sim.round().saturating_sub(1);
        self.sim
            .nodes()
            .map(|(id, node)| (id, node.snapshot(now)))
            .collect()
    }

    /// The health report for the most recently completed round.
    pub fn report(&self) -> MaintenanceReport {
        self.report_over(&self.snapshots())
    }

    fn report_over(&self, snapshots: &[(NodeId, NodeSnapshot)]) -> MaintenanceReport {
        build_report(
            &self.params,
            self.sim.config().hash_seed,
            self.sim.round().saturating_sub(1),
            snapshots,
            self.sim
                .last_metrics()
                .map(|m| m.max_received_per_node)
                .unwrap_or(0),
        )
    }

    /// The byte-identity fingerprint of the run so far: the health report
    /// plus every node snapshot, serialized. Two runs with equal
    /// fingerprints are in the same protocol state, on whichever schedulers.
    pub fn fingerprint(&self) -> String {
        let snapshots = self.snapshots();
        format!(
            "{}|{}",
            self.report_over(&snapshots).to_value().to_json_compact(),
            snapshots.to_value().to_json_compact(),
        )
    }

    /// Per-node connect counts of the last round, keyed by node — the quantity
    /// bounded by Lemma 22.
    pub fn connect_load(&self) -> HashMap<NodeId, usize> {
        self.snapshots()
            .into_iter()
            .map(|(id, s)| (id, s.stats.connects_received_last_round))
            .collect()
    }

    /// The current positions (ideal overlay) of all participating mature
    /// nodes, for analyses that need them.
    pub fn ideal_positions(&self) -> Vec<(NodeId, Position)> {
        let epoch = self.epoch();
        let hash_seed = self.sim.config().hash_seed;
        self.snapshots()
            .into_iter()
            .filter(|(_, s)| s.mature && s.participating)
            .map(|(id, _)| {
                (
                    id,
                    Position::new(tsa_sim::rng::position_hash(hash_seed, id, epoch)),
                )
            })
            .collect()
    }
}

impl<A: Adversary> MaintenanceHarness<A> {
    /// Wires the protocol, an adversary and the simulator together from fully
    /// explicit parts. This is the low-level entry point the `tsa-scenario`
    /// builder sits on; experiments should prefer `tsa_scenario::Scenario`.
    pub fn assemble(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
    ) -> Self {
        let config = harness_sim_config(seed, churn_rules, lateness);
        Self::over(params, adversary, config)
    }
}

impl<A: Adversary> AsyncMaintenanceHarness<A> {
    /// Wires the protocol, an adversary, the event engine and a network
    /// model together from fully explicit parts — the async counterpart of
    /// [`MaintenanceHarness::assemble`], sharing its genesis configuration
    /// bit for bit.
    pub fn assemble(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        net: NetModel,
    ) -> Self {
        Self::assemble_with_topology(
            params,
            adversary,
            seed,
            churn_rules,
            lateness,
            Topology::Global(net),
        )
    }

    /// [`AsyncMaintenanceHarness::assemble`] over an explicit link
    /// [`Topology`] instead of a link-uniform model — two halves joined by a
    /// possibly scheduled bridge. A [`Topology::Global`] topology is
    /// `assemble` bit for bit.
    pub fn assemble_with_topology(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        topology: Topology,
    ) -> Self {
        let config =
            EventConfig::with_topology(harness_sim_config(seed, churn_rules, lateness), topology);
        Self::over(params, adversary, config)
    }

    /// Assembles the deterministic twin of a recorded transport run: the
    /// same genesis as [`assemble`](AsyncMaintenanceHarness::assemble), but
    /// every message's fate — lost, or delivered at which round boundary —
    /// comes verbatim from `trace` instead of a sampled network model. Used
    /// to replay a `tsa-net` loopback run inside the event engine and prove
    /// the two executions coincide.
    pub fn assemble_replay(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        trace: MessageTrace,
    ) -> Self {
        // The model itself is never consulted under replay; zero latency is
        // just the canonical placeholder.
        let mut harness = Self::assemble(
            params,
            adversary,
            seed,
            churn_rules,
            lateness,
            NetModel::new(LatencyModel::constant(0)),
        );
        harness.sim.set_replay(trace);
        harness
    }

    /// Installs a fault-injection plan (wired to the protocol's message
    /// adapter). Call before the first round. Composes with
    /// [`assemble_replay`](AsyncMaintenanceHarness::assemble_replay): under
    /// replay, drop/delay fates come from the trace while mutations and
    /// duplicates are re-applied, keeping the twin byte-aligned.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.sim.set_faults(plan, ProtocolMsg::fault_adapter());
    }

    /// Distinct directed communication edges of the last round that crossed
    /// a region boundary of the configured topology (0 for non-regional
    /// topologies, and before anything is archived).
    pub fn cross_region_edges(&self) -> usize {
        self.sim
            .records()
            .last()
            .map_or(0, |rec| self.sim.cross_region_edges(&rec.graph))
    }
}

impl<A: Adversary> NetMaintenanceHarness<A> {
    /// Wires the protocol, an adversary and the loopback transport together
    /// — the transport counterpart of [`MaintenanceHarness::assemble`],
    /// sharing its genesis configuration bit for bit. `round_duration` is
    /// the wall-clock length of one protocol round; on loopback a few
    /// milliseconds comfortably deliver each round's sends by the next
    /// boundary.
    pub fn assemble(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        round_duration: Duration,
    ) -> Self {
        let config = NetConfig::new(harness_sim_config(seed, churn_rules, lateness))
            .with_round_duration(round_duration);
        Self::over(params, adversary, config)
    }

    /// Installs a fault-injection plan (wired to the protocol's message
    /// adapter). Call before the first round. The same plan installed on an
    /// [`AsyncMaintenanceHarness`] takes byte-identical decisions, because
    /// both schedulers assign the same sequence numbers.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.sim
            .set_faults(plan.clone(), ProtocolMsg::fault_adapter());
        self.faults = Some(plan);
    }

    /// The deterministic twin of this run, built from the run itself: the
    /// same parameters, seed, churn rules and lateness, the fate trace
    /// recorded so far, and the installed fault plan. Only the adversary is
    /// passed in — a fresh instance of the one this run was assembled with.
    /// Running the twin for as many rounds as this harness has run must
    /// reproduce its [`fingerprint`](Maintained::fingerprint) and membership
    /// exactly.
    pub fn twin(&self, adversary: A) -> AsyncMaintenanceHarness<A> {
        let config = self.sim.config();
        let mut twin = AsyncMaintenanceHarness::assemble_replay(
            self.params,
            adversary,
            config.seed,
            config.churn_rules,
            config.lateness,
            self.trace(),
        );
        if let Some(plan) = &self.faults {
            twin.set_faults(plan.clone());
        }
        twin
    }

    /// Direct access to the underlying transport runtime.
    pub fn runner(&self) -> &NetRunner<ProtocolNode, A> {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_sim::NullAdversary;

    fn small_params() -> MaintenanceParams {
        MaintenanceParams::new(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
    }

    fn without_churn(params: MaintenanceParams, seed: u64) -> MaintenanceHarness<NullAdversary> {
        MaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
        )
    }

    #[test]
    fn bootstrap_produces_a_connected_participating_overlay() {
        let params = small_params();
        let mut h = without_churn(params, 1);
        h.run_bootstrap();
        // Run a couple of epochs beyond the bootstrap so the overlay is fully
        // CREATE-driven rather than genesis-driven.
        h.run(6);
        let report = h.report();
        assert_eq!(report.node_count, 48);
        assert_eq!(report.mature_count, 48);
        assert!(
            report.participation_rate > 0.95,
            "participation {} too low: {report:?}",
            report.participation_rate
        );
        assert!(report.connected, "overlay must be connected: {report:?}");
        assert!(report.min_swarm_size > 0);
        assert!(report.is_routable());
    }

    #[test]
    fn overlay_is_rebuilt_every_epoch() {
        let params = small_params();
        let mut h = without_churn(params, 2);
        h.run_bootstrap();
        h.run(4);
        let a = h.ideal_positions();
        h.run(2);
        let b = h.ideal_positions();
        let map_a: HashMap<NodeId, Position> = a.into_iter().collect();
        let moved = b
            .iter()
            .filter(|(id, p)| {
                map_a
                    .get(id)
                    .map(|q| q.distance(*p) > 1e-9)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            moved > 40,
            "positions must be completely re-drawn every epoch, only {moved} moved"
        );
    }

    #[test]
    fn report_before_any_round_is_safe() {
        let params = small_params();
        let h = without_churn(params, 3);
        let report = h.report();
        assert_eq!(report.node_count, 48);
        // Nothing has run yet, so nobody participates.
        assert!(!report.is_routable() || report.participating > 0);
    }

    #[test]
    fn zero_latency_async_report_matches_the_round_harness() {
        let params = small_params();
        let mut sync = without_churn(params, 17);
        sync.run_bootstrap();
        sync.run(6);

        let mut asynch = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            17,
            params.paper_churn_rules(),
            params.paper_lateness(),
            NetModel::new(LatencyModel::constant(0)),
        );
        asynch.run_bootstrap();
        asynch.run(6);

        assert_eq!(
            serde_json::to_string(&sync.report()).unwrap(),
            serde_json::to_string(&asynch.report()).unwrap(),
            "a zero-delay event run is the round model"
        );
        assert_eq!(sync.metrics().summary(), asynch.metrics().summary());
    }

    #[test]
    fn bounded_asynchrony_keeps_the_overlay_routable() {
        // Uniform delays up to a round and a half: messages straddle at
        // most one extra boundary. The maintenance protocol holds two steps
        // ahead, so the overlay must stay routable.
        let params = small_params();
        let mut h = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            3,
            params.paper_churn_rules(),
            params.paper_lateness(),
            NetModel::new(LatencyModel::uniform(0, 1500)),
        );
        h.run_bootstrap();
        h.run(8);
        let report = h.report();
        assert_eq!(report.node_count, 48);
        assert!(
            report.is_routable(),
            "sub-round asynchrony must not break the overlay: {report:?}"
        );
    }

    #[test]
    fn the_overlay_survives_a_real_transport() {
        // A small overlay, bootstrap plus a few maintained rounds, entirely
        // over loopback sockets: the protocol must come out routable, and
        // real frames must have moved. The round is long on purpose: the
        // test checks frames and the trace, not wall time, and the poller
        // shares two cores with the rest of this binary's tests — at 15 ms
        // a debug build starved it into late frames in one run of three.
        let params = MaintenanceParams::new(16)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2);
        let mut h = NetMaintenanceHarness::assemble(
            params,
            NullAdversary,
            17,
            params.paper_churn_rules(),
            params.paper_lateness(),
            Duration::from_millis(100),
        );
        h.run_bootstrap();
        h.run(4);
        let report = h.report();
        assert_eq!(report.node_count, 16);
        assert!(
            report.is_routable(),
            "the loopback transport must sustain the overlay: {report:?}"
        );
        let wire = h.wire_stats();
        assert!(wire.frames_sent > 0 && wire.frames_received > 0);
        assert_eq!(h.trace().len() as u64, h.net_stats().sent);
    }
}
