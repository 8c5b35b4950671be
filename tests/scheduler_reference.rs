//! The schedulers against a reference simple enough to be obviously right.
//!
//! [`Reference`] is the paper's round model written down naively: a
//! `HashMap` of inboxes per round, nodes in a `BTreeMap`, everything
//! sequential, nothing pooled or recycled. It shares only the rules
//! themselves with the optimized world — the churn arbiter
//! (`apply_churn_plan`), the activation (`run_activation`), the fault
//! injector's copies and decisions (`FaultInjector::copies`), the network
//! model's per-message fate (`NetModel::route`) and the metric
//! definitions — and none of its bookkeeping. The lockstep [`Simulator`] and
//! a zero-latency [`EventSimulator`] must match it row for row, at every
//! thread cap — under a flood that churns by what the archives show, and
//! under a protocol that addresses nodes that are not members (yet, any
//! more, or ever), one payload per send and as payloads shared between sends.
//! So must an [`EventSimulator`] whose copies take up to three rounds, are
//! lost, duplicated, mutated or delayed 70 rounds.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use rand::Rng;
use two_steps_ahead::event::{
    EventConfig, EventSimulator, FaultAction, FaultAdapter, FaultInjector, FaultPlan, FaultRule,
    LatencyModel, NetModel, TICKS_PER_ROUND,
};
use two_steps_ahead::sim::knowledge::{KnowledgeView, MemberInfo, RoundRecord};
use two_steps_ahead::sim::{
    apply_churn_plan, run_activation, Adversary, ChurnBudget, ChurnOutcome, ChurnPlan, ChurnRules,
    Ctx, Delivery, Envelope, JoinPlan, Lateness, NodeFactory, NodeId, PlanScratch, Process, Round,
    RoundMetrics, SimConfig, Simulator, World,
};

#[derive(Default, Debug)]
struct Fates {
    to_joiners: usize,
    to_departed: usize,
    to_nobody: usize,
}

/// One round's copies per receiver, in send order.
type Mail<M> = HashMap<NodeId, Vec<Envelope<M>>>;

/// The naive scheduler. Test code only: it is the reference, not an engine.
struct Reference<P: Process, A: Adversary> {
    config: SimConfig,
    adversary: A,
    factory: NodeFactory<P>,
    /// `id → (joined_at, state)`; iteration order is activation order.
    nodes: BTreeMap<NodeId, (Round, P)>,
    members: BTreeMap<NodeId, MemberInfo>,
    /// The network every send crosses: zero latency unless
    /// [`with_network`](Self::with_network) says otherwise.
    net: NetModel,
    faults: FaultInjector<P::Msg>,
    /// The sequence number of the next copy.
    seq: u64,
    /// Copies in flight by delivery round.
    in_flight: BTreeMap<Round, Mail<P::Msg>>,
    records: Vec<RoundRecord>,
    rows: Vec<String>,
    /// How many of the messages due so far went to a receiver that joined
    /// in the very round they arrived, had departed by then, or was not a
    /// member at all.
    fates: Fates,
    /// Copies a member read 64 or more rounds after they were sent.
    read_far: usize,
    budget: ChurnBudget,
    next_id: u64,
    round: Round,
}

impl<P: Process, A: Adversary> Reference<P, A> {
    fn new(config: SimConfig, adversary: A, factory: NodeFactory<P>, n: u64) -> Self {
        let nodes = (0..n).map(|i| (NodeId(i), (0, factory(NodeId(i), 0))));
        Reference {
            nodes: nodes.collect(),
            members: (0..n)
                .map(|i| (NodeId(i), MemberInfo { joined_at: 0 }))
                .collect(),
            net: NetModel::new(LatencyModel::constant(0)),
            faults: FaultInjector::new(config.seed),
            seq: 0,
            in_flight: BTreeMap::new(),
            records: Vec::new(),
            rows: Vec::new(),
            fates: Fates::default(),
            read_far: 0,
            budget: ChurnBudget::new(),
            next_id: n,
            round: 0,
            config,
            adversary,
            factory,
        }
    }

    /// Sends `net` copies through and lets `plan` fault them.
    fn with_network(
        mut self,
        net: NetModel,
        plan: FaultPlan,
        adapter: FaultAdapter<P::Msg>,
    ) -> Self {
        self.net = net;
        self.faults.install(plan, adapter);
        self
    }

    /// Messages sent and not yet delivered or dropped.
    fn queued(&self) -> usize {
        let rounds = self.in_flight.values();
        rounds.flat_map(HashMap::values).map(Vec::len).sum()
    }

    fn step(&mut self) {
        let t = self.round;
        let rules = self.config.churn_rules;
        let mut metrics = RoundMetrics::new(t);

        // Churn: O_t leaves, J_t joins, before anything is delivered.
        let mut outcome = ChurnOutcome::default();
        if t >= rules.bootstrap_rounds {
            let view = KnowledgeView::new(
                t,
                self.config.lateness,
                &self.records,
                &self.members,
                self.budget.remaining(t, &rules),
                rules.min_bootstrap_age,
            );
            let plan = self.adversary.plan(t, &view);
            apply_churn_plan(
                t,
                plan,
                &rules,
                &mut self.budget,
                &mut self.members,
                &mut self.next_id,
                &mut PlanScratch::default(),
                &mut outcome,
            );
        }
        for id in &outcome.departed {
            self.nodes.remove(id);
        }
        for &(id, _) in &outcome.joined {
            self.nodes.insert(id, (t, (self.factory)(id, t)));
        }
        metrics.departures = outcome.departed.len();
        metrics.joins = outcome.joined.len();
        metrics.node_count = self.nodes.len();

        // Deliver: the copies due now reach the members, the rest drop.
        let mut inboxes = self.in_flight.remove(&t).unwrap_or_default();
        let mut rec = RoundRecord::default();
        rec.graph.round = t;
        let mut lost = 0;
        for (&id, (joined_at, process)) in self.nodes.iter_mut() {
            let inbox = inboxes.remove(&id).unwrap_or_default();
            if *joined_at == t && t > 0 {
                self.fates.to_joiners += inbox.len();
            }
            self.read_far += inbox.iter().filter(|env| t - env.sent_at >= 64).count();
            let sponsored: Vec<NodeId> = outcome
                .joined
                .iter()
                .filter(|&&(_, bootstrap)| bootstrap == id)
                .map(|&(joiner, _)| joiner)
                .collect();
            let (out, digest) = run_activation(
                process,
                id,
                t,
                *joined_at,
                &sponsored,
                self.config.seed,
                self.config.hash_seed,
                &inbox,
                Vec::new(),
                true,
            );
            let receivers: BTreeSet<NodeId> = out.iter().map(|&(to, _)| to).collect();
            metrics.record_received(inbox.len());
            metrics.record_sent(out.len(), receivers.len());
            rec.graph.edges.extend(receivers.iter().map(|&to| (id, to)));
            rec.graph.members.push(id);
            rec.digests.push((id, digest));
            // Each send becomes its numbered copies; each copy is lost or
            // read at the first boundary at or past its arrival tick, never
            // at its own send round's.
            for (to, payload) in out {
                for copy in self.faults.copies(&mut self.seq, t, id, to, &payload) {
                    let fault_delay = match copy.fault {
                        Some(FaultAction::Drop) => None,
                        Some(FaultAction::Delay { ticks }) => Some(ticks),
                        _ => Some(0),
                    };
                    let route = self.net.route(self.config.seed, copy.seq);
                    let Some(delay) = fault_delay.zip(route).map(|(f, d)| f + d) else {
                        lost += 1;
                        continue;
                    };
                    let at = (t * TICKS_PER_ROUND + delay).div_ceil(TICKS_PER_ROUND);
                    let payload = copy.mutated.unwrap_or_else(|| payload.clone());
                    let env = Envelope::new(id, to, t, payload);
                    let due = self.in_flight.entry(at.max(t + 1)).or_default();
                    due.entry(to).or_default().push(env);
                }
            }
        }
        // Copies the network lost count in their send round.
        metrics.messages_dropped = inboxes.values().map(Vec::len).sum::<usize>() + lost;
        for (id, unread) in &inboxes {
            if outcome.departed.contains(id) {
                self.fates.to_departed += unread.len();
            } else {
                self.fates.to_nobody += unread.len();
            }
        }
        self.rows
            .push(row(&format!("{:?}", metrics.finish()), &rec));
        self.records.push(rec);
        self.round += 1;
    }
}

/// One round as the comparison sees it: the metrics row, the state digests
/// and the sorted edge list.
fn row(metrics: &str, rec: &RoundRecord) -> String {
    format!("{metrics}|{:?}|{:?}", rec.digests, rec.graph.edges)
}

/// An envelope's send round and receiver, for a digest to fold in: every
/// scheduler must hand each copy the ones the naive model gives it.
fn stamp<M>(env: &Envelope<M>) -> u64 {
    env.sent_at.rotate_left(20) ^ env.to.raw().rotate_left(40)
}

/// A flood with everything a scheduler can get wrong in it: sends to ids that
/// never existed and to departed peers, duplicate receivers, per-node RNG
/// draws, sponsored joiners, and a digest that folds the inbox in order, each
/// copy's send round and receiver too.
#[derive(Default)]
struct Flood {
    known: Vec<NodeId>,
    heard: u64,
}

impl Process for Flood {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        for env in inbox {
            self.heard = self.heard.rotate_left(5) ^ env.payload ^ env.from.raw() ^ stamp(env);
            if !self.known.contains(&env.from) {
                self.known.push(env.from);
            }
        }
        self.known.extend_from_slice(ctx.sponsored());
        let me = ctx.id().raw();
        ctx.send(NodeId(me + 1), self.heard);
        ctx.send(NodeId(me.wrapping_sub(1)), self.heard);
        if !self.known.is_empty() {
            let peer = self.known[ctx.rng.gen_range(0..self.known.len())];
            ctx.send(peer, self.heard);
            ctx.send(peer, me);
        }
    }
    fn state_digest(&self) -> u64 {
        self.heard
    }
}

/// Churns by what the late archives show — the most-messaged node of the
/// newest visible graph and the node with the largest visible digest — so a
/// scheduler that archives anything differently runs a different adversary.
struct LateChurn;

impl Adversary for LateChurn {
    fn plan(&mut self, t: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
        let mut departures = Vec::new();
        if let Some(graph) = view.latest_topology() {
            departures.extend(
                graph
                    .members
                    .iter()
                    .copied()
                    .max_by_key(|&v| graph.in_degree(v)),
            );
            let states = t.saturating_sub(view.lateness().state);
            departures.extend(
                graph
                    .members
                    .iter()
                    .copied()
                    .max_by_key(|&v| view.state_digest_at(states, v)),
            );
        }
        let bootstrap = view.eligible_bootstraps().into_iter().next();
        let joins = bootstrap
            .into_iter()
            .flat_map(|b| [JoinPlan { bootstrap: b }; 2]);
        ChurnPlan {
            departures,
            joins: joins.collect(),
        }
    }
}

const NODES: usize = 700; // ~4 messages each: past the parallel threshold
const ROUNDS: u64 = 10;

fn config(seed: u64) -> SimConfig {
    let mut config = SimConfig::default()
        .with_seed(seed)
        .with_parallel(true)
        .with_lateness(Lateness {
            topology: 2,
            state: 3,
        })
        .with_churn_rules(ChurnRules {
            max_events: Some(6),
            window: 2,
            bootstrap_rounds: 2,
            ..ChurnRules::default()
        });
    config.record_digests = true;
    config
}

fn factory<P: Process + Default>() -> NodeFactory<P> {
    Box::new(|_, _| P::default())
}

/// One round of a world, printed the way the reference prints itself.
fn last_row<P: Process, A: Adversary, D: Delivery<P::Msg>>(world: &World<P, A, D>) -> String {
    let metrics = world.metrics().rounds().last().expect("a round ran");
    let rec = world.records().last().expect("a round ran");
    row(&format!("{metrics:?}"), rec)
}

/// Runs a world and prints every round of it.
fn rows_of<P: Process, A: Adversary, D: Delivery<P::Msg>>(
    mut world: World<P, A, D>,
    nodes: usize,
    rounds: u64,
) -> Vec<String> {
    world.seed_nodes(nodes);
    let steps = (0..rounds).map(|_| {
        world.step();
        last_row(&world)
    });
    steps.collect()
}

#[test]
fn both_deterministic_schedulers_match_the_naive_reference() {
    for seed in [3, 29, 1729] {
        let mut reference =
            Reference::new(config(seed), LateChurn, factory::<Flood>(), NODES as u64);
        for _ in 0..ROUNDS {
            reference.step();
        }
        let churned: usize = reference
            .records
            .iter()
            .map(|r| r.graph.members.len())
            .sum();
        assert_ne!(churned, NODES * ROUNDS as usize, "the adversary churned");
        for cap in [1usize, 2, 4] {
            let (lockstep, event) = rayon::with_thread_cap(cap, || {
                let instant = NetModel::new(LatencyModel::constant(0));
                (
                    rows_of(
                        Simulator::new(config(seed), LateChurn, factory::<Flood>()),
                        NODES,
                        ROUNDS,
                    ),
                    rows_of(
                        EventSimulator::new(
                            EventConfig::new(config(seed), instant),
                            LateChurn,
                            factory::<Flood>(),
                        ),
                        NODES,
                        ROUNDS,
                    ),
                )
            });
            for (t, expected) in reference.rows.iter().enumerate() {
                assert_eq!(
                    &lockstep[t], expected,
                    "lockstep, seed {seed}, cap {cap}, round {t}"
                );
                assert_eq!(
                    &event[t], expected,
                    "event, seed {seed}, cap {cap}, round {t}"
                );
            }
        }
    }
}

/// Addresses, every round, its `REACH` neighbours by identifier on either
/// side (the nearest one twice) and an identifier nobody will ever own. The
/// youngest nodes thereby write to the identifiers the adversary hands out
/// next round and the round after, node 0 to the far end of the id space
/// (`u64::MAX` and below), and everybody to whoever is removed next. The
/// digest folds the inbox in order, each copy's send round and receiver too.
#[derive(Default)]
struct Probe {
    heard: u64,
}

const REACH: u64 = 4;
const NEVER_ASSIGNED: NodeId = NodeId(1 << 40);

impl Process for Probe {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        for env in inbox {
            self.heard = self.heard.rotate_left(7) ^ env.payload ^ env.from.raw() ^ stamp(env);
        }
        let me = ctx.id().raw();
        for d in 1..=REACH {
            ctx.send(NodeId(me + d), self.heard ^ d);
            ctx.send(NodeId(me.wrapping_sub(d)), self.heard);
        }
        ctx.send(NodeId(me + 1), ctx.round());
        ctx.send(NEVER_ASSIGNED, me);
    }
    fn state_digest(&self) -> u64 {
        self.heard
    }
}

/// [`Probe`]'s receiver list — duplicates, same-round joiners, departed
/// peers, an identifier nobody owns — addressed through the outbox's shared
/// payloads instead of one payload per send: one `broadcast`, then two
/// `share`d payloads interleaved receiver by receiver. Which of the two a
/// receiver folds first is send order, so handles sent out of order show.
#[derive(Default)]
struct SharedProbe {
    heard: u64,
}

impl Process for SharedProbe {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        for env in inbox {
            self.heard = self.heard.rotate_left(7) ^ env.payload ^ env.from.raw() ^ stamp(env);
        }
        let me = ctx.id().raw();
        let near = (1..=REACH).flat_map(|d| [NodeId(me + d), NodeId(me.wrapping_sub(d))]);
        let receivers: Vec<NodeId> = near.chain([NodeId(me + 1), NEVER_ASSIGNED]).collect();
        ctx.broadcast(receivers.iter().copied(), self.heard);
        ctx.broadcast([], me);
        let (state, name) = (ctx.share(!self.heard), ctx.share(me));
        for &to in &receivers {
            ctx.send_shared(to, state);
            ctx.send_shared(to, name);
        }
    }
    fn state_digest(&self) -> u64 {
        self.heard
    }
}

/// Every round: the oldest member and one from the middle leave, two join.
struct SteadyChurn;

impl Adversary for SteadyChurn {
    fn plan(&mut self, _t: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
        let members: Vec<NodeId> = view.members().map(|(id, _)| id).collect();
        let bootstrap = view.eligible_bootstraps()[1];
        ChurnPlan {
            departures: vec![members[0], members[members.len() / 2]],
            joins: vec![JoinPlan { bootstrap }; 2],
        }
    }
}

const PROBES: usize = 256; // 11+ messages each: past the parallel threshold

fn steady_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::default()
        .with_seed(seed)
        .with_parallel(true)
        .with_churn_rules(ChurnRules {
            max_events: Some(8),
            window: 2,
            bootstrap_rounds: 2,
            ..ChurnRules::default()
        });
    config.record_digests = true;
    config
}

/// Both schedulers against the reference under [`SteadyChurn`], for a
/// protocol that writes to non-members of every kind.
fn sends_to_non_members_match_the_reference<P: Process + Default>() {
    const ROUNDS: u64 = 8;
    let config = || steady_config(29);

    let mut reference = Reference::new(config(), SteadyChurn, factory::<P>(), PROBES as u64);
    let mut queued = Vec::new();
    for _ in 0..ROUNDS {
        reference.step();
        queued.push(reference.queued());
    }
    // The case list of the test, as the reference saw it: every kind of
    // non-member got mail in the run.
    let fates = &reference.fates;
    assert!(fates.to_joiners > 0, "{fates:?}");
    assert!(fates.to_departed > 0, "{fates:?}");
    assert!(fates.to_nobody > 0, "{fates:?}");

    for cap in [1usize, 2, 4] {
        rayon::with_thread_cap(cap, || {
            let mut lockstep = Simulator::new(config(), SteadyChurn, factory::<P>());
            lockstep.seed_nodes(PROBES);
            for (t, expected) in reference.rows.iter().enumerate() {
                lockstep.step();
                assert_eq!(&last_row(&lockstep), expected, "cap {cap}, round {t}");
                assert_eq!(
                    lockstep.in_flight().due(),
                    queued[t],
                    "in flight after round {t}, cap {cap}"
                );
            }
            let instant = NetModel::new(LatencyModel::constant(0));
            let event = EventSimulator::new(
                EventConfig::new(config(), instant),
                SteadyChurn,
                factory::<P>(),
            );
            let event = rows_of(event, PROBES, ROUNDS);
            assert_eq!(event, reference.rows, "event, cap {cap}");
        });
    }
}

#[test]
fn lockstep_matches_the_reference_on_sends_to_non_members() {
    sends_to_non_members_match_the_reference::<Probe>();
}

#[test]
fn shared_payloads_match_the_reference_on_sends_to_non_members() {
    sends_to_non_members_match_the_reference::<SharedProbe>();
}

/// Sub-round to three-round latency, with jitter and loss.
fn multi_round_net() -> NetModel {
    NetModel {
        latency: LatencyModel::uniform(200, 2600),
        jitter: 300,
        loss: 0.02,
    }
}

/// Duplicates, mutations, and copies delayed 70 rounds: each of those is
/// filed, with a payload of its own, in the record of a round far ahead of
/// the next one.
fn late_plan() -> FaultPlan {
    let delay = FaultAction::Delay {
        ticks: 70 * TICKS_PER_ROUND,
    };
    FaultPlan::new()
        .with_rule(FaultRule::every(FaultAction::Duplicate).with_prob(0.05))
        .with_rule(FaultRule::every(FaultAction::Mutate).with_prob(0.05))
        .with_rule(FaultRule::every(delay).with_prob(0.02))
}

/// Adds 1000 to a mutated payload.
const PLUS_1000: FaultAdapter<u64> = FaultAdapter {
    kind_of: |_| 0,
    mutate: |payload, _| {
        *payload = payload.wrapping_add(1000);
        true
    },
};

/// Long enough that copies delayed 70 rounds are read.
const LATE_ROUNDS: u64 = 80;

/// The event engine against the reference under [`SteadyChurn`] when copies
/// span rounds: every copy [`multi_round_net`] delivers and [`late_plan`]
/// faults is read by whoever is a member at its delivery round, in send
/// order.
fn late_copies_match_the_reference<P: Process<Msg = u64> + Default>(nodes: usize) {
    for seed in [3, 29, 1729] {
        let config = || steady_config(seed);
        let mut reference = Reference::new(config(), SteadyChurn, factory::<P>(), nodes as u64)
            .with_network(multi_round_net(), late_plan(), PLUS_1000);
        for _ in 0..LATE_ROUNDS {
            reference.step();
        }
        let faults = reference.faults.stats();
        assert!(faults.duplicated > 0 && faults.mutated > 0, "{faults:?}");
        assert!(reference.read_far > 0, "seed {seed}: no far copy was read");
        for cap in [1usize, 2, 4] {
            let event = rayon::with_thread_cap(cap, || {
                let config = EventConfig::new(config(), multi_round_net());
                let mut event = EventSimulator::new(config, SteadyChurn, factory::<P>());
                event.set_faults(late_plan(), PLUS_1000);
                rows_of(event, nodes, LATE_ROUNDS)
            });
            for (t, expected) in reference.rows.iter().enumerate() {
                assert_eq!(&event[t], expected, "seed {seed}, cap {cap}, round {t}");
            }
        }
    }
}

#[test]
fn copies_spanning_rounds_match_the_reference_under_a_flood() {
    late_copies_match_the_reference::<Flood>(NODES);
}

#[test]
fn copies_spanning_rounds_match_the_reference_on_shared_payloads() {
    // 30 messages each: still past the parallel threshold.
    late_copies_match_the_reference::<SharedProbe>(PROBES / 2);
}
