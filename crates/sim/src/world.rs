//! The one round loop every scheduler runs, and the [`Delivery`] policy that
//! is the only thing the schedulers differ in.
//!
//! The paper has one algorithm: at the beginning of round `t` the adversary
//! removes `O_t ⊂ V_{t-1}` and proposes joins `J_t` (each via a bootstrap
//! node at least `min_bootstrap_age` rounds old), every surviving node then
//! activates exactly once with the messages that reached it, and the
//! communication graph `G_t` is archived and shown to the adversary with
//! lateness `a`, node-state digests with lateness `b`. [`World`] is that
//! algorithm — membership, churn through [`apply_churn_plan`], the compute
//! phase, metrics, records and observability — with *how a sent message
//! becomes a delivered one* injected as a [`Delivery`]:
//!
//! * [`Lockstep`](crate::Lockstep) — the paper's synchronous model;
//! * `tsa-event`'s `VirtualTime` — per-message latency, jitter, loss and
//!   fault plans;
//! * `tsa-net`'s `Loopback` — real frames over loopback TCP sockets.
//!
//! # Phases of a round
//!
//! [`World::step`] is the same five phases on every scheduler (costs,
//! allocation lifecycle and the determinism argument: DESIGN.md, "Execution
//! models" and "Performance model"):
//!
//! 1. **churn** — the adversary plans against its lateness-filtered
//!    [`KnowledgeView`], the shared arbiter validates and applies the plan,
//!    slots and their inboxes are retired and spawned; what a departed
//!    slot's inbox held unread is dropped. No delivery method runs here:
//!    the membership at the boundary is all a delivery needs;
//! 2. **deliver** — [`Delivery::deliver`] settles every slot's inbox, given
//!    the boundary's [`SlotIndex`]; sponsored joiners are grouped per
//!    bootstrap node;
//! 3. **compute** — every node activates once through [`activate`] on
//!    [`rayon::for_each_index_mut`], whose worker count follows the
//!    `TSA_THREADS` / [`rayon::with_thread_cap`] budget. Its worker first
//!    builds the node's envelopes from its inbox in the worker's own buffer;
//!    the activation reads them, writes its own slot and draws from an RNG
//!    stream that depends only on `(seed, node, round)`, so where and in
//!    which order activations run cannot change an output bit;
//! 4. **collect and send** — in id order: the node's inbox is consumed,
//!    metrics, the communication graph, digests, then [`Delivery::send`]
//!    routes the node's [`Outbox`] (each distinct payload once, 16 bytes per
//!    copy) and the world counts what it left there; once every node has
//!    sent, the world places the outboxes behind
//!    [`Delivery::due_next`]'s copies (the rule: [`InFlight`]'s module
//!    docs). Everything order-sensitive (sequence numbers, fates, the edge
//!    list, every deterministic observation) happens here and in the other
//!    sequential phases;
//! 5. **finish** — trim the record window, [`Delivery::end_round`] (its
//!    losses are the round's too), fold the metrics row, emit the `proto.*`
//!    observations.
//!
//! Every inbox lists its messages in global send order — sender-id order and,
//! per sender, the order of its [`Ctx::send`](crate::Ctx::send) calls — on
//! every delivery: all of them fill the world's one [`InFlight`] layout,
//! which the compute phase alone reads. That makes the order in which a
//! protocol sends part of its observable behaviour (which duplicate a
//! receiver sees first, which RNG draw serves which copy): send order is the
//! determinism contract between protocol and scheduler.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut, Range};

use tsa_obs::ObsHandle;

use crate::adversary::Adversary;
use crate::churn::{apply_churn_plan, ChurnBudget, ChurnOutcome, ChurnPlan, PlanScratch};
use crate::config::SimConfig;
use crate::ids::{NodeId, Round};
use crate::in_flight::InFlight;
use crate::knowledge::{CommGraph, KnowledgeView, MemberInfo, RoundRecord};
use crate::message::Envelope;
use crate::metrics::{
    record_round_obs, MetricsHistory, MetricsMode, MetricsSummary, RoundMetrics, StreamingMetrics,
};
use crate::node::{activate, Outbox, Process};
use crate::slot_index::SlotIndex;

/// Creates the protocol state for a node that joins the network.
///
/// The factory receives the new node's identifier and the round it joins in.
/// It must not embed any knowledge of other nodes (a joining node knows
/// nothing until somebody messages it); protocol-level configuration is fine.
pub type NodeFactory<P> = Box<dyn Fn(NodeId, Round) -> P + Send>;

/// The span names a delivery's churn, deliver and send phases are timed
/// under. The compute phase is `sim.compute` on every scheduler.
pub struct PhaseSpans {
    /// Phase 1, adversarial churn.
    pub churn: &'static str,
    /// Phase 2, [`Delivery::deliver`] plus the sponsor grouping.
    pub deliver: &'static str,
    /// Phase 4, the id-order collect loop around [`Delivery::send`], and the
    /// placement after it.
    pub send: &'static str,
}

/// How messages travel between two rounds of a [`World`] — the one thing the
/// three schedulers differ in.
///
/// What reached a node is its inbox in the world's [`InFlight`]. The world
/// places each round's sends there itself: whatever [`send`](Delivery::send)
/// leaves in an outbox is due next round, behind the copies
/// [`due_next`](Delivery::due_next) returns ([`InFlight`]'s module docs have
/// the rule). Membership changes only at the start of a round, so a delivery
/// with per-node state of its own (sockets) follows the [`SlotIndex`] that
/// [`deliver`](Delivery::deliver) is handed: identifiers are dense, joiners
/// take the next ones in join order, and a departed one owns no slot.
pub trait Delivery<M> {
    /// The scheduler's configuration: the shared [`SimConfig`] plus whatever
    /// the policy adds (a topology, a round duration).
    type Config;

    /// The names this delivery's phases are timed under.
    const SPANS: PhaseSpans;

    /// Splits a configuration into the knobs the world keeps and the policy.
    fn new(config: Self::Config) -> (SimConfig, Self)
    where
        Self: Sized;

    /// Settles every slot's inbox for round `t`; `index` maps a receiver to
    /// its slot in the membership after round `t`'s churn. Returns how many
    /// copies were dropped undelivered, not counting what departed slots'
    /// inboxes held, which the world charges itself.
    fn deliver(&mut self, t: Round, index: &SlotIndex, in_flight: &mut InFlight<M>) -> usize;

    /// Routes the sends `from` made in round `t`, in send order. Called in
    /// id order, once per node, after the world has written into every send
    /// the slot its receiver owns right now (`NO_SLOT` if it is not a member
    /// at send time — it may still join before delivery).
    ///
    /// What stays in `out` is due at `t + 1`; a delivery that routes message
    /// by message takes each send's payload, or each distinct payload once
    /// ([`Outbox::payloads`], [`Outbox::sends`]), and leaves `out` empty.
    /// Returns how many of the sends are already known to be lost. By
    /// default every send stays and none is lost.
    fn send(&mut self, _from: NodeId, _t: Round, _out: &mut Outbox<M>, _obs: &ObsHandle) -> usize {
        0
    }

    /// The copies sent before round `t` that are due at `t + 1`, in send
    /// order: the world places them ahead of round `t`'s outboxes once every
    /// node has sent. None by default.
    fn due_next(&mut self, _t: Round) -> impl Iterator<Item = Envelope<M>> {
        std::iter::empty()
    }

    /// Closes round `t`: the delivery's own per-round observations, and
    /// whatever must happen before the next boundary. Returns how many of
    /// round `t`'s sends it lost doing so, charged to round `t` like
    /// [`send`](Delivery::send)'s. Called before the row is folded, so its
    /// observations precede round `t`'s `round_mark` in the ordered stream:
    /// flight recorders attribute them to round `t`. Nothing by default.
    fn end_round(&mut self, _t: Round, _obs: &ObsHandle) -> usize {
        0
    }

    /// The network region `id` lives in, for per-region probes (0 unless
    /// the delivery has a regional topology).
    fn region_of(&self, _id: NodeId) -> u32 {
        0
    }
}

/// A node in the world: its protocol state plus per-round scratch that is
/// reused across rounds.
struct Slot<P: Process> {
    id: NodeId,
    joined_at: Round,
    process: P,
    /// Reusable outbox; handed to the delivery each round.
    out: Outbox<P::Msg>,
    /// State digest captured at the end of the last compute phase.
    digest: u64,
    /// This round's sponsorships: a range of `sponsored_ids`.
    sponsored: Range<usize>,
}

/// Below this many nodes-or-messages a round's compute phase runs serially
/// whatever the thread budget: the scoped workers cost tens of microseconds
/// to spawn and join, which would dominate a round with little to do. The
/// budget can change wall-clock only, never an output bit, so this gate is
/// free to be a heuristic.
const PARALLEL_WORK_THRESHOLD: usize = 2048;

/// The most metrics rows [`World::run`] reserves up front.
const HISTORY_RESERVE_CAP: u64 = 4096;

/// The protocol `P` run against the adversary `A` over the delivery `D`: one
/// membership, one churn arbiter, one round loop. See the module docs.
///
/// Methods a delivery adds on top (network counters, traces, fault plans)
/// are reached through `Deref`.
pub struct World<P: Process, A, D> {
    config: SimConfig,
    adversary: A,
    factory: NodeFactory<P>,
    delivery: D,
    /// Node slots, sorted by identifier.
    slots: Vec<Slot<P>>,
    /// `id → slot` table over `slots`, kept current wherever `slots`
    /// changes; also stamps distinct receivers in the collect phase.
    index: SlotIndex,
    members: BTreeMap<NodeId, MemberInfo>,
    /// Scratch: `(bootstrap, joiner)` pairs of the current round, sorted by
    /// bootstrap node.
    sponsored_pairs: Vec<(NodeId, NodeId)>,
    /// Scratch: joiner ids grouped contiguously per bootstrap node; slots
    /// reference ranges of this vector.
    sponsored_ids: Vec<NodeId>,
    /// Outboxes donated by departed nodes, reused by joining nodes.
    spare_outboxes: Vec<Outbox<P::Msg>>,
    /// What is in flight to the next boundary, every slot's inbox with it.
    in_flight: InFlight<P::Msg>,
    /// One envelope buffer per compute worker: a slot's envelopes exist
    /// there only while its node runs.
    inbox_bufs: Vec<Vec<Envelope<P::Msg>>>,
    /// Scratch for churn-plan validation (departure dedup, join fan-in).
    plan_scratch: PlanScratch,
    /// Round records trimmed out of the history window, recycled as scratch.
    spare_records: Vec<RoundRecord>,
    records: Vec<RoundRecord>,
    /// Every finished row folds into this O(1) digest.
    streaming: StreamingMetrics,
    /// Under [`MetricsMode::Full`] every row is also kept here.
    history: MetricsHistory,
    keep_history: bool,
    /// Observability sink; [`ObsHandle::off`] by default, so the round loop
    /// pays one branch per probe and nothing else.
    obs: ObsHandle,
    budget: ChurnBudget,
    round: Round,
    next_id: u64,
    last_outcome: ChurnOutcome,
}

impl<P: Process, A, D> Deref for World<P, A, D> {
    type Target = D;
    fn deref(&self) -> &D {
        &self.delivery
    }
}

impl<P: Process, A, D> DerefMut for World<P, A, D> {
    fn deref_mut(&mut self) -> &mut D {
        &mut self.delivery
    }
}

impl<P: Process, A: Adversary, D: Delivery<P::Msg>> World<P, A, D> {
    /// Creates an empty world. Populate the initial node set `V_0` with
    /// [`seed_nodes`](World::seed_nodes) before stepping.
    pub fn new(config: D::Config, adversary: A, factory: NodeFactory<P>) -> Self {
        let (config, delivery) = D::new(config);
        World {
            config,
            adversary,
            factory,
            delivery,
            slots: Vec::new(),
            index: SlotIndex::new(),
            members: BTreeMap::new(),
            sponsored_pairs: Vec::new(),
            sponsored_ids: Vec::new(),
            spare_outboxes: Vec::new(),
            in_flight: InFlight::default(),
            inbox_bufs: Vec::new(),
            plan_scratch: PlanScratch::default(),
            spare_records: Vec::new(),
            records: Vec::new(),
            streaming: StreamingMetrics::default(),
            history: MetricsHistory::default(),
            keep_history: true,
            obs: ObsHandle::off(),
            budget: ChurnBudget::new(),
            round: 0,
            next_id: 0,
            last_outcome: ChurnOutcome::default(),
        }
    }

    /// Creates `count` initial nodes (the churn-free initial set `V_0`).
    /// Returns their identifiers.
    pub fn seed_nodes(&mut self, count: usize) -> Vec<NodeId> {
        let joined_at = self.round;
        let mut ids = Vec::with_capacity(count);
        self.slots.reserve(count);
        for _ in 0..count {
            let id = NodeId(self.next_id);
            self.next_id += 1;
            self.members.insert(id, MemberInfo { joined_at });
            self.spawn_slot(id, joined_at);
            ids.push(id);
        }
        ids
    }

    /// Materializes the slot (process + scratch, inbox) for a node that is
    /// already a member.
    fn spawn_slot(&mut self, id: NodeId, round: Round) {
        let process = (self.factory)(id, round);
        let out = self.spare_outboxes.pop().unwrap_or_default();
        self.index.insert(id, self.slots.len());
        self.slots.push(Slot {
            id,
            joined_at: round,
            process,
            out,
            digest: 0,
            sponsored: 0..0,
        });
        self.in_flight.push_slot();
    }

    /// The current round (the next round to be executed).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The shared simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of nodes currently in the network.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Identifiers of all current members, in ascending order.
    pub fn member_ids(&self) -> Vec<NodeId> {
        self.slots.iter().map(|s| s.id).collect()
    }

    /// The round a current member joined, if it exists.
    pub fn joined_at(&self, id: NodeId) -> Option<Round> {
        self.members.get(&id).map(|m| m.joined_at)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.index.slot(id).map(|i| &self.slots[i].process)
    }

    /// Iterates over `(id, protocol state)` pairs of all current members.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.slots.iter().map(|s| (s.id, &s.process))
    }

    /// The per-round metrics rows. Empty under [`MetricsMode::Streaming`] —
    /// [`metrics_summary`](Self::metrics_summary) and
    /// [`last_metrics`](Self::last_metrics) serve both modes.
    pub fn metrics(&self) -> &MetricsHistory {
        &self.history
    }

    /// Attaches an observability sink (or detaches it with
    /// [`ObsHandle::off`]). Safe to call at any point; recording starts with
    /// the next round.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Selects whether finished rounds are also kept row by row. Call before
    /// running.
    pub fn set_metrics_mode(&mut self, mode: MetricsMode) {
        self.keep_history = mode.is_full();
    }

    /// The whole-run metrics digest.
    pub fn metrics_summary(&self) -> MetricsSummary {
        self.streaming.summary()
    }

    /// The most recent round's metrics.
    pub fn last_metrics(&self) -> Option<&RoundMetrics> {
        self.streaming.last()
    }

    /// Archived round records (communication graphs and digests).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The communication graph of `round`, if still archived.
    pub fn comm_graph_at(&self, round: Round) -> Option<&CommGraph> {
        self.records
            .iter()
            .find(|r| r.graph.round == round)
            .map(|r| &r.graph)
    }

    /// The churn outcome of the most recently executed round.
    pub fn last_churn_outcome(&self) -> &ChurnOutcome {
        &self.last_outcome
    }

    /// The adversary, for post-run inspection.
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// What is in flight to the next boundary, as far as it is placed.
    pub fn in_flight(&self) -> &InFlight<P::Msg> {
        &self.in_flight
    }

    /// Capacities of the reusable buffers the compute phase fills: the
    /// slots' outboxes (payloads, sends) and the workers' inbox buffers.
    #[cfg(test)]
    pub(crate) fn compute_buffer_capacities(&self) -> (usize, usize, Vec<usize>) {
        let outboxes = self.slots.iter().map(|slot| slot.out.capacity());
        let (payloads, sends) = outboxes.fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        let inboxes = self.inbox_bufs.iter().map(Vec::capacity).collect();
        (payloads, sends, inboxes)
    }

    /// Executes `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        if self.keep_history {
            // Up-front room for a run of ordinary length only: `rounds` may
            // be "until I stop it" (`u64::MAX`), and past the cap the
            // history grows by doubling like any `Vec`.
            self.history
                .reserve(rounds.min(HISTORY_RESERVE_CAP) as usize);
        }
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Executes a single round. See the module docs for the phases.
    pub fn step(&mut self) {
        let t = self.round;
        let mut row = RoundMetrics::new(t);

        // Phase 1: adversarial churn (suppressed during the bootstrap phase).
        // The previous round's outcome buffers are recycled.
        let span = self.obs.span_start();
        let mut outcome = std::mem::take(&mut self.last_outcome);
        outcome.departed.clear();
        outcome.joined.clear();
        outcome.rejected_departures.clear();
        outcome.rejected_joins.clear();
        let waiting = self.in_flight.pending();
        if t >= self.config.churn_rules.bootstrap_rounds {
            let remaining = self.budget.remaining(t, &self.config.churn_rules);
            let plan = {
                let view = KnowledgeView::new(
                    t,
                    self.config.lateness,
                    &self.records,
                    &self.members,
                    remaining,
                    self.config.churn_rules.min_bootstrap_age,
                );
                self.adversary.plan(t, &view)
            };
            self.apply_plan(t, plan, &mut outcome);
        }
        row.departures = outcome.departed.len();
        row.joins = outcome.joined.len();
        self.obs.span_end(D::SPANS.churn, span);

        // Phase 2: every slot's inbox is settled, and this round's joiners
        // are grouped per bootstrap node.
        let span = self.obs.span_start();
        // What departed slots held unread is dropped with them.
        let unread = waiting - self.in_flight.pending();
        let dropped = unread + self.delivery.deliver(t, &self.index, &mut self.in_flight);
        let delivered = self.in_flight.pending();
        self.group_sponsored(&outcome);
        row.node_count = self.slots.len();
        self.obs.span_end(D::SPANS.deliver, span);

        // Phase 3: compute. Every node steps exactly once; nothing it reads
        // or draws depends on which worker runs it or when.
        let seed = self.config.seed;
        let hash_seed = self.config.hash_seed;
        let record_digests = self.config.record_digests;
        let work_items = self.slots.len().max(delivered);
        let threads = if self.config.parallel && work_items >= PARALLEL_WORK_THRESHOLD {
            rayon::current_num_threads()
        } else {
            1
        };
        let span = self.obs.span_start();
        {
            let in_flight = &self.in_flight;
            let sponsored_ids = &self.sponsored_ids;
            if self.inbox_bufs.len() < threads {
                self.inbox_bufs.resize_with(threads, Vec::new);
            }
            let workers = &mut self.inbox_bufs[..threads];
            rayon::for_each_index_mut(&mut self.slots, workers, |inbox, i, slot| {
                in_flight.read(i, slot.id, inbox);
                slot.digest = activate(
                    &mut slot.process,
                    slot.id,
                    t,
                    slot.joined_at,
                    &sponsored_ids[slot.sponsored.clone()],
                    seed,
                    hash_seed,
                    inbox,
                    &mut slot.out,
                    record_digests,
                );
            });
        }
        self.obs.span_end("sim.compute", span);

        // Phase 4: collect and send, in id order. Each slot contributes its
        // distinct receivers in id order, so the edge list comes out sorted
        // and duplicate-free without a global sort, and the same table
        // lookup writes each receiver's slot into the outbox for the
        // delivery; the delivery numbers and routes the sends in the same
        // order on every scheduler.
        let span = self.obs.span_start();
        let mut rec = self.spare_records.pop().unwrap_or_default();
        rec.graph.round = t;
        let obs_on = self.obs.is_on();
        let mut lost = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let received = self.in_flight.consume(i);
            row.record_received(received);
            if obs_on {
                // The messages this activation read: a deterministic
                // function of the protocol wherever delivery is.
                self.obs.observe("proto.inbox_len", received as u64);
            }
            let distinct =
                self.index
                    .push_distinct_edges(slot.id, &mut slot.out, &mut rec.graph.edges);
            row.record_sent(slot.out.len(), distinct);
            if record_digests {
                rec.digests.push((slot.id, slot.digest));
            }
            lost += self.delivery.send(slot.id, t, &mut slot.out, &self.obs);
            self.in_flight.count(&slot.out);
            rec.graph.members.push(slot.id);
        }
        let due_next = self.delivery.due_next(t);
        let outboxes = self.slots.iter_mut().map(|slot| (slot.id, &mut slot.out));
        self.in_flight.place(t, due_next, outboxes, &self.index);

        // Phase 5: archive the round, recycle what leaves the window, close
        // the round on the delivery, fold the metrics row.
        self.records.push(rec);
        if let Some(window) = self.config.history_window {
            while self.records.len() > window {
                let mut old = self.records.remove(0);
                old.graph.edges.clear();
                old.graph.members.clear();
                old.digests.clear();
                self.spare_records.push(old);
            }
        }
        self.obs.span_end(D::SPANS.send, span);
        // Receiver-departed drops are charged to the delivery round, losses
        // to the sending round (the network never carried them).
        row.messages_dropped = dropped + lost + self.delivery.end_round(t, &self.obs);

        let row = row.finish();
        if obs_on {
            record_round_obs(&self.obs, &row);
        }
        if self.keep_history {
            self.history.push(row.clone());
        }
        self.streaming.push(row);
        self.last_outcome = outcome;
        self.round += 1;
    }

    /// Applies a churn plan through the shared arbiter
    /// ([`apply_churn_plan`] validates it against budget and join rules and
    /// updates the membership), then materializes the slot half: departed
    /// slots are removed (donating their outbox buffers to the spare pool)
    /// and accepted joiners get fresh slots. Results are accumulated into
    /// `outcome` (a recycled buffer).
    fn apply_plan(&mut self, t: Round, plan: ChurnPlan, outcome: &mut ChurnOutcome) {
        let rules = self.config.churn_rules;
        apply_churn_plan(
            t,
            plan,
            &rules,
            &mut self.budget,
            &mut self.members,
            &mut self.next_id,
            &mut self.plan_scratch,
            outcome,
        );
        for &id in outcome.departed.iter() {
            let idx = self.index.slot(id).expect("departed node has a slot");
            let slot = self.slots.remove(idx);
            self.index
                .remove(id, self.slots[idx..].iter().map(|s| s.id));
            let mut out = slot.out;
            out.clear();
            self.spare_outboxes.push(out);
            self.in_flight.remove_slot(idx);
        }
        for &(id, _bootstrap) in outcome.joined.iter() {
            self.spawn_slot(id, t);
        }
    }

    /// Groups this round's joiners contiguously by bootstrap node (the
    /// stable sort keeps joiners in join order within each bootstrap) and
    /// points every bootstrap's slot at its range.
    fn group_sponsored(&mut self, outcome: &ChurnOutcome) {
        // Last round's bootstraps (those still here) sponsor nobody now.
        for &(bootstrap, _) in self.sponsored_pairs.iter() {
            if let Some(s) = self.index.slot(bootstrap) {
                self.slots[s].sponsored = 0..0;
            }
        }
        self.sponsored_pairs.clear();
        self.sponsored_pairs.extend(
            outcome
                .joined
                .iter()
                .map(|&(joiner, bootstrap)| (bootstrap, joiner)),
        );
        self.sponsored_pairs
            .sort_by_key(|&(bootstrap, _)| bootstrap);
        self.sponsored_ids.clear();
        self.sponsored_ids
            .extend(self.sponsored_pairs.iter().map(|&(_, joiner)| joiner));
        let mut start = 0usize;
        for run in self.sponsored_pairs.chunk_by(|a, b| a.0 == b.0) {
            // The arbiter only accepts joins via current members.
            if let Some(s) = self.index.slot(run[0].0) {
                self.slots[s].sponsored = start..start + run.len();
            }
            start += run.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::node::Ctx;

    const NODES: u64 = 3;
    /// Passes a node makes over every node (itself included) each round.
    const PASSES: u64 = 3;
    /// The payload of the copy [`EveryOther::due_next`] returns at `t`.
    const EARLY: u64 = 1_000;

    /// The payload of `pass`'s send to `to` in round `t`.
    fn payload(t: Round, pass: u64, to: u64) -> u64 {
        100 * t + 10 * pass + to
    }

    /// Sends [`PASSES`] passes over every node each round and keeps each
    /// inbox it is handed as `(sender, payload, send round)`.
    #[derive(Default)]
    struct Passes {
        inboxes: Vec<Vec<(NodeId, u64, Round)>>,
    }

    impl Process for Passes {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            let heard = inbox.iter().map(|env| (env.from, env.payload, env.sent_at));
            self.inboxes.push(heard.collect());
            let t = ctx.round();
            for pass in 0..PASSES {
                for to in 0..NODES {
                    ctx.send(NodeId(to), payload(t, pass, to));
                }
            }
        }
    }

    /// Keeps every other send of an outbox, losing the rest, and has one
    /// copy sent the round before due to node 0 next round.
    struct EveryOther;

    impl Delivery<u64> for EveryOther {
        type Config = SimConfig;

        const SPANS: PhaseSpans = PhaseSpans {
            churn: "test.churn",
            deliver: "test.deliver",
            send: "test.send",
        };

        fn new(config: SimConfig) -> (SimConfig, Self) {
            (config, EveryOther)
        }

        fn deliver(
            &mut self,
            _t: Round,
            index: &SlotIndex,
            in_flight: &mut InFlight<u64>,
        ) -> usize {
            in_flight.settle(index)
        }

        fn send(
            &mut self,
            _from: NodeId,
            _t: Round,
            out: &mut Outbox<u64>,
            _obs: &ObsHandle,
        ) -> usize {
            let (copies, mut keep) = (out.len(), false);
            out.retain(|| {
                keep = !keep;
                keep
            });
            copies - out.len()
        }

        fn due_next(&mut self, t: Round) -> impl Iterator<Item = Envelope<u64>> {
            let early = |t: Round| Envelope::new(NodeId(2), NodeId(0), t - 1, EARLY + t);
            (t > 0).then(|| early(t)).into_iter()
        }
    }

    #[test]
    fn inboxes_list_the_due_next_copies_then_the_kept_sends_in_send_order() {
        const ROUNDS: Round = 5;
        let mut world: World<_, _, EveryOther> = World::new(
            SimConfig::default(),
            NullAdversary,
            Box::new(|_, _| Passes::default()),
        );
        world.seed_nodes(NODES as usize);
        world.run(ROUNDS);
        let kept = (PASSES * NODES).div_ceil(2);
        for row in world.metrics().rounds() {
            let lost = NODES * (PASSES * NODES - kept);
            assert_eq!(row.messages_dropped as u64, lost, "round {}", row.round);
        }
        for (id, node) in world.nodes() {
            let to = id.raw();
            assert!(node.inboxes[0].is_empty());
            for t in 0..ROUNDS - 1 {
                let mut expected = Vec::new();
                if to == 0 && t > 0 {
                    expected.push((NodeId(2), EARLY + t, t - 1));
                }
                for from in 0..NODES {
                    // Send `k` of `from`'s outbox goes to `k % NODES`; the
                    // even ones are kept.
                    let sends = (0..PASSES * NODES).step_by(2);
                    let kept = sends.filter(|k| k % NODES == to);
                    let sent = kept.map(|k| (NodeId(from), payload(t, k / NODES, to), t));
                    expected.extend(sent);
                }
                assert_eq!(
                    node.inboxes[t as usize + 1],
                    expected,
                    "#{to}, round {}",
                    t + 1
                );
            }
        }
    }
}
