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
//!    slots and their inboxes are retired and spawned
//!    ([`Delivery::on_depart`] / [`Delivery::on_join`]); what a departed
//!    slot's inbox held unread is dropped;
//! 2. **deliver** — [`Delivery::deliver`] settles every slot's inbox;
//!    sponsored joiners are grouped per bootstrap node;
//! 3. **compute** — every node activates once through [`activate`] on
//!    [`rayon::for_each_index_mut`], whose worker count follows the
//!    `TSA_THREADS` / [`rayon::with_thread_cap`] budget. Its worker first
//!    builds the node's envelopes from its inbox in the worker's own buffer;
//!    the activation reads them, writes its own slot and draws from an RNG
//!    stream that depends only on `(seed, node, round)`, so where and in
//!    which order activations run cannot change an output bit;
//! 4. **collect and send** — in id order: the node's inbox is consumed,
//!    metrics, the communication graph, digests, then [`Delivery::send`] for
//!    the node's [`Outbox`] (each distinct payload once, 16 bytes per copy);
//!    once every node has sent, [`Delivery::flush_sends`] takes whatever the
//!    sends left in the outboxes. Everything order-sensitive (sequence
//!    numbers, fates, the edge list, every deterministic observation)
//!    happens here and in the other sequential phases;
//! 5. **finish** — trim the record window, fold the metrics row, emit the
//!    `proto.*` observations, [`Delivery::end_round`].
//!
//! Every inbox lists its messages in global send order — sender-id order and,
//! per sender, the order of its [`Ctx::send`](crate::Ctx::send) calls — on
//! every delivery: all of them fill the world's one [`InFlight`] layout (its
//! module docs say what each places when), which the compute phase alone
//! reads. That makes the order in which a protocol sends part of its
//! observable behaviour (which duplicate a receiver sees first, which RNG
//! draw serves which copy): send order is the determinism contract between
//! protocol and scheduler.

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
    /// Phase 4, the id-order collect loop around [`Delivery::send`].
    pub send: &'static str,
}

/// How messages travel between two rounds of a [`World`] — the one thing the
/// three schedulers differ in.
///
/// What reached a node is its inbox in the world's [`InFlight`], which the
/// delivery fills. A delivery with per-slot state of its own (sockets) keeps
/// it in the world's slot order: [`on_join`](Delivery::on_join) always
/// appends a slot, [`on_depart`](Delivery::on_depart) names the slot that
/// closes up.
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

    /// A node joined: the next slot belongs to `id`.
    fn on_join(&mut self, _id: NodeId) {}

    /// The node `id` in slot `slot` departed; the slots behind it each move
    /// down one. The world charges what its inbox still held as dropped.
    fn on_depart(&mut self, _id: NodeId, _slot: usize) {}

    /// Settles every slot's inbox for round `t`, unless the sends were
    /// placed already; `index` maps a receiver to its slot. Returns how many
    /// copies were dropped undelivered, not counting what departed slots'
    /// inboxes held, which the world charges itself.
    fn deliver(&mut self, t: Round, index: &SlotIndex, in_flight: &mut InFlight<M>) -> usize;

    /// Announces the sends `from` made in round `t`, in send order. Called in
    /// id order, once per node, after the world has written into every send
    /// the slot its receiver owns right now (`NO_SLOT` if it is not a member
    /// at send time — it may still join before delivery).
    ///
    /// A delivery that routes message by message copies what it keeps out
    /// of the outbox here — each send's payload, or each distinct payload
    /// once ([`Outbox::payloads`], [`Outbox::sends`]) — and leaves `out`
    /// empty. One that places the round's sends in `in_flight` leaves what
    /// it places in `out`, counts it here and places it in
    /// [`flush_sends`](Delivery::flush_sends). Returns how many of the sends
    /// are already known to be lost.
    fn send(
        &mut self,
        from: NodeId,
        t: Round,
        out: &mut Outbox<M>,
        in_flight: &mut InFlight<M>,
        obs: &ObsHandle,
    ) -> usize;

    /// Every node of round `t` has sent: `outboxes` is each slot's sender
    /// and outbox, in slot (= id) order, exactly as [`send`](Delivery::send)
    /// left it. Whoever left messages there takes them now — every outbox
    /// must be empty on return, its capacity kept for the next round. A
    /// delivery that places next round's copies at send time places them
    /// here, resolving receivers through `index` (the membership the sends
    /// saw). Still inside the send phase's span.
    fn flush_sends<'a>(
        &mut self,
        _t: Round,
        _outboxes: impl Iterator<Item = (NodeId, &'a mut Outbox<M>)>,
        _index: &SlotIndex,
        _in_flight: &mut InFlight<M>,
    ) where
        M: 'a,
    {
    }

    /// Closes round `t`: the delivery's own per-round observations, and
    /// whatever must happen before the next boundary.
    fn end_round(&mut self, t: Round, obs: &ObsHandle);

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

    /// Materializes the slot (process + scratch, inbox, and the delivery's
    /// side) for a node that is already a member.
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
        self.delivery.on_join(id);
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
            lost += self
                .delivery
                .send(slot.id, t, &mut slot.out, &mut self.in_flight, &self.obs);
            rec.graph.members.push(slot.id);
        }
        let outboxes = self.slots.iter_mut().map(|slot| (slot.id, &mut slot.out));
        self.delivery
            .flush_sends(t, outboxes, &self.index, &mut self.in_flight);
        debug_assert!(
            self.slots.iter().all(|slot| slot.out.is_empty()),
            "the delivery left sends in an outbox"
        );
        // Receiver-departed drops are charged to the delivery round, losses
        // to the sending round (the network never carried them).
        row.messages_dropped = dropped + lost;

        // Phase 5: archive the round, recycle what leaves the window, fold
        // the metrics row.
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
        self.delivery.end_round(t, &self.obs);
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
            self.delivery.on_depart(id, idx);
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
