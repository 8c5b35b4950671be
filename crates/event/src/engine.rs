//! The deterministic virtual-time discrete-event engine.
//!
//! # Model
//!
//! Virtual time is measured in integer *ticks*;
//! [`TICKS_PER_ROUND`] ticks make one protocol round.
//! Nodes keep the synchronous cadence of the paper's model — every node
//! activates once per round boundary of the virtual clock, with the same
//! per-`(seed, node, round)` RNG streams as the lockstep engine — but the
//! *network* between them is asynchronous: each message individually samples
//! a latency (plus jitter) from the [`NetModel`] and may be lost. A message
//! whose arrival tick has passed is handed to its receiver at the next round
//! boundary ("round-boundary delivery"), so a delay of at most one round
//! reproduces the synchronous model's one-round message delay exactly, while
//! longer or spread-out delays let messages straddle epochs — the asynchrony
//! the two-steps-ahead maintenance protocol was never proved against.
//!
//! # Event queue and determinism
//!
//! Pending deliveries live in a [`CalendarQueue`](crate::queue) — a timing
//! wheel with one bucket per round window — whose pop order is exactly the
//! old binary heap's total order `(arrival tick, sequence number,
//! receiver)`. The sequence number is the
//! message's global send index, which makes the order total and *stable*.
//! Each boundary's deliverable batch is additionally re-sorted into send
//! order before it reaches the inboxes (residual jitter within one boundary
//! has no semantic meaning), so every inbox is filled exactly like the
//! lockstep engine's in-flight buffer would fill it. Message fates are pure functions of
//! `(master seed, sequence number)` and the engine itself is strictly
//! sequential, so identical seeds give byte-identical traces at any
//! thread/host configuration — including under `TSA_THREADS` caps and inside
//! parallel sweep workers. See the "Execution models" chapter of DESIGN.md
//! for the full argument.
//!
//! Churn happens at round boundaries through the *same* arbiter as the
//! lockstep engine ([`tsa_sim::apply_churn_plan`]), against the same
//! lateness-filtered [`KnowledgeView`] — the budget, bootstrap-age and
//! fan-in rules cannot drift between the two scheduler policies.

use std::collections::BTreeMap;

use tsa_obs::ObsHandle;
use tsa_sim::knowledge::{KnowledgeView, MemberInfo, RoundRecord};
use tsa_sim::{
    apply_churn_plan, record_round_obs, run_activation, Adversary, ChurnBudget, ChurnOutcome,
    CommGraph, Envelope, MetricsHistory, MetricsMode, MetricsSummary, NodeFactory, NodeId,
    PlanScratch, ProtocolStep, Round, RoundMetrics, RoundMetricsBuilder, SimConfig, SlotIndex,
    StreamingMetrics,
};

use crate::fault::{FaultAdapter, FaultCoins, FaultDecision, FaultPlan, FaultStats};
use crate::model::{FateBlock, NetModel, Topology};
use crate::queue::{CalendarQueue, Pending};
use crate::trace::{MessageFate, MessageTrace};
use crate::TICKS_PER_ROUND;

/// Configuration of an event-driven run: the shared simulation knobs (seed,
/// lateness, churn rules, history window — `parallel` is ignored, the event
/// loop is strictly sequential) plus the network topology and clock
/// resolution.
#[derive(Clone, Debug)]
pub struct EventConfig {
    /// The shared simulation configuration. Seeds and hash seeds are derived
    /// exactly as in the lockstep engine, so a zero-delay event run and a
    /// round run of the same seed are bit-identical.
    pub sim: SimConfig,
    /// The link topology: which per-message latency/jitter/loss model each
    /// directed `(sender, receiver)` link runs at each round. A scalar
    /// [`NetModel`] is the [`Topology::Global`] special case.
    pub topology: Topology,
    /// Virtual ticks per protocol round (defaults to
    /// [`TICKS_PER_ROUND`]).
    pub ticks_per_round: u64,
}

impl EventConfig {
    /// An event configuration over `sim` with the link-uniform network model
    /// `net` at the default clock resolution.
    pub fn new(sim: SimConfig, net: NetModel) -> Self {
        EventConfig::with_topology(sim, Topology::Global(net))
    }

    /// An event configuration over `sim` with an explicit link topology at
    /// the default clock resolution.
    pub fn with_topology(sim: SimConfig, topology: Topology) -> Self {
        EventConfig {
            sim,
            topology,
            ticks_per_round: TICKS_PER_ROUND,
        }
    }
}

/// Whole-run counters of the network model's effects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages dropped by the loss model.
    pub lost: u64,
    /// Messages dropped because the receiver departed before delivery.
    pub dropped_departed: u64,
    /// Largest sampled per-message delay, in ticks.
    pub max_delay_ticks: u64,
    /// Sum of all sampled delays, in ticks (mean = `/ (sent - lost)`).
    pub total_delay_ticks: u64,
    /// Messages handed to the network whose link crossed a region boundary
    /// of a [`Topology::Regions`] (0 for other topologies).
    pub bridge_sent: u64,
    /// Cross-region messages dropped by the loss model.
    pub bridge_lost: u64,
}

/// A node in the event engine: protocol state plus its accumulated inbox and
/// reusable outbox buffer.
struct EvSlot<P: ProtocolStep> {
    id: NodeId,
    joined_at: Round,
    process: P,
    /// Messages delivered since the node's last activation, in
    /// `(arrival, seq)` order.
    inbox: Vec<Envelope<P::Msg>>,
    /// Reusable outbox buffer, drained into the event queue each activation.
    out: Vec<(NodeId, P::Msg)>,
    /// This round's sponsorships: a range of the engine's `sponsored_ids`.
    sponsored_start: usize,
    sponsored_len: usize,
}

/// The virtual-time event simulator: the second scheduler policy over the
/// same transport-agnostic [`ProtocolStep`] node logic as the round engine.
pub struct EventSimulator<P: ProtocolStep, A: Adversary> {
    config: EventConfig,
    adversary: A,
    factory: NodeFactory<P>,
    /// Node slots, sorted by identifier.
    slots: Vec<EvSlot<P>>,
    /// `id → slot` table over `slots` (delivery lookup and distinct-receiver
    /// stamps), kept current wherever `slots` changes.
    index: SlotIndex,
    members: BTreeMap<NodeId, MemberInfo>,
    /// The event queue: pending deliveries, earliest `(arrival, seq)` first.
    queue: CalendarQueue<P::Msg>,
    /// Global send sequence number: the identity of a message for the
    /// network model's per-message streams.
    seq: u64,
    /// The cached network fate block for the current 64-message window of
    /// `seq` (sequence numbers are monotone, so one generation serves the
    /// whole window).
    fate_block: Option<FateBlock>,
    /// The cached per-rule fault-coin blocks (same amortization).
    fault_coins: FaultCoins,
    /// High-water mark of the event queue depth, sampled once per boundary.
    peak_queue_depth: u64,
    /// Scratch: the current boundary's deliverable batch, re-sorted into
    /// global send order before it reaches the inboxes.
    deliverable: Vec<Pending<P::Msg>>,
    /// Scratch: `(bootstrap, joiner)` pairs of the current round.
    sponsored_pairs: Vec<(NodeId, NodeId)>,
    /// Scratch: joiner ids grouped contiguously per bootstrap node.
    sponsored_ids: Vec<NodeId>,
    /// Scratch for churn-plan validation.
    plan_scratch: PlanScratch,
    /// Buffers donated by departed nodes, reused by joining nodes.
    spare_outboxes: Vec<Vec<(NodeId, P::Msg)>>,
    spare_inboxes: Vec<Vec<Envelope<P::Msg>>>,
    /// Round records trimmed out of the history window, recycled.
    spare_records: Vec<RoundRecord>,
    records: Vec<RoundRecord>,
    metrics: MetricsHistory,
    /// When set, finished rounds fold into O(1) accumulators instead of
    /// growing the history ([`MetricsMode::Streaming`]).
    streaming: Option<StreamingMetrics>,
    /// Observability sink; off by default (one branch per probe).
    obs: ObsHandle,
    budget: ChurnBudget,
    round: Round,
    next_id: u64,
    last_outcome: ChurnOutcome,
    stats: NetStats,
    /// When `Some`, every routed message's fate is recorded here (this
    /// engine acting as the recording twin).
    trace: Option<MessageTrace>,
    /// When `Some`, message fates are read from this schedule instead of
    /// being sampled from the network model (this engine acting as the
    /// replaying twin of a recorded run).
    replay: Option<MessageTrace>,
    /// When `Some`, every outgoing message is matched against the fault
    /// plan at the delivery boundary (decisions are pure functions of
    /// `(seed, seq)`, identical on the loopback transport).
    faults: Option<(FaultPlan, FaultAdapter<P::Msg>)>,
    /// Whole-run counters of injected faults (separate from [`NetStats`]).
    fault_stats: FaultStats,
}

impl<P: ProtocolStep, A: Adversary> EventSimulator<P, A> {
    /// Creates an empty event simulator. Populate the initial node set `V_0`
    /// with [`EventSimulator::seed_nodes`] before stepping.
    pub fn new(config: EventConfig, adversary: A, factory: NodeFactory<P>) -> Self {
        assert!(config.ticks_per_round > 0, "ticks_per_round must be > 0");
        let queue = CalendarQueue::new(config.ticks_per_round);
        let fault_coins = FaultCoins::new(config.sim.seed);
        EventSimulator {
            config,
            adversary,
            factory,
            slots: Vec::new(),
            index: SlotIndex::new(),
            members: BTreeMap::new(),
            queue,
            seq: 0,
            fate_block: None,
            fault_coins,
            peak_queue_depth: 0,
            deliverable: Vec::new(),
            sponsored_pairs: Vec::new(),
            sponsored_ids: Vec::new(),
            plan_scratch: PlanScratch::default(),
            spare_outboxes: Vec::new(),
            spare_inboxes: Vec::new(),
            spare_records: Vec::new(),
            records: Vec::new(),
            metrics: MetricsHistory::new(),
            streaming: None,
            obs: ObsHandle::off(),
            budget: ChurnBudget::new(),
            round: 0,
            next_id: 0,
            last_outcome: ChurnOutcome::default(),
            stats: NetStats::default(),
            trace: None,
            replay: None,
            faults: None,
            fault_stats: FaultStats::default(),
        }
    }

    /// Creates `count` initial nodes (the churn-free initial set `V_0`).
    /// Returns their identifiers.
    pub fn seed_nodes(&mut self, count: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
        self.slots.reserve(count);
        for _ in 0..count {
            let id = NodeId(self.next_id);
            self.next_id += 1;
            self.members.insert(
                id,
                MemberInfo {
                    joined_at: self.round,
                },
            );
            self.spawn_slot(id, self.round);
            ids.push(id);
        }
        ids
    }

    /// Materializes the engine-side slot for a node that is already a member.
    fn spawn_slot(&mut self, id: NodeId, round: Round) {
        let process = (self.factory)(id, round);
        let out = self.spare_outboxes.pop().unwrap_or_default();
        let inbox = self.spare_inboxes.pop().unwrap_or_default();
        self.index.insert(id, self.slots.len());
        self.slots.push(EvSlot {
            id,
            joined_at: round,
            process,
            inbox,
            out,
            sponsored_start: 0,
            sponsored_len: 0,
        });
    }

    /// The current round (the next round boundary to be executed).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The current virtual time in ticks (the tick of the next boundary).
    /// Saturates at `u64::MAX`: a hostile `ticks_per_round` can pin the
    /// clock at the end of time but can never wrap it back to the past.
    pub fn virtual_time(&self) -> u64 {
        self.round.saturating_mul(self.config.ticks_per_round)
    }

    /// The configuration.
    pub fn config(&self) -> &EventConfig {
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
        self.slot_index(id).map(|i| &self.slots[i].process)
    }

    /// Iterates over `(id, protocol state)` pairs of all current members.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.slots.iter().map(|s| (s.id, &s.process))
    }

    /// Metrics collected so far (one row per round boundary). Empty under
    /// [`MetricsMode::Streaming`] — use
    /// [`metrics_summary`](Self::metrics_summary) /
    /// [`last_metrics`](Self::last_metrics) for mode-independent access.
    pub fn metrics(&self) -> &MetricsHistory {
        &self.metrics
    }

    /// Attaches an observability sink (or detaches it with
    /// [`ObsHandle::off`]); recording starts with the next boundary.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Selects how finished rounds are retained. Call before running.
    pub fn set_metrics_mode(&mut self, mode: MetricsMode) {
        self.streaming = match mode {
            MetricsMode::Full => None,
            MetricsMode::Streaming => Some(StreamingMetrics::new()),
        };
    }

    /// The whole-run metrics digest, identical under both metrics modes.
    pub fn metrics_summary(&self) -> MetricsSummary {
        match &self.streaming {
            Some(s) => s.summary(),
            None => self.metrics.summary(),
        }
    }

    /// The most recent round's metrics, under either metrics mode.
    pub fn last_metrics(&self) -> Option<&RoundMetrics> {
        match &self.streaming {
            Some(s) => s.last(),
            None => self.metrics.last(),
        }
    }

    /// The streaming accumulators, when running under
    /// [`MetricsMode::Streaming`].
    pub fn streaming_metrics(&self) -> Option<&StreamingMetrics> {
        self.streaming.as_ref()
    }

    /// Archived round records (communication graphs and digests).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The churn outcome of the most recently executed round.
    pub fn last_churn_outcome(&self) -> &ChurnOutcome {
        &self.last_outcome
    }

    /// Number of messages currently in flight (queued, not yet delivered).
    pub fn in_flight_count(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the event queue depth over the whole run, sampled
    /// at each round boundary after dispatch (when the queue is fullest).
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_queue_depth
    }

    /// Whole-run counters of the network model's effects.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// The adversary, for post-run inspection.
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Starts recording a per-message fate trace. Call before the first
    /// [`step`](EventSimulator::step); retrieve the result with
    /// [`take_trace`](EventSimulator::take_trace).
    pub fn record_trace(&mut self) {
        self.trace = Some(MessageTrace::new());
    }

    /// Takes the recorded fate trace, ending recording.
    pub fn take_trace(&mut self) -> Option<MessageTrace> {
        self.trace.take()
    }

    /// Replays `trace` as a fixed fate schedule: from now on, message fates
    /// come from the trace (by send sequence number) instead of the network
    /// model. Panics during [`step`](EventSimulator::step) if a message is
    /// sent beyond the end of the trace — under a faithful twin the replayed
    /// run sends exactly the recorded messages, so running out of trace
    /// means the executions diverged.
    pub fn set_replay(&mut self, trace: MessageTrace) {
        self.replay = Some(trace);
    }

    /// Installs a fault-injection plan and the protocol's message adapter.
    /// Call before the first [`step`](EventSimulator::step). Decisions are
    /// pure functions of `(seed, seq)`; the same plan injects the same
    /// faults on the loopback transport. When combined with
    /// [`set_replay`](EventSimulator::set_replay), Drop and Delay decisions
    /// defer to the trace (which already encodes every fate) while
    /// Duplicate and Mutate are re-applied to keep sequence numbers and
    /// payload bytes aligned with the recording.
    pub fn set_faults(&mut self, plan: FaultPlan, adapter: FaultAdapter<P::Msg>) {
        self.faults = Some((plan, adapter));
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    fn slot_index(&self, id: NodeId) -> Option<usize> {
        self.index.slot(id)
    }

    /// Executes `rounds` round boundaries.
    pub fn run(&mut self, rounds: u64) {
        if self.streaming.is_none() {
            self.metrics.reserve(rounds as usize);
        }
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Executes a single round boundary: churn, deliver everything that has
    /// arrived by now, activate every node, route the sent messages through
    /// the network model.
    pub fn step(&mut self) {
        let t = self.round;
        // This boundary's tick: messages that have arrived by `now` are
        // delivered here; this round's own sends are stamped `now` plus their
        // sampled delay and are examined from the next boundary on. The
        // product saturates: a hostile `ticks_per_round` pins the clock at
        // the end of time instead of wrapping it (which would reorder the
        // queue).
        let now = t.saturating_mul(self.config.ticks_per_round);
        let mut mb = RoundMetricsBuilder::new(t);
        let obs_on = self.obs.is_on();
        let stats_before = self.stats;
        let fault_stats_before = self.fault_stats;

        // Phase 1: adversarial churn at the boundary, through the shared
        // arbiter (suppressed during the bootstrap phase).
        let span = self.obs.span_start();
        let mut outcome = std::mem::take(&mut self.last_outcome);
        outcome.departed.clear();
        outcome.joined.clear();
        outcome.rejected_departures.clear();
        outcome.rejected_joins.clear();
        if t >= self.config.sim.churn_rules.bootstrap_rounds {
            let remaining = self.budget.remaining(t, &self.config.sim.churn_rules);
            let plan = {
                let view = KnowledgeView::new(
                    t,
                    self.config.sim.lateness,
                    &self.records,
                    &self.members,
                    remaining,
                    self.config.sim.churn_rules.min_bootstrap_age,
                );
                self.adversary.plan(t, &view)
            };
            let rules = self.config.sim.churn_rules;
            apply_churn_plan(
                t,
                plan,
                &rules,
                &mut self.budget,
                &mut self.members,
                &mut self.next_id,
                &mut self.plan_scratch,
                &mut outcome,
            );
            for &id in outcome.departed.iter() {
                let idx = self.slot_index(id).expect("departed node has a slot");
                let slot = self.slots.remove(idx);
                self.index
                    .remove(id, self.slots[idx..].iter().map(|s| s.id));
                let mut out = slot.out;
                out.clear();
                self.spare_outboxes.push(out);
                let mut inbox = slot.inbox;
                inbox.clear();
                self.spare_inboxes.push(inbox);
            }
            for &(id, _bootstrap) in outcome.joined.iter() {
                self.spawn_slot(id, t);
            }
        }
        mb.record_churn(outcome.departed.len(), outcome.joined.len());
        self.obs.span_end("event.churn", span);

        // Phase 2: hand every message that has arrived by this boundary's
        // tick to its receiver. A delay of `d ∈ [0, ticks_per_round]` for a
        // message sent at boundary `t - 1` lands at `(t-1)·T + d ≤ t·T` and
        // is therefore read here, which is the synchronous model's one-round
        // delay; `d > ticks_per_round` straddles further boundaries.
        //
        // The batch is re-sorted into global *send* order before it reaches
        // the inboxes: within one boundary the residual arrival jitter has
        // no semantic meaning (every message of the batch is read by the
        // same activation), and send order is exactly the lockstep engine's
        // delivery order — this is what makes any sub-round network model,
        // jitter included, bit-identical to the round engine instead of
        // only the constant-delay ones.
        let span = self.obs.span_start();
        let mut dropped = 0usize;
        self.deliverable.clear();
        // The wheel moves whole due buckets with a bulk append (unordered);
        // the by-seq sort below is the only order the inboxes ever see.
        self.queue.drain_at_or_before(now, &mut self.deliverable);
        self.deliverable.sort_unstable_by_key(|p| p.seq);
        for pending in self.deliverable.drain(..) {
            match self.index.slot(pending.env.to) {
                Some(idx) => self.slots[idx].inbox.push(pending.env),
                None => {
                    dropped += 1;
                    self.stats.dropped_departed += 1;
                }
            }
        }
        self.obs.span_end("event.pop", span);

        // Sponsored joiners, grouped contiguously by bootstrap node exactly
        // as in the lockstep engine.
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
        for slot in self.slots.iter_mut() {
            slot.sponsored_start = 0;
            slot.sponsored_len = 0;
        }
        {
            let mut s = 0usize;
            let mut k = 0usize;
            while k < self.sponsored_pairs.len() {
                let bootstrap = self.sponsored_pairs[k].0;
                let run_start = k;
                while k < self.sponsored_pairs.len() && self.sponsored_pairs[k].0 == bootstrap {
                    k += 1;
                }
                while s < self.slots.len() && self.slots[s].id < bootstrap {
                    s += 1;
                }
                if s < self.slots.len() && self.slots[s].id == bootstrap {
                    self.slots[s].sponsored_start = run_start;
                    self.slots[s].sponsored_len = k - run_start;
                }
            }
        }

        mb.record_node_count(self.slots.len());

        // Phase 3: activate every node at this boundary, in id order, through
        // the shared protocol step, and route every emitted message through
        // the network model. The engine is strictly sequential; determinism
        // needs no further argument than the total event order.
        let mut rec = self.spare_records.pop().unwrap_or_default();
        rec.graph.round = t;
        rec.graph.edges.clear();
        rec.graph.members.clear();
        rec.digests.clear();
        let seed = self.config.sim.seed;
        let hash_seed = self.config.sim.hash_seed;
        let record_digests = self.config.sim.record_digests;
        let mut lost = 0usize;
        let span = self.obs.span_start();
        {
            let obs = &self.obs;
            let topology = &self.config.topology;
            let ticks_per_round = self.config.ticks_per_round;
            let sponsored_ids = &self.sponsored_ids;
            let queue = &mut self.queue;
            let seq = &mut self.seq;
            let stats = &mut self.stats;
            let index = &mut self.index;
            let replay = self.replay.as_ref();
            let trace = &mut self.trace;
            let faults = self.faults.as_ref();
            let fault_stats = &mut self.fault_stats;
            let fates = &mut self.fate_block;
            let fault_coins = &mut self.fault_coins;
            for slot in self.slots.iter_mut() {
                mb.record_received(slot.id, slot.inbox.len());
                if obs_on {
                    // Same name and semantics as the round engine's probe:
                    // messages this activation reads.
                    obs.observe("proto.inbox_len", slot.inbox.len() as u64);
                }
                let sponsored =
                    &sponsored_ids[slot.sponsored_start..slot.sponsored_start + slot.sponsored_len];
                let (out, digest) = run_activation(
                    &mut slot.process,
                    slot.id,
                    t,
                    slot.joined_at,
                    sponsored,
                    seed,
                    hash_seed,
                    &slot.inbox,
                    std::mem::take(&mut slot.out),
                    record_digests,
                );
                slot.out = out;
                slot.inbox.clear();
                // Id-ordered slots each appending their distinct receivers
                // in id order leave the edge list sorted and duplicate-free.
                let distinct = index.push_distinct_edges(slot.id, &slot.out, &mut rec.graph.edges);
                mb.record_sent(slot.id, slot.out.len(), distinct);
                if record_digests {
                    rec.digests.push((slot.id, digest));
                }
                let fate_span = obs.span_start();
                for (to, mut payload) in slot.out.drain(..) {
                    // Fault-plan decision on the sequence number this message
                    // is about to take — a pure function of (seed, seq), so
                    // the loopback transport takes the identical branch for
                    // the identical frame.
                    let (fault_drop, extra_delay, duplicate) = match faults {
                        None => (false, 0u64, false),
                        Some((plan, adapter)) => match plan.decide_with(
                            fault_coins,
                            *seq,
                            t,
                            slot.id,
                            to,
                            (adapter.kind_of)(&payload),
                        ) {
                            FaultDecision::Pass => (false, 0, false),
                            FaultDecision::Drop => {
                                fault_stats.dropped += 1;
                                (true, 0, false)
                            }
                            FaultDecision::Delay(ticks) => {
                                fault_stats.delayed += 1;
                                (false, ticks, false)
                            }
                            FaultDecision::Duplicate => {
                                fault_stats.duplicated += 1;
                                (false, 0, true)
                            }
                            FaultDecision::Mutate => {
                                if (adapter.mutate)(
                                    &mut payload,
                                    FaultPlan::mutation_entropy(seed, *seq),
                                ) {
                                    fault_stats.mutated += 1;
                                }
                                (false, 0, false)
                            }
                        },
                    };
                    // When replaying a recorded trace, Drop and Delay are
                    // already encoded in the fates; only Mutate (payload
                    // bytes) and Duplicate (sequence alignment) re-apply.
                    let (fault_drop, extra_delay) = if replay.is_some() {
                        (false, 0)
                    } else {
                        (fault_drop, extra_delay)
                    };
                    // The duplicate copy consumes the next sequence number
                    // and takes its own network fate, with no fault decision
                    // of its own.
                    let dup = duplicate.then(|| payload.clone());
                    for payload in std::iter::once(payload).chain(dup) {
                        let msg_seq = *seq;
                        *seq += 1;
                        stats.sent += 1;
                        // The effective model of this message is a pure
                        // function of (round, sender, receiver); the fate
                        // stream it consumes is seeded from (seed, seq)
                        // alone, so two topologies resolving this link to
                        // equal models take identical branches here.
                        let (net, cross) = topology.resolve(t, slot.id, to);
                        if cross {
                            stats.bridge_sent += 1;
                        }
                        // The fate: a fault drop, a sample from the network
                        // model (plus any fault delay), or — when replaying
                        // a recorded twin run — the fixed schedule's entry
                        // for this sequence number.
                        let delay = if fault_drop {
                            None
                        } else {
                            match replay {
                                None => {
                                    // One fate block serves 64 consecutive
                                    // sequence numbers; regenerate only when
                                    // `msg_seq` crosses a window boundary.
                                    let block = match fates {
                                        Some(b) if b.covers(seed, msg_seq) => &*b,
                                        _ => &*fates.insert(FateBlock::containing(seed, msg_seq)),
                                    };
                                    net.route_with(block, msg_seq)
                                        .map(|d| d.saturating_add(extra_delay))
                                }
                                Some(tr) => match tr.fate(msg_seq) {
                                    Some(MessageFate::Lost) => None,
                                    Some(MessageFate::Delivered { at_round }) => {
                                        // Delivered at boundary `at_round`
                                        // means an arrival tick at exactly
                                        // that boundary (saturating, like
                                        // every other tick product).
                                        let arrival = at_round.saturating_mul(ticks_per_round);
                                        assert!(
                                            at_round > t,
                                            "replay trace delivers seq {msg_seq} at round \
                                             {at_round}, not after its send round {t}"
                                        );
                                        Some(arrival.saturating_sub(now))
                                    }
                                    None => panic!(
                                        "replay trace exhausted at seq {msg_seq}: the \
                                         replayed execution diverged from the recording"
                                    ),
                                },
                            }
                        };
                        match delay {
                            None => {
                                lost += 1;
                                stats.lost += 1;
                                if cross {
                                    stats.bridge_lost += 1;
                                }
                                if let Some(tr) = trace.as_mut() {
                                    tr.record(msg_seq, MessageFate::Lost);
                                }
                            }
                            Some(delay) => {
                                stats.max_delay_ticks = stats.max_delay_ticks.max(delay);
                                stats.total_delay_ticks =
                                    stats.total_delay_ticks.saturating_add(delay);
                                let arrival = now.saturating_add(delay);
                                if let Some(tr) = trace.as_mut() {
                                    // The boundary that will read this
                                    // message: the first one at or past the
                                    // arrival tick, and never the sending
                                    // round's own.
                                    let at_round = (arrival.div_ceil(ticks_per_round))
                                        .max(t.saturating_add(1));
                                    tr.record(msg_seq, MessageFate::Delivered { at_round });
                                }
                                queue.push(Pending {
                                    arrival,
                                    seq: msg_seq,
                                    env: Envelope::new(slot.id, to, t, payload),
                                });
                            }
                        }
                    }
                }
                obs.span_end("event.fate", fate_span);
                rec.graph.members.push(slot.id);
            }
        }
        self.obs.span_end("event.dispatch", span);
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len() as u64);
        // Receiver-departed drops are charged to the delivery round, loss
        // drops to the sending round (the network never carried them).
        mb.record_dropped(dropped + lost);

        self.records.push(rec);
        if let Some(window) = self.config.sim.history_window {
            while self.records.len() > window {
                let mut old = self.records.remove(0);
                old.graph.edges.clear();
                old.graph.members.clear();
                old.digests.clear();
                self.spare_records.push(old);
            }
        }

        let row = mb.finish();
        if obs_on {
            record_round_obs(&self.obs, &row);
            // Scheduler-specific (but still deterministic) counters: the
            // network model's per-round effects and the queue depth.
            let d = &self.stats;
            self.obs.add("event.net_sent", d.sent - stats_before.sent);
            self.obs.add("event.net_lost", d.lost - stats_before.lost);
            self.obs.add(
                "event.dropped_departed",
                d.dropped_departed - stats_before.dropped_departed,
            );
            self.obs.add(
                "event.bridge_sent",
                d.bridge_sent - stats_before.bridge_sent,
            );
            self.obs.add(
                "event.bridge_lost",
                d.bridge_lost - stats_before.bridge_lost,
            );
            self.obs.observe("event.queue_len", self.queue.len() as u64);
            // Fault counters only exist when a plan is installed, so
            // fault-free runs keep their exact historical obs output.
            if self.faults.is_some() {
                let f = &self.fault_stats;
                self.obs.add(
                    "proto.fault_dropped",
                    f.dropped - fault_stats_before.dropped,
                );
                self.obs.add(
                    "proto.fault_delayed",
                    f.delayed - fault_stats_before.delayed,
                );
                self.obs.add(
                    "proto.fault_duplicated",
                    f.duplicated - fault_stats_before.duplicated,
                );
                self.obs.add(
                    "proto.fault_mutated",
                    f.mutated - fault_stats_before.mutated,
                );
            }
        }
        match &mut self.streaming {
            Some(s) => s.push(row),
            None => self.metrics.push(row),
        }
        self.last_outcome = outcome;
        self.round += 1;
    }

    /// The communication graph of `round`, if still archived.
    pub fn comm_graph_at(&self, round: Round) -> Option<&CommGraph> {
        self.records
            .iter()
            .find(|r| r.graph.round == round)
            .map(|r| &r.graph)
    }

    /// Number of distinct directed edges in the most recent archived
    /// communication graph that cross a region boundary of the configured
    /// topology — the quantity that shows whether the two halves of a
    /// partition are still talking. 0 when the topology has no regions or
    /// nothing is archived yet.
    pub fn cross_region_edges(&self) -> usize {
        self.records.last().map_or(0, |rec| {
            rec.graph
                .edges
                .iter()
                .filter(|&&(from, to)| self.config.topology.is_cross(from, to))
                .count()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LatencyModel;
    use tsa_sim::prelude::*;

    // The queue's ordering contract (pop order, overflow handling, clamped
    // late pushes) is tested in `crate::queue` and held against a reference
    // `BinaryHeap` by `tests/queue_props.rs`; here we only pin the engine's
    // overflow behavior at the clock level.

    struct Pinger;
    impl Process for Pinger {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
            ctx.send(NodeId(0), ());
        }
    }

    #[test]
    fn virtual_time_saturates_instead_of_wrapping() {
        let mut config = EventConfig::new(
            SimConfig::default().with_seed(1),
            NetModel::new(LatencyModel::constant(0)),
        );
        config.ticks_per_round = u64::MAX;
        let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Pinger));
        sim.seed_nodes(2);
        // From round 1 on, round × u64::MAX ticks saturates; without the
        // saturation the clock would wrap to 0 and re-deliver the past.
        sim.run(3);
        assert_eq!(sim.virtual_time(), u64::MAX);
        assert!(sim.metrics().rounds().len() == 3);
    }
}
