//! The virtual-time delivery: every message individually samples its fate.
//!
//! Delays are drawn in integer *ticks*; [`TICKS_PER_ROUND`] ticks make one
//! protocol round. Nodes keep the synchronous cadence of the
//! paper's model — [`EventSimulator`] is the same [`World`] round loop as the
//! lockstep simulator, with the same per-`(seed, node, round)` RNG streams,
//! the same churn arbiter and the same parallel compute phase — but the
//! *network* between the boundaries is asynchronous: each message samples a
//! latency (plus jitter) from the [`NetModel`] its link resolves to and may
//! be lost, and a [`FaultPlan`] may drop, delay, duplicate
//! or mutate it on the way out.
//!
//! # Copies due next round stay in the outbox, later ones go to records
//!
//! **One pass.** When the topology is [`Topology::Global`], its model's
//! [`max_delay`](NetModel::max_delay) is at most [`TICKS_PER_ROUND`] and no
//! fault plan (even an empty one), trace recording or replay is installed,
//! every copy a node sends is due at `t + 1`. `send` then numbers the
//! outbox's `k` copies `seq..seq + k` in send order and drops the lost ones
//! in place with [`Outbox::retain`], one [`NetModel::route`] per copy (a
//! constant, lossless, jitterless model's `route` hashes nothing). No
//! payload is cloned, no link is resolved. The counters, the numbering, and
//! so every fate and recorded byte, are the per-copy path's, which serves
//! everything else: faults, traces, [`Topology::Regions`] and models whose
//! delay can reach past `t + 1`.
//!
//! **Per copy.** `send` (once per node, id order) numbers the copies
//! through the fault injector's one numbering rule (slots send in id order,
//! so the numbering is the lockstep engine's in-flight order) and draws
//! each fate — a pure function of `(master seed, sequence number)`, or a
//! recorded [`MessageTrace`]'s entry under replay. A survivor's *delivery
//! round* is the first boundary at or past its arrival tick, never the
//! sending round's own (the round [`MessageTrace`] records). Through
//! [`Outbox::keep`] exactly the copies due at `t + 1` stay in the outbox —
//! a duplicate twice, a `Mutate` fault's corrupted copy with a payload of
//! its own — and are counted as the lockstep delivery counts its sends. A
//! copy due later is filed as a whole envelope in the **record** of the
//! round that reads it, so a hostile `Delay { ticks: u64::MAX }` copy sits
//! in the one record at the end of time and pins no other round's
//! payloads. Round `t + 1`'s record was closed once round `t - 1` sent, so
//! `flush_sends` places it ahead of the outboxes in the world's
//! [`InFlight`] layout, and `deliver`
//! settles the late list ("round-boundary delivery"; within one boundary the
//! residual arrival jitter has no semantic meaning, since every message of
//! the round is read by the same activation). A copy placed for a receiver
//! that departed in the boundary's churn went with its slot's inbox, which
//! the world charges; [`NetStats::dropped_departed`] counts those and the
//! late list's drops.
//!
//! The engine keeps no clock; time is the round. A copy sent at round `t`
//! with a delay of `d` ticks is read at round `max(⌈(t·T + d)/T⌉, t + 1)`,
//! `T` = [`TICKS_PER_ROUND`]. A delay of `d ∈ [0, T]` is read at `t + 1` —
//! the synchronous model's one-round delay, bit for bit, jitter included;
//! `d > T` straddles further boundaries, the asynchrony the two-steps-ahead
//! maintenance protocol was never proved against.
//!
//! `end_round` samples the in-flight high-water mark and reports the round's
//! network counters. Ticks survive only in the delay counters of
//! [`NetStats`], and all tick arithmetic saturates: a `Delay { ticks:
//! u64::MAX }` copy is read at the one round at the end of time instead of
//! wrapping back to the past.

use std::collections::BTreeMap;

use tsa_obs::ObsHandle;
use tsa_sim::{
    CommGraph, Delivery, Envelope, InFlight, NodeId, Outbox, PhaseSpans, Process, Round, SimConfig,
    SlotIndex, World,
};

use crate::fault::{FaultAction, FaultAdapter, FaultInjector, FaultPlan, FaultStats};
use crate::model::{NetModel, Topology};
use crate::trace::{MessageFate, MessageTrace};
use crate::TICKS_PER_ROUND;

/// Configuration of an event-driven run: the shared simulation knobs (seed,
/// lateness, churn rules, history window, parallel compute) plus the network
/// topology.
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
}

impl EventConfig {
    /// An event configuration over `sim` with the link-uniform network model
    /// `net`.
    pub fn new(sim: SimConfig, net: NetModel) -> Self {
        EventConfig::with_topology(sim, Topology::Global(net))
    }

    /// An event configuration over `sim` with an explicit link topology.
    pub fn with_topology(sim: SimConfig, topology: Topology) -> Self {
        EventConfig { sim, topology }
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

/// The virtual-time event simulator: a [`World`] whose messages travel
/// through a [`VirtualTime`] network.
pub type EventSimulator<P, A> = World<P, A, VirtualTime<<P as Process>::Msg>>;

/// The virtual-time delivery policy. See the module docs.
pub struct VirtualTime<M> {
    seed: u64,
    topology: Topology,
    /// The copies due two or more rounds after they were sent, in send
    /// order, under the round that reads them.
    inbound: BTreeMap<Round, Vec<Envelope<M>>>,
    /// Emptied records, taken by the next rounds opened.
    spare: Vec<Vec<Envelope<M>>>,
    /// Copies sent and not yet read (or dropped) at a boundary.
    in_flight: usize,
    /// Global send sequence number: the identity of a message for the
    /// network model's per-message fates.
    seq: u64,
    /// High-water mark of the copies in flight, sampled once per boundary.
    peak_queue_depth: u64,
    stats: NetStats,
    /// `stats` as of the end of the previous round.
    reported: NetStats,
    /// When `Some`, every routed message's fate is recorded here (this
    /// engine acting as the recording twin).
    trace: Option<MessageTrace>,
    /// When `Some`, message fates are read from this schedule instead of
    /// being sampled from the network model (this engine acting as the
    /// replaying twin of a recorded run).
    replay: Option<MessageTrace>,
    /// Matches every outgoing message against the installed fault plan
    /// (decisions are pure functions of `(seed, seq)`, identical on the
    /// loopback transport).
    faults: FaultInjector<M>,
}

impl<M> VirtualTime<M> {
    /// Number of distinct directed edges of `graph` that cross a region
    /// boundary of the configured topology — over a round's communication
    /// graph, the quantity that shows whether the two halves of a partition
    /// are still talking. 0 when the topology has no regions.
    pub fn cross_region_edges(&self, graph: &CommGraph) -> usize {
        graph
            .edges
            .iter()
            .filter(|&&(from, to)| self.topology.is_cross(from, to))
            .count()
    }

    /// Number of messages currently in flight (sent, not yet delivered):
    /// copies, not distinct payloads.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight
    }

    /// High-water mark of the copies in flight over the whole run, sampled
    /// at each round boundary after the sends (when the most are in flight).
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_queue_depth
    }

    /// Whole-run counters of the network model's effects.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Starts recording a per-message fate trace. Call before the first
    /// step; retrieve the result with [`take_trace`](VirtualTime::take_trace).
    pub fn record_trace(&mut self) {
        self.trace = Some(MessageTrace::new());
    }

    /// Takes the recorded fate trace, ending recording.
    pub fn take_trace(&mut self) -> Option<MessageTrace> {
        self.trace.take()
    }

    /// Replays `trace` as a fixed fate schedule: from now on, message fates
    /// come from the trace (by send sequence number) instead of the network
    /// model. A later step panics if a message is sent beyond the end of the
    /// trace — under a faithful twin the replayed run sends exactly the
    /// recorded messages, so running out of trace means the executions
    /// diverged.
    pub fn set_replay(&mut self, trace: MessageTrace) {
        self.replay = Some(trace);
    }

    /// Installs a fault-injection plan and the protocol's message adapter.
    /// Call before the first step. Decisions are pure functions of
    /// `(seed, seq)`; the same plan injects the same faults on the loopback
    /// transport. When combined with [`set_replay`](VirtualTime::set_replay),
    /// Drop and Delay decisions defer to the trace (which already encodes
    /// every fate) while Duplicate and Mutate are re-applied to keep
    /// sequence numbers and payload bytes aligned with the recording.
    pub fn set_faults(&mut self, plan: FaultPlan, adapter: FaultAdapter<M>) {
        self.faults.install(plan, adapter);
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Round `round`'s record, opened on a spare one if it is new.
    fn inbound(&mut self, round: Round) -> &mut Vec<Envelope<M>> {
        let spare = &mut self.spare;
        self.inbound
            .entry(round)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }
}

impl<M: Clone> Delivery<M> for VirtualTime<M> {
    type Config = EventConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "event.churn",
        deliver: "event.pop",
        send: "event.dispatch",
    };

    fn new(config: EventConfig) -> (SimConfig, Self) {
        let seed = config.sim.seed;
        let delivery = VirtualTime {
            seed,
            topology: config.topology,
            inbound: BTreeMap::new(),
            spare: Vec::new(),
            in_flight: 0,
            seq: 0,
            peak_queue_depth: 0,
            stats: NetStats::default(),
            reported: NetStats::default(),
            trace: None,
            replay: None,
            faults: FaultInjector::new(seed),
        };
        (config.sim, delivery)
    }

    /// Resolves the late list; what the last flush placed for a slot that
    /// has since departed is the world's to charge, and counted here.
    fn deliver(&mut self, _t: Round, index: &SlotIndex, in_flight: &mut InFlight<M>) -> usize {
        let due = in_flight.due();
        let dropped = in_flight.settle(index);
        self.in_flight -= due;
        self.stats.dropped_departed += (due - in_flight.pending()) as u64;
        dropped
    }

    fn send(
        &mut self,
        from: NodeId,
        t: Round,
        out: &mut Outbox<M>,
        in_flight: &mut InFlight<M>,
        obs: &ObsHandle,
    ) -> usize {
        let span = obs.span_start();
        let lost = match self.one_pass() {
            Some(net) => self.send_in_one_pass(net, out),
            None => self.send_per_copy(from, t, out),
        };
        in_flight.count(out);
        obs.span_end("event.fate", span);
        lost
    }

    /// Places round `t + 1`'s record ahead of this round's outboxes.
    fn flush_sends<'a>(
        &mut self,
        t: Round,
        outboxes: impl Iterator<Item = (NodeId, &'a mut Outbox<M>)>,
        index: &SlotIndex,
        in_flight: &mut InFlight<M>,
    ) where
        M: 'a,
    {
        let next = t.saturating_add(1);
        let mut due = self.inbound.remove(&next).unwrap_or_default();
        debug_assert!(self.inbound.keys().next().is_none_or(|&r| r > next));
        in_flight.place(t, due.drain(..), outboxes, index);
        if due.capacity() > 0 {
            self.spare.push(due);
        }
    }

    fn end_round(&mut self, _t: Round, obs: &ObsHandle) {
        self.peak_queue_depth = self.peak_queue_depth.max(self.in_flight as u64);
        // Scheduler-specific (but still deterministic) counters: the network
        // model's effects this round and the queue depth.
        let before = std::mem::replace(&mut self.reported, self.stats);
        if obs.is_on() {
            let now = &self.stats;
            obs.add("event.net_sent", now.sent - before.sent);
            obs.add("event.net_lost", now.lost - before.lost);
            obs.add(
                "event.dropped_departed",
                now.dropped_departed - before.dropped_departed,
            );
            obs.add("event.bridge_sent", now.bridge_sent - before.bridge_sent);
            obs.add("event.bridge_lost", now.bridge_lost - before.bridge_lost);
            obs.observe("event.queue_len", self.in_flight as u64);
        }
        self.faults.end_round(obs);
    }

    fn region_of(&self, id: NodeId) -> u32 {
        self.topology.region_of(id).unwrap_or(0)
    }
}

impl<M: Clone> VirtualTime<M> {
    /// The model of every link, when this round's sends go in one pass (see
    /// the module docs): a global topology whose every delay is read next
    /// round, and no fault plan, trace or replay that needs each copy on its
    /// own.
    fn one_pass(&self) -> Option<NetModel> {
        match self.topology {
            Topology::Global(net)
                if net.max_delay() <= TICKS_PER_ROUND
                    && !self.faults.is_installed()
                    && self.trace.is_none()
                    && self.replay.is_none() =>
            {
                Some(net)
            }
            _ => None,
        }
    }

    /// Numbers `out`'s copies in send order and drops the lost ones in
    /// place; every other copy stays, due next round. Returns the number
    /// lost.
    fn send_in_one_pass(&mut self, net: NetModel, out: &mut Outbox<M>) -> usize {
        let copies = out.len();
        let (seed, stats, seq) = (self.seed, &mut self.stats, &mut self.seq);
        out.retain(|| {
            let fate = net.route(seed, *seq);
            *seq += 1;
            let Some(delay) = fate else {
                return false;
            };
            stats.max_delay_ticks = stats.max_delay_ticks.max(delay);
            stats.total_delay_ticks = stats.total_delay_ticks.saturating_add(delay);
            true
        });
        let lost = copies - out.len();
        self.stats.sent += copies as u64;
        self.stats.lost += lost as u64;
        self.in_flight += out.len();
        lost
    }

    /// Sends `out` copy by copy: fault copies, each link's resolved model or
    /// the replayed fate, the trace record, and a record of its own for a
    /// copy due after next round. Returns the number lost.
    fn send_per_copy(&mut self, from: NodeId, t: Round, out: &mut Outbox<M>) -> usize {
        // The tick of this boundary, which delays are drawn from.
        let (seed, now) = (self.seed, t.saturating_mul(TICKS_PER_ROUND));
        let next = t.saturating_add(1);
        let mut lost = 0usize;
        out.keep(|to, payload| {
            // At most two copies, a duplicate's: each stays, with its own
            // payload or the send's, if it is due next round.
            let mut due = [None, None];
            for (i, copy) in self
                .faults
                .copies(&mut self.seq, t, from, to, payload)
                .enumerate()
            {
                let msg_seq = copy.seq;
                self.stats.sent += 1;
                // When replaying a recorded trace, Drop and Delay are already
                // encoded in the fates; only Mutate (payload bytes) and
                // Duplicate (sequence alignment) re-apply.
                let (fault_drop, extra_delay) = match copy.fault {
                    _ if self.replay.is_some() => (false, 0),
                    Some(FaultAction::Drop) => (true, 0),
                    Some(FaultAction::Delay { ticks }) => (false, ticks),
                    _ => (false, 0),
                };
                // The effective model of this message is a pure function of
                // (round, sender, receiver); its fate is a hash of (seed, seq)
                // alone, so two topologies resolving this link to equal
                // models take identical branches here.
                let (net, cross) = self.topology.resolve(t, from, to);
                if cross {
                    self.stats.bridge_sent += 1;
                }
                // The fate: a fault drop, a sample from the network model
                // (plus any fault delay), or — when replaying a recorded
                // twin run — the fixed schedule's entry for this sequence
                // number. A delivered copy carries its delay in ticks (for
                // the counters only) and the boundary that will read it.
                let fate = if fault_drop {
                    None
                } else {
                    match &self.replay {
                        None => net.route(seed, msg_seq).map(|d| {
                            let delay = d.saturating_add(extra_delay);
                            // The first boundary at or past the arrival tick,
                            // and never the sending round's own.
                            let arrival = now.saturating_add(delay);
                            let at_round = arrival.div_ceil(TICKS_PER_ROUND).max(next);
                            (delay, at_round)
                        }),
                        Some(tr) => match tr.fate(msg_seq) {
                            Some(MessageFate::Lost) => None,
                            Some(MessageFate::Delivered { at_round }) => {
                                assert!(
                                    at_round > t,
                                    "replay trace delivers seq {msg_seq} at round \
                                     {at_round}, not after its send round {t}"
                                );
                                // The delay that reaches boundary `at_round`
                                // (saturating, like every other tick product).
                                let arrival = at_round.saturating_mul(TICKS_PER_ROUND);
                                Some((arrival.saturating_sub(now), at_round))
                            }
                            None => panic!(
                                "replay trace exhausted at seq {msg_seq}: the \
                                 replayed execution diverged from the recording"
                            ),
                        },
                    }
                };
                let Some((delay, at_round)) = fate else {
                    lost += 1;
                    self.stats.lost += 1;
                    if cross {
                        self.stats.bridge_lost += 1;
                    }
                    if let Some(tr) = self.trace.as_mut() {
                        tr.record(msg_seq, MessageFate::Lost);
                    }
                    continue;
                };
                self.stats.max_delay_ticks = self.stats.max_delay_ticks.max(delay);
                self.stats.total_delay_ticks = self.stats.total_delay_ticks.saturating_add(delay);
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(msg_seq, MessageFate::Delivered { at_round });
                }
                self.in_flight += 1;
                if at_round > next {
                    let own = copy.mutated.unwrap_or_else(|| payload.clone());
                    self.inbound(at_round).push(Envelope::new(from, to, t, own));
                } else {
                    due[i] = Some(copy.mutated);
                }
            }
            due.into_iter().flatten()
        });
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultRule, NodeSelector};
    use crate::model::LatencyModel;
    use tsa_sim::prelude::*;

    // Delivery order and contents are held against a naive scheduler by
    // `tests/scheduler_reference.rs`; here we pin where the engine keeps
    // payloads.

    /// Node 0 shares one payload, `100 + round`, with nodes 1–8; everyone
    /// keeps what it hears.
    #[derive(Default)]
    struct Town {
        heard: Vec<u64>,
    }

    impl Process for Town {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            self.heard.extend(inbox.iter().map(|env| env.payload));
            if ctx.id() == NodeId(0) {
                ctx.broadcast((1..=8).map(NodeId), 100 + ctx.round());
            }
        }
    }

    /// Adds 1000 to a mutated payload.
    const PLUS_1000: FaultAdapter<u64> = FaultAdapter {
        kind_of: |_| 0,
        mutate: |payload, _| {
            *payload += 1000;
            true
        },
    };

    /// Nine `Town` nodes under `plan`, one round of delay apart.
    fn town(plan: FaultPlan) -> EventSimulator<Town, NullAdversary> {
        let config = EventConfig::new(
            SimConfig::default().with_seed(5),
            NetModel::new(LatencyModel::constant(0)),
        );
        let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Town::default()));
        sim.set_faults(plan, PLUS_1000);
        sim.seed_nodes(9);
        sim
    }

    fn heard(sim: &EventSimulator<Town, NullAdversary>, id: u64) -> &[u64] {
        &sim.node(NodeId(id)).unwrap().heard
    }

    /// The rounds with a record in flight.
    fn live_rounds<P: Process>(sim: &EventSimulator<P, NullAdversary>) -> Vec<Round> {
        sim.inbound.keys().copied().collect()
    }

    /// The payloads of the arena the next boundary reads.
    fn lane<P: Process>(sim: &EventSimulator<P, NullAdversary>) -> Vec<P::Msg>
    where
        P::Msg: Clone,
    {
        sim.in_flight()
            .arena()
            .iter()
            .map(|(_, payload)| payload.clone())
            .collect()
    }

    #[test]
    fn a_mutated_copy_gets_its_own_payload_and_the_others_share_one() {
        let to_three = FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 3 });
        let mut sim = town(FaultPlan::new().with_rule(to_three));
        sim.step();
        assert_eq!(live_rounds(&sim), [], "every copy is due next round");
        assert!(sim.in_flight().ahead().is_empty());
        assert_eq!(lane(&sim), [100, 1100], "the shared payload, then #3's");
        assert_eq!(sim.in_flight().pending(), 8, "placed at send time");
        sim.step();
        for id in 1..=8 {
            let expected = if id == 3 { 1100 } else { 100 };
            assert_eq!(heard(&sim, id), [expected], "#{id}");
        }
        assert_eq!(sim.fault_stats().mutated, 2, "one copy a round");
    }

    #[test]
    fn a_duplicate_shares_its_original_payload() {
        let to_five = FaultRule::every(FaultAction::Duplicate).to(NodeSelector::Id { id: 5 });
        let mut sim = town(FaultPlan::new().with_rule(to_five));
        sim.step();
        assert_eq!(live_rounds(&sim), []);
        assert_eq!(lane(&sim), [100]);
        let copies = sim.in_flight().pending();
        assert_eq!(copies, 9, "eight copies and #5's twin");
        assert_eq!(sim.in_flight_count(), 9);
        sim.step();
        for id in 1..=8 {
            let expected: &[u64] = if id == 5 { &[100, 100] } else { &[100] };
            assert_eq!(heard(&sim, id), expected, "#{id}");
        }
    }

    /// Nodes 1 and 2 send `100·id + round` to node 0, which keeps what it
    /// hears, sender first.
    #[derive(Default)]
    struct Pair {
        heard: Vec<(u64, u64)>,
    }

    impl Process for Pair {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            let heard = inbox.iter().map(|env| (env.from.raw(), env.payload));
            self.heard.extend(heard);
            let me = ctx.id().raw();
            if me > 0 {
                ctx.send(NodeId(0), 100 * me + ctx.round());
            }
        }
    }

    #[test]
    fn a_mutated_next_round_copy_keeps_its_place_in_send_order() {
        // Node 2's copies are corrupted, node 1's are not: node 0 must
        // still hear node 1 first every round, as both sent.
        let from_two = FaultRule::every(FaultAction::Mutate).from(NodeSelector::Id { id: 2 });
        let config = EventConfig::new(
            SimConfig::default().with_seed(5),
            NetModel::new(LatencyModel::constant(0)),
        );
        let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Pair::default()));
        sim.set_faults(FaultPlan::new().with_rule(from_two), PLUS_1000);
        sim.seed_nodes(3);
        sim.run(4);
        let heard = &sim.node(NodeId(0)).unwrap().heard;
        let expected: Vec<(u64, u64)> = (0..3)
            .flat_map(|round| [(1, 100 + round), (2, 1200 + round)])
            .collect();
        assert_eq!(heard, &expected);
        assert_eq!(lane(&sim), [103, 203, 1203], "#2's own entry last");
    }

    /// Removes node 3 at the start of round 2.
    struct DepartThree;

    impl Adversary for DepartThree {
        fn plan(&mut self, round: Round, _view: &KnowledgeView<'_>) -> ChurnPlan {
            ChurnPlan {
                departures: if round == 2 { vec![NodeId(3)] } else { vec![] },
                joins: vec![],
            }
        }
    }

    #[test]
    fn copies_placed_for_a_departing_receiver_are_dropped_once() {
        let config = EventConfig::new(
            SimConfig::default().with_seed(5),
            NetModel::new(LatencyModel::constant(0)),
        );
        let mut sim = EventSimulator::new(config, DepartThree, Box::new(|_, _| Town::default()));
        sim.seed_nodes(9);
        sim.run(2);
        assert_eq!(sim.in_flight().pending(), 8, "round 1's copies are placed");
        // Round 2's churn takes #3's placed copy with its slot; round 2
        // sends #3 one more, which waits in the late list and is dropped
        // at round 3's boundary.
        sim.step();
        assert_eq!(sim.net_stats().dropped_departed, 1);
        assert_eq!(sim.in_flight().late().count(), 1);
        sim.step();
        assert_eq!(sim.net_stats().dropped_departed, 2);
        let rows = sim.metrics().rounds();
        let dropped: Vec<usize> = rows.iter().map(|row| row.messages_dropped).collect();
        assert_eq!(dropped, [0, 0, 1, 1], "each copy charged once");
        assert_eq!(sim.in_flight_count(), 8);
    }

    /// Every node shares `(id << 32) | round` with every node, every round,
    /// checks that what it is handed carries its sender's and send round's
    /// payload, whichever entry of its round's record that is, and keeps
    /// each copy it reads as `(round, sender, send round)`.
    #[derive(Default)]
    struct Chorus {
        heard: Vec<(Round, u64, Round)>,
    }

    impl Process for Chorus {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            let round = ctx.round();
            for env in inbox {
                assert_eq!(env.to, ctx.id());
                assert_eq!(env.payload, (env.from.raw() << 32) | env.sent_at);
                self.heard.push((round, env.from.raw(), env.sent_at));
            }
            let me = (ctx.id().raw() << 32) | round;
            ctx.broadcast((0..CHORUS).map(NodeId), me);
        }

        fn state_digest(&self) -> u64 {
            let heard = self.heard.iter();
            heard.fold(0, |acc, &(t, from, sent_at)| {
                tsa_sim::rng::mix(&[acc, t, from, sent_at])
            })
        }
    }

    const CHORUS: u64 = 16;

    fn chorus(net: NetModel, plan: FaultPlan) -> EventSimulator<Chorus, NullAdversary> {
        let sim_config = SimConfig::default().with_seed(7).with_history_window(4);
        let mut sim = EventSimulator::new(
            EventConfig::new(sim_config, net),
            NullAdversary,
            Box::new(|_, _| Chorus::default()),
        );
        sim.set_faults(plan, PLUS_1000);
        sim.seed_nodes(CHORUS as usize);
        sim
    }

    /// Slots held off the map: the record being read, the arena and the
    /// spare records.
    fn retained_off_the_map<P: Process>(sim: &EventSimulator<P, NullAdversary>) -> usize {
        let records = sim.spare.iter().map(Vec::capacity).sum::<usize>();
        let [_, _, reading, arena, _] = sim.in_flight().capacity();
        reading + arena + records
    }

    fn sub_round() -> NetModel {
        NetModel::new(LatencyModel::uniform(100, 900))
    }

    #[test]
    fn copies_filed_far_ahead_pin_no_arena() {
        // A twentieth of all copies never arrive. Sharing their send rounds'
        // lane entries they would keep every round's payloads for good.
        let forever = FaultRule::every(FaultAction::Delay { ticks: u64::MAX }).with_prob(0.05);
        let mut sim = chorus(sub_round(), FaultPlan::new().with_rule(forever));
        sim.run(100);
        let warm = retained_off_the_map(&sim);
        sim.run(200);
        assert_eq!(retained_off_the_map(&sim), warm);
        let round = (CHORUS * CHORUS + CHORUS) as usize;
        assert!(warm <= 3 * round, "{warm} slots retained");
        assert_eq!(
            sim.in_flight().arena().len(),
            CHORUS as usize,
            "one entry per sender"
        );
        // The late copies keep their payloads under the one round, at the
        // end of time, that reads them.
        let end_of_time = u64::MAX.div_ceil(TICKS_PER_ROUND);
        assert_eq!(live_rounds(&sim), [end_of_time]);
        let delayed = sim.fault_stats().delayed as usize;
        assert!(delayed > 1000);
        assert_eq!(sim.inbound[&end_of_time].len(), delayed);
    }

    #[test]
    fn far_rounds_are_freed_once_read() {
        // 70 rounds late: far ahead, delivered all the same, and its
        // round's record gone once the receivers have read it.
        let late = FaultRule::every(FaultAction::Delay {
            ticks: 70 * TICKS_PER_ROUND,
        })
        .with_prob(0.05);
        let mut sim = chorus(sub_round(), FaultPlan::new().with_rule(late));
        sim.run(300);
        let delayed = sim.fault_stats().delayed as usize;
        let delivered: usize = sim.nodes().map(|(_, node)| node.heard.len()).sum();
        let in_flight = sim.in_flight_count();
        assert_eq!(delivered + in_flight, 300 * (CHORUS * CHORUS) as usize);
        // Round 300's record, placed ahead of round 299's outboxes, holds
        // the copies sent 71 rounds before.
        let reading = sim.in_flight().ahead();
        assert!(!reading.is_empty());
        assert!(reading.iter().all(|env| env.sent_at == 229));
        assert_eq!(live_rounds(&sim).first(), Some(&301));
        // Every payload held outside the arena is a late copy's own.
        let filed: usize = sim.inbound.values().map(Vec::len).sum();
        let late = filed + reading.len();
        assert!(late < delayed / 3, "{late} late payloads for {delayed}");
    }

    #[test]
    fn one_pass_and_per_copy_sends_agree() {
        let t = TICKS_PER_ROUND;
        let event_jitter = NetModel {
            latency: LatencyModel::uniform(100, 900),
            jitter: 50,
            loss: 0.005,
        };
        // Each model, and whether its plain run sends in one pass.
        let models = [
            (NetModel::new(LatencyModel::constant(0)), true),
            (event_jitter, true),
            (NetModel::new(LatencyModel::constant(t)), true),
            (NetModel::new(LatencyModel::uniform(0, t + 1)), false),
        ];
        for (net, one_pass) in models {
            let label = net.label();
            let build = || {
                let config = EventConfig::new(SimConfig::default().with_seed(7), net);
                let mut sim =
                    EventSimulator::new(config, DepartThree, Box::new(|_, _| Chorus::default()));
                sim.seed_nodes(CHORUS as usize);
                sim
            };
            // The per-copy path, twice: recording a trace, and under an
            // installed plan with no rules.
            let mut plain = build();
            let mut traced = build();
            traced.record_trace();
            let mut planned = build();
            planned.set_faults(FaultPlan::new(), PLUS_1000);
            assert_eq!(plain.one_pass().is_some(), one_pass, "{label}");
            assert!(traced.one_pass().is_none() && planned.one_pass().is_none());
            let state = |sim: &mut EventSimulator<Chorus, DepartThree>| {
                sim.run(40);
                let in_flight = sim.in_flight();
                let ahead = in_flight.ahead().to_vec();
                let waiting = (in_flight.arena().to_vec(), in_flight.pending());
                let late: Vec<NodeId> = in_flight.late().collect();
                let nodes: Vec<_> = sim
                    .nodes()
                    .map(|(id, node)| (id, node.state_digest(), node.heard.clone()))
                    .collect();
                let counters = (sim.net_stats(), sim.peak_queue_depth(), sim.seq);
                (counters, sim.in_flight_count(), ahead, waiting, late, nodes)
            };
            let reference = state(&mut plain);
            let (stats, ..) = reference.0;
            assert!(stats.sent > 9000 && stats.dropped_departed > 0, "{label}");
            assert_eq!(stats.lost > 0, net.loss > 0.0, "{label}");
            assert_eq!(stats.max_delay_ticks > t, !one_pass, "{label}: past t + 1");
            assert_eq!(state(&mut traced), reference, "{label}: recording a trace");
            assert_eq!(state(&mut planned), reference, "{label}: an empty plan");
        }
    }

    #[test]
    fn steady_state_rounds_do_not_grow_scratch_buffers() {
        // Multi-round latency: a round's copies arrive over the next three
        // boundaries, so several records are live at once.
        let net = NetModel::new(LatencyModel::uniform(100, 2600));
        let mut sim = chorus(net, FaultPlan::new());
        let caps = |sim: &EventSimulator<Chorus, NullAdversary>| {
            let live: usize = sim.inbound.values().map(Vec::capacity).sum();
            (
                (live + retained_off_the_map(sim), sim.spare.capacity()),
                sim.in_flight().capacity(),
            )
        };
        // The ahead buffer the placement moves each next-round record into
        // reaches the largest one between rounds 25 and 75 here, and holds
        // it over 1000 rounds.
        sim.run(100);
        let warm = caps(&sim);
        sim.run(60);
        assert_eq!(caps(&sim), warm, "steady-state rounds must not reallocate");
        let live = live_rounds(&sim);
        assert!(live.len() <= 3, "{live:?} live");
    }

    /// The flood protocol the engine tests pin traces with.
    #[derive(Default)]
    struct Ping;

    impl Process for Ping {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[Envelope<u64>]) {
            let me = ctx.id().raw();
            ctx.send(NodeId(me.wrapping_add(1)), me);
            if me > 0 {
                ctx.send(NodeId(me - 1), me);
            }
        }
    }

    /// Every fate the engine records must equal the one `route` predicts for
    /// its sequence number, filed under the delivery-round rule.
    #[test]
    fn recorded_traces_match_one_shot_route_predictions() {
        let seed = 42;
        let net = NetModel {
            latency: LatencyModel::uniform(100, 3500),
            jitter: 400,
            loss: 0.1,
        };
        let config = EventConfig::new(SimConfig::default().with_seed(seed), net);
        let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping));
        sim.record_trace();
        sim.seed_nodes(12);
        sim.run(8);
        let sent = sim.net_stats().sent;
        assert!(sent > 64, "the run sends enough copies to compare");
        // Reconstruct each seq's send round from the per-round send counts
        // (sequence numbers are assigned in send order).
        let mut send_round = Vec::with_capacity(sent as usize);
        for row in sim.metrics().rounds() {
            send_round.extend(std::iter::repeat_n(row.round, row.messages_sent));
        }
        assert_eq!(send_round.len() as u64, sent);
        let trace = sim.take_trace().unwrap();
        for seq in 0..sent {
            let t = send_round[seq as usize];
            let expected = match net.route(seed, seq) {
                None => MessageFate::Lost,
                Some(delay) => MessageFate::Delivered {
                    at_round: (t * TICKS_PER_ROUND + delay)
                        .div_ceil(TICKS_PER_ROUND)
                        .max(t + 1),
                },
            };
            assert_eq!(
                trace.fate(seq),
                Some(expected),
                "engine fate for seq {seq} diverged from the one-shot route"
            );
        }
    }
}
