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
//! # One record per delivery round
//!
//! Everything in flight is kept under the round that reads it. Each round's
//! record is its copies in send order — a 32-byte envelope each, whose
//! payload is a 4-byte **handle** — plus the payloads those handles name.
//! Round `t + 1`'s record is the lockstep delivery's shape: that round's
//! distinct payloads once and a handle per copy.
//!
//! * `send` (once per node, id order) appends the outbox's distinct payloads
//!   once to round `t + 1`'s record, numbers the copies through the fault
//!   injector's one numbering rule (slots send in id order, so the numbering
//!   is the lockstep engine's in-flight order), draws each fate — a pure
//!   function of `(master seed, sequence number)`, or a recorded
//!   [`MessageTrace`]'s entry under replay — and appends each survivor to
//!   the record of its *delivery round*: the first boundary at or past the
//!   arrival tick, never the sending round's own (the round
//!   [`MessageTrace`] records). A copy read at `t + 1` names the shared
//!   entry; one read later, or one a `Mutate` fault corrupted, pushes its own
//!   payload into the record that reads it. A late copy so holds nothing but
//!   itself: a hostile `Delay { ticks: u64::MAX }` copy sits in the one
//!   record at the end of time and pins no other round's payloads.
//! * Copies are appended in sequence order, so every record is already in
//!   send order.
//! * `deliver` at boundary `t` takes round `t`'s record as the one inbox
//!   positions and handles name ("round-boundary delivery"; within one
//!   boundary the residual arrival jitter has no semantic meaning, since
//!   every message of the record is read by the same activation) and
//!   scatters its copies into the world's inboxes. The record boundary
//!   `t - 1` read goes back, emptied, to a spare list, where the next record
//!   opened takes it.
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
    handle, CommGraph, Delivery, Envelope, Inboxes, NodeId, Outbox, PhaseSpans, Process, Round,
    SimConfig, SlotIndex, World,
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

/// The copies one round reads, in send order, and the payloads their
/// handles name.
struct Inbound<M> {
    /// One envelope per copy; its payload is an index into `payloads`.
    copies: Vec<Envelope<u32>>,
    payloads: Vec<M>,
}

impl<M> Default for Inbound<M> {
    fn default() -> Self {
        Inbound {
            copies: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

/// The virtual-time delivery policy. See the module docs.
pub struct VirtualTime<M> {
    seed: u64,
    topology: Topology,
    /// Everything in flight, under the round that reads it.
    inbound: BTreeMap<Round, Inbound<M>>,
    /// The record this boundary reads: what an inbox position names.
    reading: Inbound<M>,
    /// Emptied records, taken by the next rounds opened.
    spare: Vec<Inbound<M>>,
    /// Copies in `inbound`.
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
    fn inbound(&mut self, round: Round) -> &mut Inbound<M> {
        let spare = &mut self.spare;
        self.inbound
            .entry(round)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }
}

impl<M: Clone + Send + Sync> Delivery<M> for VirtualTime<M> {
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
            reading: Inbound::default(),
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

    fn deliver(&mut self, t: Round, index: &SlotIndex, inboxes: &mut Inboxes) -> usize {
        debug_assert!(self.inbound.keys().next().is_none_or(|&r| r >= t));
        let due = self.inbound.remove(&t).unwrap_or_default();
        let mut read = std::mem::replace(&mut self.reading, due);
        if read.copies.capacity() > 0 {
            read.copies.clear();
            read.payloads.clear();
            self.spare.push(read);
        }
        let copies = &self.reading.copies;
        self.in_flight -= copies.len();
        let dropped = inboxes.scatter(copies.iter().map(|env| index.slot(env.to)));
        self.stats.dropped_departed += dropped as u64;
        dropped
    }

    /// The copy's metadata and a clone of the payload its handle names.
    #[inline]
    fn envelope(&self, position: u32, to: NodeId) -> Envelope<M> {
        let env = &self.reading.copies[position as usize];
        let payload = &self.reading.payloads[env.payload as usize];
        Envelope::new(env.from, to, env.sent_at, payload.clone())
    }

    fn send(
        &mut self,
        from: NodeId,
        t: Round,
        out: &mut Outbox<M>,
        _inboxes: &mut Inboxes,
        obs: &ObsHandle,
    ) -> usize {
        let span = obs.span_start();
        // The tick of this boundary, which delays are drawn from.
        let (seed, now) = (self.seed, t.saturating_mul(TICKS_PER_ROUND));
        let next = t.saturating_add(1);
        let payloads = out.payloads();
        let shared = &mut self.inbound(next).payloads;
        let base = shared.len();
        shared.extend_from_slice(payloads);
        let mut lost = 0usize;
        for (to, index) in out.sends() {
            let payload = &payloads[index];
            for copy in self.faults.copies(&mut self.seq, t, from, to, payload) {
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
                let record = self.inbound(at_round);
                let h = match copy.mutated {
                    None if at_round == next => handle(base + index),
                    own => {
                        record.payloads.push(own.unwrap_or_else(|| payload.clone()));
                        handle(record.payloads.len() - 1)
                    }
                };
                record.copies.push(Envelope::new(from, to, t, h));
                self.in_flight += 1;
            }
        }
        out.clear();
        obs.span_end("event.fate", span);
        lost
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

    #[test]
    fn a_mutated_copy_gets_its_own_payload_and_the_others_share_one() {
        let to_three = FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 3 });
        let mut sim = town(FaultPlan::new().with_rule(to_three));
        sim.step();
        assert_eq!(live_rounds(&sim), [1], "read at the next boundary");
        let next = &sim.inbound[&1].payloads;
        assert_eq!(next, &[100, 1100], "the shared payload, then #3's");
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
        assert_eq!(live_rounds(&sim), [1]);
        assert_eq!(sim.inbound[&1].payloads, [100]);
        let copies = sim.inbound[&1].copies.len();
        assert_eq!(copies, 9, "eight copies and #5's twin");
        sim.step();
        for id in 1..=8 {
            let expected: &[u64] = if id == 5 { &[100, 100] } else { &[100] };
            assert_eq!(heard(&sim, id), expected, "#{id}");
        }
    }

    /// Every node shares `(id << 32) | round` with every node, every round,
    /// and checks that what it is handed carries its sender's and send
    /// round's payload, whichever entry of its round's record that is.
    struct Chorus {
        n: u64,
        heard: usize,
    }

    impl Process for Chorus {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                assert_eq!(env.to, ctx.id());
                assert_eq!(env.payload, (env.from.raw() << 32) | env.sent_at);
            }
            self.heard += inbox.len();
            let me = (ctx.id().raw() << 32) | ctx.round();
            ctx.broadcast((0..self.n).map(NodeId), me);
        }
    }

    const CHORUS: u64 = 16;

    fn chorus(net: NetModel, plan: FaultPlan) -> EventSimulator<Chorus, NullAdversary> {
        let sim_config = SimConfig::default().with_seed(7).with_history_window(4);
        let mut sim = EventSimulator::new(
            EventConfig::new(sim_config, net),
            NullAdversary,
            Box::new(|_, _| Chorus {
                n: CHORUS,
                heard: 0,
            }),
        );
        sim.set_faults(plan, PLUS_1000);
        sim.seed_nodes(CHORUS as usize);
        sim
    }

    /// Copy and payload slots a record holds.
    fn slots<M>(record: &Inbound<M>) -> usize {
        record.copies.capacity() + record.payloads.capacity()
    }

    /// Slots held by the record being read and the spare records.
    fn retained_off_the_map<P: Process>(sim: &EventSimulator<P, NullAdversary>) -> usize {
        slots(&sim.reading) + sim.spare.iter().map(slots).sum::<usize>()
    }

    fn sub_round() -> NetModel {
        NetModel::new(LatencyModel::uniform(100, 900))
    }

    #[test]
    fn copies_filed_far_ahead_pin_no_arena() {
        // A twentieth of all copies never arrive. Sharing their send rounds'
        // payloads they would keep every round's payloads for good.
        let forever = FaultRule::every(FaultAction::Delay { ticks: u64::MAX }).with_prob(0.05);
        let mut sim = chorus(sub_round(), FaultPlan::new().with_rule(forever));
        let retained = |sim: &EventSimulator<Chorus, NullAdversary>, next: Round| {
            slots(&sim.inbound[&next]) + retained_off_the_map(sim)
        };
        sim.run(100);
        let warm = retained(&sim, 100);
        sim.run(200);
        assert_eq!(retained(&sim, 300), warm);
        let round = (CHORUS * CHORUS + CHORUS) as usize;
        assert!(warm <= 3 * round, "{warm} slots retained");
        // The late copies keep their payloads under the one round, at the
        // end of time, that reads them.
        let end_of_time = u64::MAX.div_ceil(TICKS_PER_ROUND);
        assert_eq!(live_rounds(&sim), [300, end_of_time]);
        let delayed = sim.fault_stats().delayed as usize;
        assert!(delayed > 1000);
        assert_eq!(sim.inbound[&end_of_time].payloads.len(), delayed);
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
        let delivered: usize = sim.nodes().map(|(_, node)| node.heard).sum();
        let in_flight = sim.in_flight_count();
        assert_eq!(delivered + in_flight, 300 * (CHORUS * CHORUS) as usize);
        let read_late = sim.reading.copies.iter().any(|env| env.sent_at < 299 - 64);
        assert!(read_late, "round 299 read copies sent 70 rounds before");
        assert_eq!(live_rounds(&sim).first(), Some(&300));
        // Every payload held but round 299's shared ones is a late copy's.
        let held: usize = sim.inbound.values().map(|r| r.payloads.len()).sum();
        let late = held - CHORUS as usize;
        assert!(late < delayed / 3, "{late} late payloads for {delayed}");
    }

    #[test]
    fn steady_state_rounds_do_not_grow_scratch_buffers() {
        // Multi-round latency: a round's copies arrive over the next three
        // boundaries, so several records are live at once.
        let net = NetModel::new(LatencyModel::uniform(100, 2600));
        let mut sim = chorus(net, FaultPlan::new());
        let caps = |sim: &EventSimulator<Chorus, NullAdversary>| {
            let live: usize = sim.inbound.values().map(slots).sum();
            (
                (live + retained_off_the_map(sim), sim.spare.capacity()),
                sim.inboxes().capacity(),
            )
        };
        sim.run(30);
        let warm = caps(&sim);
        sim.run(60);
        assert_eq!(caps(&sim), warm, "steady-state rounds must not reallocate");
        let live = live_rounds(&sim);
        assert!(live.len() <= 3, "{live:?} live");
    }
}
