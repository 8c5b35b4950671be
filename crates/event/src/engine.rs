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
//! # Payloads once, a handle per copy in flight
//!
//! As on the lockstep delivery, a send round's distinct payloads are kept
//! once, in an **arena**, but a copy may stay in flight for many rounds: the
//! queue parks a 48-byte `Pending<u32>` per copy — delivery round, sequence
//! number and an envelope whose payload is a 4-byte **handle**.
//!
//! * `send` (once per node, id order) appends the outbox's distinct payloads
//!   to the current round's arena, numbers the copies through the fault
//!   injector's one numbering rule (slots send in id order, so the numbering
//!   is the lockstep engine's in-flight order), draws each fate — a pure
//!   function of `(master seed, sequence number)`, or a recorded
//!   [`MessageTrace`]'s entry under replay — and files the survivors in a
//!   [`CalendarQueue`](crate::queue) of width 1 under their *delivery
//!   round*: the first boundary at or past the arrival tick, never the
//!   sending round's own (the round [`MessageTrace`] records). The arena's
//!   `read_until` rises to the latest delivery round of any copy filed
//!   against it. A copy a `Mutate` fault corrupts gets an arena entry of its
//!   own. A copy filed `FAR_ROUNDS` (64) or more rounds ahead files its
//!   payload in a far arena keyed by the round that reads it instead: one
//!   late copy must not pin its whole send round's arena (a hostile
//!   `Delay { ticks: u64::MAX }` would pin every round's forever).
//! * `deliver` at boundary `t` drains every bucket up to round `t` — one
//!   whole bucket, in push order ("round-boundary delivery"; within one
//!   boundary the residual arrival jitter has no semantic meaning, since
//!   every message of the batch is read by the same activation) — sorts the
//!   batch into send order, one linear pass on a bucket already in it, and
//!   scatters its positions into the world's inboxes. It takes round `t`'s
//!   far arena as the one this boundary's far handles name.
//! * When a payload is freed is decided at send time, from the round that
//!   reads it: boundary `t` recycles every arena whose `read_until` is
//!   before `t` (the compute phase after `read_until`'s boundary reads it),
//!   and drops the far arena boundary `t - 1` took.
//!
//! The engine keeps no clock; time is the round. A copy sent at round `t`
//! with a delay of `d` ticks is read at round `max(⌈(t·T + d)/T⌉, t + 1)`,
//! `T` = [`TICKS_PER_ROUND`]. A delay of `d ∈ [0, T]` is read at `t + 1` —
//! the synchronous model's one-round delay, bit for bit, jitter included;
//! `d > T` straddles further boundaries, the asynchrony the two-steps-ahead
//! maintenance protocol was never proved against.
//!
//! `end_round` samples the queue's high-water mark and reports the round's
//! network counters. Ticks survive only in the delay counters of
//! [`NetStats`], and all tick arithmetic saturates: a `Delay { ticks:
//! u64::MAX }` copy is read at the one round at the end of time instead of
//! wrapping back to the past.

use std::collections::{BTreeMap, VecDeque};

use tsa_obs::ObsHandle;
use tsa_sim::{
    CommGraph, Delivery, Envelope, Inboxes, NodeId, Outbox, PhaseSpans, Process, Round, SimConfig,
    SlotIndex, World,
};

use crate::fault::{FaultAction, FaultAdapter, FaultInjector, FaultPlan, FaultStats};
use crate::model::{FateBlock, NetModel, Topology};
use crate::queue::{CalendarQueue, Pending};
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

/// Rounds ahead of its send round from which a copy files its payload in the
/// far arena of the round that reads it instead of its send round's arena.
const FAR_ROUNDS: u64 = 64;

/// Set in a handle that names an entry of this boundary's far arena rather
/// than one of its send round's arena.
const FAR: u32 = 1 << 31;

/// An arena or far-arena index as a handle: a panic with a message where the
/// index reaches the far bit, never a wrap.
fn to_handle(index: usize) -> u32 {
    u32::try_from(index)
        .ok()
        .filter(|&h| h < FAR)
        .unwrap_or_else(|| panic!("payload index {index} does not fit a handle"))
}

/// The payloads one round sent, each distinct payload once (plus one entry
/// per mutated copy), and the latest round that reads one of them.
struct Arena<M> {
    payloads: Vec<M>,
    read_until: Round,
}

/// The virtual-time delivery policy. See the module docs.
pub struct VirtualTime<M> {
    seed: u64,
    topology: Topology,
    /// The event queue: one entry per copy in flight, filed under its
    /// delivery round; each envelope's payload is the copy's handle.
    queue: CalendarQueue<u32>,
    /// The arenas of send rounds `arena_base..`, oldest first: the current
    /// round's and every earlier one read at this boundary or a later one
    /// (a recycled one in between keeps its place, empty).
    arenas: VecDeque<Arena<M>>,
    arena_base: Round,
    /// Payload buffers of recycled arenas, taken by the next rounds'.
    spare_arenas: Vec<Vec<M>>,
    /// The payloads of copies filed [`FAR_ROUNDS`] or more ahead, under the
    /// round that reads them.
    far: BTreeMap<Round, Vec<M>>,
    /// The far arena this boundary reads, taken from `far`.
    far_batch: Vec<M>,
    /// This boundary's copies, in send order: what an inbox position names.
    batch: Vec<Pending<u32>>,
    /// Global send sequence number: the identity of a message for the
    /// network model's per-message streams.
    seq: u64,
    /// The cached network fate block for the current 64-message window of
    /// `seq` (sequence numbers are monotone, so one generation serves the
    /// whole window).
    fate_block: Option<FateBlock>,
    /// High-water mark of the event queue depth, sampled once per boundary.
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

    /// Number of messages currently in flight (queued, not yet delivered).
    pub fn in_flight_count(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the event queue depth over the whole run, sampled
    /// at each round boundary after the sends (when the queue is fullest).
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

    /// The payload a parked copy's envelope names.
    fn payload(&self, env: &Envelope<u32>) -> &M {
        if env.payload & FAR != 0 {
            &self.far_batch[(env.payload & !FAR) as usize]
        } else {
            &self.arenas[(env.sent_at - self.arena_base) as usize].payloads[env.payload as usize]
        }
    }

    /// Every arena that no boundary from `t` on reads is free: the compute
    /// phase after its last boundary is over. Arenas leave the front of the
    /// window; one further in gives its buffer back and keeps its place.
    fn recycle(&mut self, t: Round) {
        for arena in self.arenas.iter_mut() {
            if arena.read_until < t && arena.payloads.capacity() > 0 {
                let mut payloads = std::mem::take(&mut arena.payloads);
                payloads.clear();
                self.spare_arenas.push(payloads);
            }
        }
        while self.arenas.front().is_some_and(|a| a.read_until < t) {
            self.arenas.pop_front();
            self.arena_base += 1;
        }
    }

    /// Opens round `t`'s arena, on a recycled buffer when there is one.
    fn open_arena(&mut self, t: Round) {
        if self.arenas.is_empty() {
            self.arena_base = t;
        }
        debug_assert_eq!(self.arena_base + self.arenas.len() as u64, t);
        self.arenas.push_back(Arena {
            payloads: self.spare_arenas.pop().unwrap_or_default(),
            read_until: t,
        });
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
            queue: CalendarQueue::new(1),
            arenas: VecDeque::new(),
            arena_base: 0,
            spare_arenas: Vec::new(),
            far: BTreeMap::new(),
            far_batch: Vec::new(),
            batch: Vec::new(),
            seq: 0,
            fate_block: None,
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
        self.recycle(t);
        self.far_batch = self.far.remove(&t).unwrap_or_default();
        self.batch.clear();
        // Round t's bucket moves with a bulk append; the by-seq sort below is
        // the only order the inboxes ever see.
        self.queue.drain_at_or_before(t, &mut self.batch);
        self.batch.sort_unstable_by_key(|p| p.seq);
        let dropped = inboxes.scatter(self.batch.iter().map(|p| index.slot(p.env.to)));
        self.stats.dropped_departed += dropped as u64;
        self.open_arena(t);
        dropped
    }

    /// The batch entry's metadata and a clone of the payload its handle
    /// names.
    #[inline]
    fn envelope(&self, position: u32, to: NodeId) -> Envelope<M> {
        let env = &self.batch[position as usize].env;
        Envelope::new(env.from, to, env.sent_at, self.payload(env).clone())
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
        let payloads = out.payloads();
        let arena = self
            .arenas
            .back_mut()
            .expect("deliver opened the round's arena");
        let base = arena.payloads.len();
        arena.payloads.extend_from_slice(payloads);
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
                // (round, sender, receiver); the fate stream it consumes is
                // seeded from (seed, seq) alone, so two topologies resolving
                // this link to equal models take identical branches here.
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
                        None => {
                            // One fate block serves 64 consecutive sequence
                            // numbers; regenerate only when `msg_seq`
                            // crosses a window boundary.
                            let block = match &self.fate_block {
                                Some(b) if b.covers(seed, msg_seq) => b,
                                _ => &*self.fate_block.insert(FateBlock::containing(seed, msg_seq)),
                            };
                            net.route_with(block, msg_seq).map(|d| {
                                let delay = d.saturating_add(extra_delay);
                                // The first boundary at or past the arrival
                                // tick, and never the sending round's own.
                                let arrival = now.saturating_add(delay);
                                let at_round =
                                    arrival.div_ceil(TICKS_PER_ROUND).max(t.saturating_add(1));
                                (delay, at_round)
                            })
                        }
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
                let handle = if at_round - t >= FAR_ROUNDS {
                    let far = self.far.entry(at_round).or_default();
                    far.push(copy.mutated.unwrap_or_else(|| payload.clone()));
                    to_handle(far.len() - 1) | FAR
                } else {
                    let arena = self.arenas.back_mut().expect("opened above");
                    arena.read_until = arena.read_until.max(at_round);
                    match copy.mutated {
                        Some(own) => {
                            arena.payloads.push(own);
                            to_handle(arena.payloads.len() - 1)
                        }
                        None => to_handle(base + index),
                    }
                };
                self.queue.push(Pending {
                    arrival: at_round,
                    seq: msg_seq,
                    env: Envelope::new(from, to, t, handle),
                });
            }
        }
        out.clear();
        obs.span_end("event.fate", span);
        lost
    }

    fn end_round(&mut self, _t: Round, obs: &ObsHandle) {
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len() as u64);
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
            obs.observe("event.queue_len", self.queue.len() as u64);
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

    // The queue's ordering contract (pop order, far and late pushes, drains)
    // is tested in `crate::queue` and held against a reference `BinaryHeap`
    // by `tests/queue_props.rs`; here we pin where the engine keeps payloads.

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

    #[test]
    fn a_mutated_copy_gets_its_own_payload_and_the_others_share_one() {
        let to_three = FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 3 });
        let mut sim = town(FaultPlan::new().with_rule(to_three));
        sim.step();
        let sent = sim.arenas.back().unwrap();
        assert_eq!(sent.payloads, [100, 1100], "the shared payload, then #3's");
        assert_eq!(sent.read_until, 1, "read at the next boundary");
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
        let sent = sim.arenas.back().unwrap();
        assert_eq!((&sent.payloads[..], sent.read_until), (&[100][..], 1));
        sim.step();
        for id in 1..=8 {
            let expected: &[u64] = if id == 5 { &[100, 100] } else { &[100] };
            assert_eq!(heard(&sim, id), expected, "#{id}");
        }
    }

    /// Every node shares `(id << 32) | round` with every node, every round,
    /// and checks that what it is handed carries its sender's and send
    /// round's payload, whichever arena or far arena that came out of.
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

    /// Payload slots held by live and spare arenas.
    fn retained_arena_payloads<P: Process>(sim: &EventSimulator<P, NullAdversary>) -> usize {
        let live: usize = sim.arenas.iter().map(|a| a.payloads.capacity()).sum();
        live + sim.spare_arenas.iter().map(Vec::capacity).sum::<usize>()
    }

    fn sub_round() -> NetModel {
        NetModel::new(LatencyModel::uniform(100, 900))
    }

    #[test]
    fn copies_filed_far_ahead_pin_no_arena() {
        // A twentieth of all copies never arrive. Parked in their rounds'
        // arenas they would keep every round's payloads for good.
        let forever = FaultRule::every(FaultAction::Delay { ticks: u64::MAX }).with_prob(0.05);
        let mut sim = chorus(sub_round(), FaultPlan::new().with_rule(forever));
        sim.run(100);
        let retained = retained_arena_payloads(&sim);
        sim.run(200);
        assert_eq!(retained_arena_payloads(&sim), retained);
        assert!(
            retained <= 4 * CHORUS as usize,
            "{retained} payloads retained"
        );
        assert!(sim.arenas.len() <= 2, "{} arenas", sim.arenas.len());
        // The late copies keep their payloads under the one round, at the
        // end of time, that reads them.
        let delayed = sim.fault_stats().delayed as usize;
        assert!(delayed > 1000);
        let far: Vec<usize> = sim.far.values().map(Vec::len).collect();
        assert_eq!(far, [delayed]);
    }

    #[test]
    fn far_rounds_are_freed_once_read() {
        // 70 rounds late: far ahead, delivered all the same, and its far
        // round gone once the receivers have read it.
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
        assert!(!sim.far_batch.is_empty(), "round 299 read far copies");
        let first = sim.far.keys().next().copied();
        assert!(first.is_some_and(|round| round >= 300), "{first:?}");
        let far: usize = sim.far.values().map(Vec::len).sum();
        assert!(far < delayed / 3, "{far} far payloads for {delayed}");
        assert!(sim.arenas.len() <= 2, "{} arenas", sim.arenas.len());
    }

    #[test]
    fn steady_state_rounds_do_not_grow_scratch_buffers() {
        // Multi-round latency: a round's copies arrive over the next three
        // boundaries, so several arenas are live at once.
        let net = NetModel::new(LatencyModel::uniform(100, 2600));
        let mut sim = chorus(net, FaultPlan::new());
        let caps = |sim: &EventSimulator<Chorus, NullAdversary>| {
            (
                (retained_arena_payloads(sim), sim.arenas.capacity()),
                sim.batch.capacity(),
                sim.inboxes().capacity(),
            )
        };
        sim.run(30);
        let warm = caps(&sim);
        sim.run(60);
        assert_eq!(caps(&sim), warm, "steady-state rounds must not reallocate");
        assert!(sim.arenas.len() <= 5, "{} arenas", sim.arenas.len());
        assert!(sim.far.is_empty());
    }
}
