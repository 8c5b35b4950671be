//! The virtual-time delivery: every message individually samples its fate.
//!
//! Virtual time is measured in integer *ticks*; [`TICKS_PER_ROUND`] ticks
//! make one protocol round. Nodes keep the synchronous cadence of the
//! paper's model — [`EventSimulator`] is the same [`World`] round loop as the
//! lockstep simulator, with the same per-`(seed, node, round)` RNG streams,
//! the same churn arbiter and the same parallel compute phase — but the
//! *network* between the boundaries is asynchronous: each message samples a
//! latency (plus jitter) from the [`NetModel`] its link resolves to and may
//! be lost, and a [`FaultPlan`] may drop, delay, duplicate
//! or mutate it on the way out.
//!
//! # What `deliver`, `send` and `end_round` do, and what they cost
//!
//! `send` gives every outgoing message the next global *sequence number* (its
//! send index: slots send in id order, so the numbering is the lockstep
//! engine's in-flight order), decides its fault and its fate — both pure
//! functions of `(master seed, sequence number)`, drawn from cached 64-message
//! blocks, or read from a recorded [`MessageTrace`] under replay — and pushes
//! the survivors into a [`CalendarQueue`](crate::queue) keyed on arrival
//! tick: ~30 ns of fate and ~10 ns of queue per message, no allocation.
//!
//! `deliver` at boundary `t` drains everything whose arrival tick has passed
//! ("round-boundary delivery") and re-sorts the batch into send order before
//! it reaches the per-slot inboxes: within one boundary the residual arrival
//! jitter has no semantic meaning (every message of the batch is read by the
//! same activation), and send order is exactly the lockstep delivery order.
//! A delay of `d ∈ [0, ticks_per_round]` for a message sent at boundary
//! `t - 1` lands at `(t-1)·T + d ≤ t·T` and is read at `t` — the synchronous
//! model's one-round delay, bit for bit, jitter included; `d >
//! ticks_per_round` straddles further boundaries, the asynchrony the
//! two-steps-ahead maintenance protocol was never proved against.
//!
//! `end_round` samples the queue's high-water mark and reports the round's
//! network counters. All tick arithmetic saturates: a hostile
//! `ticks_per_round` pins the clock at the end of time instead of wrapping it
//! (which would reorder the queue).

use tsa_obs::ObsHandle;
use tsa_sim::{
    CommGraph, Delivery, Envelope, NodeId, Outbox, PhaseSpans, Process, Round, SimConfig,
    SlotIndex, World,
};

use crate::fault::{FaultAdapter, FaultInjector, FaultPlan, FaultStats};
use crate::model::{FateBlock, NetModel, Topology};
use crate::queue::{CalendarQueue, Pending};
use crate::trace::{MessageFate, MessageTrace};
use crate::TICKS_PER_ROUND;

/// Configuration of an event-driven run: the shared simulation knobs (seed,
/// lateness, churn rules, history window, parallel compute) plus the network
/// topology and clock resolution.
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

/// The virtual-time event simulator: a [`World`] whose messages travel
/// through a [`VirtualTime`] network.
pub type EventSimulator<P, A> = World<P, A, VirtualTime<<P as Process>::Msg>>;

/// The virtual-time delivery policy. See the module docs.
pub struct VirtualTime<M> {
    seed: u64,
    topology: Topology,
    ticks_per_round: u64,
    /// The tick of the boundary being executed (between steps: the next).
    now: u64,
    /// Per-slot inboxes, in `(arrival boundary, seq)` order.
    inboxes: Vec<Vec<Envelope<M>>>,
    /// Inbox buffers donated by departed nodes, reused by joining nodes.
    spare_inboxes: Vec<Vec<Envelope<M>>>,
    /// The event queue: pending deliveries, earliest `(arrival, seq)` first.
    queue: CalendarQueue<M>,
    /// Global send sequence number: the identity of a message for the
    /// network model's per-message streams.
    seq: u64,
    /// The cached network fate block for the current 64-message window of
    /// `seq` (sequence numbers are monotone, so one generation serves the
    /// whole window).
    fate_block: Option<FateBlock>,
    /// High-water mark of the event queue depth, sampled once per boundary.
    peak_queue_depth: u64,
    /// Scratch: the current boundary's deliverable batch.
    deliverable: Vec<Pending<M>>,
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
    /// The current virtual time in ticks (the tick of the next boundary).
    /// Saturates at `u64::MAX`: a hostile `ticks_per_round` can pin the
    /// clock at the end of time but can never wrap it back to the past.
    pub fn virtual_time(&self) -> u64 {
        self.now
    }

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
}

impl<M: Clone + Send + Sync> Delivery<M> for VirtualTime<M> {
    type Config = EventConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "event.churn",
        deliver: "event.pop",
        send: "event.dispatch",
    };

    fn new(config: EventConfig) -> (SimConfig, Self) {
        assert!(config.ticks_per_round > 0, "ticks_per_round must be > 0");
        let seed = config.sim.seed;
        let delivery = VirtualTime {
            seed,
            topology: config.topology,
            ticks_per_round: config.ticks_per_round,
            now: 0,
            inboxes: Vec::new(),
            spare_inboxes: Vec::new(),
            queue: CalendarQueue::new(config.ticks_per_round),
            seq: 0,
            fate_block: None,
            peak_queue_depth: 0,
            deliverable: Vec::new(),
            stats: NetStats::default(),
            reported: NetStats::default(),
            trace: None,
            replay: None,
            faults: FaultInjector::new(seed),
        };
        (config.sim, delivery)
    }

    fn on_join(&mut self, _id: NodeId) {
        self.inboxes
            .push(self.spare_inboxes.pop().unwrap_or_default());
    }

    fn on_depart(&mut self, _id: NodeId, slot: usize, _t: Round) {
        let mut inbox = self.inboxes.remove(slot);
        inbox.clear();
        self.spare_inboxes.push(inbox);
    }

    fn deliver(&mut self, t: Round, index: &SlotIndex) -> (usize, usize) {
        debug_assert_eq!(self.now, t.saturating_mul(self.ticks_per_round));
        for inbox in self.inboxes.iter_mut() {
            inbox.clear();
        }
        self.deliverable.clear();
        // The wheel moves whole due buckets with a bulk append (unordered);
        // the by-seq sort below is the only order the inboxes ever see.
        self.queue
            .drain_at_or_before(self.now, &mut self.deliverable);
        self.deliverable.sort_unstable_by_key(|p| p.seq);
        let batch = self.deliverable.len();
        let mut dropped = 0usize;
        for pending in self.deliverable.drain(..) {
            match index.slot(pending.env.to) {
                Some(idx) => self.inboxes[idx].push(pending.env),
                None => {
                    dropped += 1;
                    self.stats.dropped_departed += 1;
                }
            }
        }
        (batch - dropped, dropped)
    }

    fn inbox<'a>(&'a self, slot: usize, _buf: &'a mut Vec<Envelope<M>>) -> &'a [Envelope<M>] {
        &self.inboxes[slot]
    }

    fn inbox_len(&self, slot: usize) -> usize {
        self.inboxes[slot].len()
    }

    fn send(&mut self, from: NodeId, t: Round, out: &mut Outbox<M>, obs: &ObsHandle) -> usize {
        let span = obs.span_start();
        let (seed, now, ticks_per_round) = (self.seed, self.now, self.ticks_per_round);
        let mut lost = 0usize;
        for (to, payload) in out.iter() {
            // Every copy is its own message from here on: a fault mutates
            // this clone, never the payload the other copies share.
            let mut payload = payload.clone();
            // The fault decision is taken on the sequence number this
            // message is about to take, so the loopback transport takes the
            // identical branch for the identical frame.
            let fault = self.faults.apply(self.seq, t, from, to, &mut payload);
            // When replaying a recorded trace, Drop and Delay are already
            // encoded in the fates; only Mutate (payload bytes) and
            // Duplicate (sequence alignment) re-apply.
            let (fault_drop, extra_delay) = if self.replay.is_some() {
                (false, 0)
            } else {
                (fault.drop, fault.delay_ticks.unwrap_or(0))
            };
            // The duplicate copy consumes the next sequence number and
            // takes its own network fate, with no fault decision of its own.
            let dup = fault.duplicate.then(|| payload.clone());
            for payload in std::iter::once(payload).chain(dup) {
                let msg_seq = self.seq;
                self.seq += 1;
                self.stats.sent += 1;
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
                // number.
                let delay = if fault_drop {
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
                            net.route_with(block, msg_seq)
                                .map(|d| d.saturating_add(extra_delay))
                        }
                        Some(tr) => match tr.fate(msg_seq) {
                            Some(MessageFate::Lost) => None,
                            Some(MessageFate::Delivered { at_round }) => {
                                // Delivered at boundary `at_round` means an
                                // arrival tick at exactly that boundary
                                // (saturating, like every other tick
                                // product).
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
                        self.stats.lost += 1;
                        if cross {
                            self.stats.bridge_lost += 1;
                        }
                        if let Some(tr) = self.trace.as_mut() {
                            tr.record(msg_seq, MessageFate::Lost);
                        }
                    }
                    Some(delay) => {
                        self.stats.max_delay_ticks = self.stats.max_delay_ticks.max(delay);
                        self.stats.total_delay_ticks =
                            self.stats.total_delay_ticks.saturating_add(delay);
                        let arrival = now.saturating_add(delay);
                        if let Some(tr) = self.trace.as_mut() {
                            // The boundary that will read this message: the
                            // first one at or past the arrival tick, and
                            // never the sending round's own.
                            let at_round =
                                (arrival.div_ceil(ticks_per_round)).max(t.saturating_add(1));
                            tr.record(msg_seq, MessageFate::Delivered { at_round });
                        }
                        self.queue.push(Pending {
                            arrival,
                            seq: msg_seq,
                            env: Envelope::new(from, to, t, payload),
                        });
                    }
                }
            }
        }
        out.clear();
        obs.span_end("event.fate", span);
        lost
    }

    fn end_round(&mut self, t: Round, obs: &ObsHandle) {
        self.now = t.saturating_add(1).saturating_mul(self.ticks_per_round);
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
