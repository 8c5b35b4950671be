//! The loopback-TCP transport runtime.
//!
//! # Runtime model
//!
//! [`NetRunner`] is the third scheduler policy over the workspace's
//! transport-agnostic [`ProtocolStep`] node logic — after the lockstep round
//! engine and the virtual-time event engine — and the first one where
//! messages travel as real bytes. Every node owns a loopback TCP listener;
//! activations still happen on the synchronous cadence of the paper's model,
//! but the cadence is now *wall-clock*: each round lasts
//! `tick × ticks_per_round` of real time (the event engine's 1000-ticks
//! clock, reinterpreted at a configurable tick duration), and the network
//! between the boundaries is the operating system.
//!
//! Two threads run the show: the caller's thread is the *coordinator*
//! (churn, activations, sends), and one *poller* thread owns every listener
//! and accepted connection, decoding frames into a shared hub of inboxes as
//! they arrive. There is no tokio and no thread-per-node — `std::net`
//! nonblocking sockets and a `64 KiB` read buffer are enough for an
//! in-process overlay.
//!
//! # Determinism boundary
//!
//! Wall-clock time and OS scheduling decide *when* a frame lands, and
//! therefore which round boundary reads it — that is the only
//! nondeterminism. Everything else is pinned: churn goes through the same
//! [`tsa_sim::apply_churn_plan`] arbiter against the same lateness-filtered
//! knowledge, per-activation RNG streams depend only on
//! `(seed, node, round)`, and inboxes are re-sorted into global send order
//! before every activation. The runner records each message's fate in a
//! [`MessageTrace`]; replaying that trace in an
//! [`EventSimulator`](tsa_event::EventSimulator) re-executes the run inside
//! the deterministic model — the differential tests in `tsa-core` prove the
//! replay reproduces the transport run's protocol state exactly.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tsa_event::{
    FaultAdapter, FaultCoins, FaultDecision, FaultPlan, FaultStats, MessageFate, MessageTrace,
    NetStats, TICKS_PER_ROUND,
};
use tsa_obs::ObsHandle;
use tsa_sim::knowledge::{KnowledgeView, MemberInfo, RoundRecord};
use tsa_sim::{
    apply_churn_plan, record_round_obs, run_activation, Adversary, ChurnBudget, ChurnOutcome,
    Envelope, MetricsHistory, MetricsMode, MetricsSummary, NodeFactory, NodeId, PlanScratch,
    ProtocolStep, Round, RoundMetrics, RoundMetricsBuilder, SimConfig, SlotIndex, StreamingMetrics,
};

use crate::codec::{decode_wire_value, encode_wire_frame, FrameDecoder, DEFAULT_MAX_FRAME};

/// Configuration of a loopback transport run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The shared simulation knobs: seed, hash seed, lateness, churn rules,
    /// history window. Seeds are used exactly as in the other two engines,
    /// so the same protocol run is comparable across all three.
    pub sim: SimConfig,
    /// Virtual ticks per round (defaults to [`TICKS_PER_ROUND`]); only the
    /// product `tick × ticks_per_round` — the round duration — is
    /// observable.
    pub ticks_per_round: u64,
    /// Wall-clock duration of one virtual tick. The default 20 µs makes a
    /// 1000-tick round last 20 ms: comfortably longer than a loopback
    /// round-trip, short enough that tests stay fast.
    pub tick: Duration,
    /// Upper bound on a single frame's payload, enforced by the decoder.
    pub max_frame: usize,
}

impl NetConfig {
    /// A transport configuration over `sim` with the default 20 ms round.
    pub fn new(sim: SimConfig) -> Self {
        NetConfig {
            sim,
            ticks_per_round: TICKS_PER_ROUND,
            tick: Duration::from_micros(20),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// Sets the wall-clock duration of one whole round (the tick becomes
    /// `duration / ticks_per_round`).
    pub fn with_round_duration(mut self, duration: Duration) -> Self {
        self.tick = duration / (self.ticks_per_round as u32);
        self
    }

    /// The wall-clock duration of one round.
    pub fn round_duration(&self) -> Duration {
        self.tick * (self.ticks_per_round as u32)
    }
}

/// Whole-run counters of actual wire traffic (frames and bytes, headers
/// included), on both sides of the loopback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireStats {
    /// Frames successfully written to a socket.
    pub frames_sent: u64,
    /// Bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Frames decoded by the poller.
    pub frames_received: u64,
    /// Bytes read by the poller.
    pub bytes_received: u64,
}

/// One node's decoded-but-unread messages: `(send seq, envelope)` pairs in
/// arrival order, re-sorted into global send order at the round boundary.
type InboxBatch<M> = Vec<(u64, Envelope<M>)>;

/// Messages the poller has decoded but no activation has read yet.
struct Hub<M> {
    /// Per-node pending messages, keyed by the *listener owner* (the socket
    /// a frame arrived on decides its receiver).
    inboxes: BTreeMap<NodeId, InboxBatch<M>>,
    /// Sequence numbers of frames that arrived for a node with no inbox
    /// (departed between the sender's records and delivery).
    dead_letters: Vec<u64>,
    frames_received: u64,
    bytes_received: u64,
}

impl<M> Default for Hub<M> {
    fn default() -> Self {
        Hub {
            inboxes: BTreeMap::new(),
            dead_letters: Vec::new(),
            frames_received: 0,
            bytes_received: 0,
        }
    }
}

/// Coordinator → poller control messages.
enum Ctl {
    Register(NodeId, TcpListener),
    Unregister(NodeId),
    Shutdown,
}

/// One accepted connection on the poller: the listener owner it delivers
/// to, the nonblocking stream, and its incremental frame decoder.
struct Conn {
    owner: NodeId,
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// The poller loop: accept on every registered listener, read every
/// connection, decode frames into the hub. Runs until shutdown.
fn poll_loop<M: serde::Deserialize>(
    ctl: mpsc::Receiver<Ctl>,
    hub: Arc<Mutex<Hub<M>>>,
    max_frame: usize,
) {
    let mut listeners: Vec<(NodeId, TcpListener)> = Vec::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        loop {
            match ctl.try_recv() {
                Ok(Ctl::Register(id, listener)) => listeners.push((id, listener)),
                Ok(Ctl::Unregister(id)) => {
                    listeners.retain(|(owner, _)| *owner != id);
                    conns.retain(|c| c.owner != id);
                }
                Ok(Ctl::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return,
                Err(mpsc::TryRecvError::Empty) => break,
            }
        }
        let mut active = false;
        for (owner, listener) in listeners.iter() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conns.push(Conn {
                            owner: *owner,
                            stream,
                            decoder: FrameDecoder::with_max_frame(max_frame),
                        });
                        active = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            let mut drop_conn = false;
            loop {
                match conns[i].stream.read(&mut buf) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(n) => {
                        active = true;
                        let conn = &mut conns[i];
                        conn.decoder.push(&buf[..n]);
                        let mut hub = hub.lock().expect("hub lock poisoned");
                        hub.bytes_received += n as u64;
                        loop {
                            match conn.decoder.next_frame() {
                                Ok(Some(value)) => match decode_wire_value::<M>(&value) {
                                    Ok((seq, env)) => {
                                        hub.frames_received += 1;
                                        match hub.inboxes.get_mut(&conn.owner) {
                                            Some(inbox) => inbox.push((seq, env)),
                                            None => hub.dead_letters.push(seq),
                                        }
                                    }
                                    // A frame that decodes but is not a wire
                                    // envelope: the peer is broken, cut it.
                                    Err(_) => {
                                        drop_conn = true;
                                        break;
                                    }
                                },
                                Ok(None) => break,
                                // Oversized or malformed stream: the offset
                                // is meaningless from here on, cut it.
                                Err(_) => {
                                    drop_conn = true;
                                    break;
                                }
                            }
                        }
                        if drop_conn {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }
            if drop_conn {
                conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if !active {
            thread::sleep(Duration::from_micros(200));
        }
    }
}

/// A node on the transport: protocol state plus its reusable outbox buffer.
struct NetSlot<P: ProtocolStep> {
    id: NodeId,
    joined_at: Round,
    process: P,
    out: Vec<(NodeId, P::Msg)>,
    sponsored_start: usize,
    sponsored_len: usize,
}

/// The loopback transport runtime: real sockets under the unmodified
/// protocol logic, with every message's fate recorded for twin replay.
pub struct NetRunner<P, A>
where
    P: ProtocolStep,
    P::Msg: serde::Serialize + serde::Deserialize,
    A: Adversary,
{
    config: NetConfig,
    adversary: A,
    factory: NodeFactory<P>,
    /// Node slots, sorted by identifier.
    slots: Vec<NetSlot<P>>,
    /// `id → slot` table over `slots` (slot lookup and distinct-receiver
    /// stamps), kept current wherever `slots` changes.
    index: SlotIndex,
    members: BTreeMap<NodeId, MemberInfo>,
    /// Listener addresses of live nodes, for the sender side.
    addrs: BTreeMap<NodeId, SocketAddr>,
    /// Cached outgoing streams, one per directed `(sender, receiver)` link.
    conns: BTreeMap<(NodeId, NodeId), TcpStream>,
    hub: Arc<Mutex<Hub<P::Msg>>>,
    ctl: mpsc::Sender<Ctl>,
    poller: Option<thread::JoinHandle<()>>,
    /// Global send sequence number, assigned exactly as in the twin engines:
    /// in activation id order within each round.
    seq: u64,
    /// Recorded fates; a message is `Lost` until its delivery is observed.
    fates: MessageTrace,
    /// Scratch: the current round's inbox, in global send order.
    inbox_scratch: Vec<Envelope<P::Msg>>,
    sponsored_pairs: Vec<(NodeId, NodeId)>,
    sponsored_ids: Vec<NodeId>,
    plan_scratch: PlanScratch,
    encode_scratch: Vec<u8>,
    records: Vec<RoundRecord>,
    metrics: MetricsHistory,
    /// When set, finished rounds fold into O(1) accumulators instead of
    /// growing the history ([`MetricsMode::Streaming`]).
    streaming: Option<StreamingMetrics>,
    /// Observability sink; off by default (one branch per probe). Note the
    /// transport caveat: which boundary reads a frame is wall-clock, so the
    /// runner's "deterministic" counters are only run-to-run stable when
    /// every frame makes its next boundary (generous round durations — the
    /// same condition the twin-replay CI smoke relies on).
    obs: ObsHandle,
    budget: ChurnBudget,
    round: Round,
    next_id: u64,
    last_outcome: ChurnOutcome,
    stats: NetStats,
    wire_sent_frames: u64,
    wire_sent_bytes: u64,
    /// When `Some`, every outgoing frame is matched against the fault plan
    /// before it is written (the same pure `(seed, seq)` decisions the
    /// event engine takes at its delivery boundary).
    faults: Option<(FaultPlan, FaultAdapter<P::Msg>)>,
    /// The cached per-rule fault-coin blocks: one ChaCha8 key schedule per
    /// 64 consecutive sequence numbers (identical values to the event
    /// engine's cache — the coins are pure functions of `(seed, seq)`).
    fault_coins: FaultCoins,
    /// Whole-run counters of injected faults (separate from [`NetStats`]).
    fault_stats: FaultStats,
    /// Fault-delayed frames: `(release round, seq, envelope)`, written to
    /// the wire at the boundary whose round reaches `release`.
    held: Vec<(Round, u64, Envelope<P::Msg>)>,
}

impl<P, A> NetRunner<P, A>
where
    P: ProtocolStep,
    P::Msg: serde::Serialize + serde::Deserialize,
    A: Adversary,
{
    /// Creates an empty runner and starts its poller thread. Populate the
    /// initial node set with [`seed_nodes`](NetRunner::seed_nodes).
    pub fn new(config: NetConfig, adversary: A, factory: NodeFactory<P>) -> Self {
        assert!(config.ticks_per_round > 0, "ticks_per_round must be > 0");
        let fault_coins = FaultCoins::new(config.sim.seed);
        let hub: Arc<Mutex<Hub<P::Msg>>> = Arc::new(Mutex::new(Hub::default()));
        let (ctl, ctl_rx) = mpsc::channel();
        let poller_hub = Arc::clone(&hub);
        let max_frame = config.max_frame;
        let poller = thread::Builder::new()
            .name("tsa-net-poller".into())
            .spawn(move || poll_loop::<P::Msg>(ctl_rx, poller_hub, max_frame))
            .expect("spawn poller thread");
        NetRunner {
            config,
            adversary,
            factory,
            slots: Vec::new(),
            index: SlotIndex::new(),
            members: BTreeMap::new(),
            addrs: BTreeMap::new(),
            conns: BTreeMap::new(),
            hub,
            ctl,
            poller: Some(poller),
            seq: 0,
            fates: MessageTrace::new(),
            inbox_scratch: Vec::new(),
            sponsored_pairs: Vec::new(),
            sponsored_ids: Vec::new(),
            plan_scratch: PlanScratch::default(),
            encode_scratch: Vec::new(),
            records: Vec::new(),
            metrics: MetricsHistory::new(),
            streaming: None,
            obs: ObsHandle::off(),
            budget: ChurnBudget::new(),
            round: 0,
            next_id: 0,
            last_outcome: ChurnOutcome::default(),
            stats: NetStats::default(),
            wire_sent_frames: 0,
            wire_sent_bytes: 0,
            faults: None,
            fault_coins,
            fault_stats: FaultStats::default(),
            held: Vec::new(),
        }
    }

    /// Creates `count` initial nodes, each with a bound loopback listener.
    /// Returns their identifiers.
    pub fn seed_nodes(&mut self, count: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
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

    /// Materializes a member's slot, listener and hub inbox.
    fn spawn_slot(&mut self, id: NodeId, round: Round) {
        let process = (self.factory)(id, round);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("listener address");
        self.addrs.insert(id, addr);
        self.hub
            .lock()
            .expect("hub lock poisoned")
            .inboxes
            .insert(id, Vec::new());
        self.ctl
            .send(Ctl::Register(id, listener))
            .expect("poller alive");
        self.index.insert(id, self.slots.len());
        self.slots.push(NetSlot {
            id,
            joined_at: round,
            process,
            out: Vec::new(),
            sponsored_start: 0,
            sponsored_len: 0,
        });
    }

    /// Tears down a departed member's listener, hub inbox and cached
    /// streams; frames it never read become receiver-departed drops at
    /// round `t` (exactly when the twin engines would drop them).
    fn retire_slot(&mut self, id: NodeId, t: Round, dropped: &mut usize) {
        let idx = self.index.slot(id).expect("departed node has a slot");
        self.slots.remove(idx);
        self.index
            .remove(id, self.slots[idx..].iter().map(|s| s.id));
        self.addrs.remove(&id);
        self.conns.retain(|(from, to), _| *from != id && *to != id);
        self.ctl.send(Ctl::Unregister(id)).expect("poller alive");
        let pending = self
            .hub
            .lock()
            .expect("hub lock poisoned")
            .inboxes
            .remove(&id)
            .unwrap_or_default();
        for (seq, _env) in pending {
            self.fates
                .record(seq, MessageFate::Delivered { at_round: t });
            self.stats.dropped_departed += 1;
            *dropped += 1;
        }
    }

    /// The current round (the next round boundary to be executed).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
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

    /// Metrics collected so far (one row per round). Empty under
    /// [`MetricsMode::Streaming`] — use
    /// [`metrics_summary`](Self::metrics_summary) /
    /// [`last_metrics`](Self::last_metrics) for mode-independent access.
    pub fn metrics(&self) -> &MetricsHistory {
        &self.metrics
    }

    /// Attaches an observability sink (or detaches it with
    /// [`ObsHandle::off`]); recording starts with the next round.
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

    /// Network-effect counters, comparable with the event engine's: `sent`
    /// and `dropped_departed` mean the same thing; `lost` counts messages
    /// that never made it onto the wire (no route, connect or write
    /// failure); delay ticks are delivery-boundary quantized.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Actual wire traffic counters.
    pub fn wire_stats(&self) -> WireStats {
        let hub = self.hub.lock().expect("hub lock poisoned");
        WireStats {
            frames_sent: self.wire_sent_frames,
            bytes_sent: self.wire_sent_bytes,
            frames_received: hub.frames_received,
            bytes_received: hub.bytes_received,
        }
    }

    /// The fate trace recorded so far: one entry per sent message, in send
    /// order. Messages still in flight (written but never read by an
    /// activation) are `Lost`, which is exactly how a replay must treat
    /// them — they influenced nobody.
    pub fn trace(&self) -> MessageTrace {
        self.fates.clone()
    }

    /// Installs a fault-injection plan and the protocol's message adapter.
    /// Call before the first [`step`](NetRunner::step). Decisions are pure
    /// functions of `(seed, seq)` — identical to the event engine's for the
    /// same plan — and are taken at the frame boundary: dropped frames
    /// never reach the wire, delayed frames are held back whole rounds,
    /// duplicated frames consume the next sequence number, mutated frames
    /// are corrupted before encoding.
    pub fn set_faults(&mut self, plan: FaultPlan, adapter: FaultAdapter<P::Msg>) {
        self.faults = Some((plan, adapter));
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The adversary, for post-run inspection.
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Executes `rounds` rounds, each lasting its configured wall-clock
    /// duration.
    pub fn run(&mut self, rounds: u64) {
        if self.streaming.is_none() {
            self.metrics.reserve(rounds as usize);
        }
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Executes one round: churn at the boundary, read everything the
    /// poller delivered, activate every node, write this round's sends to
    /// the wire, then sleep out the round's wall-clock budget so frames can
    /// arrive for the next boundary.
    pub fn step(&mut self) {
        let deadline = Instant::now() + self.config.round_duration();
        let t = self.round;
        let mut mb = RoundMetricsBuilder::new(t);
        let obs_on = self.obs.is_on();
        let wire_frames_before = self.wire_sent_frames;
        let wire_bytes_before = self.wire_sent_bytes;
        let fault_stats_before = self.fault_stats;
        let mut dropped = 0usize;

        // Phase 1: adversarial churn through the shared arbiter, identical
        // to the twin engines (suppressed during bootstrap).
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
            let departed: Vec<NodeId> = outcome.departed.clone();
            for id in departed {
                self.retire_slot(id, t, &mut dropped);
            }
            for &(id, _bootstrap) in outcome.joined.iter() {
                self.spawn_slot(id, t);
            }
        }
        mb.record_churn(outcome.departed.len(), outcome.joined.len());
        self.obs.span_end("net.churn", span);

        // Phase 2: snapshot the hub. Everything the poller decoded before
        // this instant is this boundary's delivery batch; the batch is
        // re-sorted into global send order, exactly like the event engine's
        // deliverable batch, so residual arrival jitter has no meaning.
        let span = self.obs.span_start();
        let mut batches: Vec<(NodeId, InboxBatch<P::Msg>)> = {
            let mut hub = self.hub.lock().expect("hub lock poisoned");
            for seq in hub.dead_letters.drain(..) {
                self.fates
                    .record(seq, MessageFate::Delivered { at_round: t });
                self.stats.dropped_departed += 1;
                dropped += 1;
            }
            self.slots
                .iter()
                .map(|slot| {
                    let batch = hub
                        .inboxes
                        .get_mut(&slot.id)
                        .map(std::mem::take)
                        .unwrap_or_default();
                    (slot.id, batch)
                })
                .collect()
        };
        for (_, batch) in batches.iter_mut() {
            batch.sort_unstable_by_key(|&(seq, _)| seq);
            for &(seq, ref env) in batch.iter() {
                self.fates
                    .record(seq, MessageFate::Delivered { at_round: t });
                let delay = (t - env.sent_at) * self.config.ticks_per_round;
                self.stats.max_delay_ticks = self.stats.max_delay_ticks.max(delay);
                self.stats.total_delay_ticks += delay;
            }
        }
        self.obs.span_end("net.poll", span);

        // Sponsored joiners, grouped contiguously by bootstrap node exactly
        // as in the twin engines.
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

        // Phase 3: activate every node in id order and write its sends to
        // the wire. Sequence numbers are assigned here, in exactly the
        // interleaving the twin engines use (per-slot, immediately after
        // its activation), so `seq` means the same message in all three
        // runtimes.
        let mut rec = RoundRecord::default();
        rec.graph.round = t;
        let seed = self.config.sim.seed;
        let hash_seed = self.config.sim.hash_seed;
        let record_digests = self.config.sim.record_digests;
        let mut lost = 0usize;
        // Fault-delayed frames whose hold has expired go onto the wire at
        // this boundary, to be read one round later — `delay_rounds` past
        // their original delivery boundary. Frames whose hold outlives the
        // run stay recorded as `Lost`, which is how the replaying twin must
        // treat them (they influenced nobody).
        if !self.held.is_empty() {
            let mut held = std::mem::take(&mut self.held);
            let mut still = Vec::new();
            for (release, seq, env) in held.drain(..) {
                if release > t {
                    still.push((release, seq, env));
                } else if !self.write_frame(seq, &env) {
                    lost += 1;
                    self.stats.lost += 1;
                }
            }
            self.held = still;
        }
        let span = self.obs.span_start();
        // The snapshot was taken after churn over the current slots, so it
        // holds exactly one batch per slot, in id order (joiners included,
        // necessarily empty: their listeners bound this boundary).
        let mut batches = batches.into_iter();
        for si in 0..self.slots.len() {
            let (batch_id, batch) = batches.next().expect("one batch per slot");
            debug_assert_eq!(batch_id, self.slots[si].id, "snapshot follows slot order");
            self.inbox_scratch.clear();
            self.inbox_scratch
                .extend(batch.into_iter().map(|(_, env)| env));
            let slot = &mut self.slots[si];
            mb.record_received(slot.id, self.inbox_scratch.len());
            if obs_on {
                self.obs
                    .observe("proto.inbox_len", self.inbox_scratch.len() as u64);
            }
            let sponsored = &self.sponsored_ids
                [slot.sponsored_start..slot.sponsored_start + slot.sponsored_len];
            let (out, digest) = run_activation(
                &mut slot.process,
                slot.id,
                t,
                slot.joined_at,
                sponsored,
                seed,
                hash_seed,
                &self.inbox_scratch,
                std::mem::take(&mut slot.out),
                record_digests,
            );
            slot.out = out;
            // Id-ordered slots each appending their distinct receivers in
            // id order leave the edge list sorted and duplicate-free.
            let distinct = self
                .index
                .push_distinct_edges(slot.id, &slot.out, &mut rec.graph.edges);
            mb.record_sent(slot.id, slot.out.len(), distinct);
            if record_digests {
                rec.digests.push((slot.id, digest));
            }
            let from = slot.id;
            let tpr = self.config.ticks_per_round;
            let mut out = std::mem::take(&mut self.slots[si].out);
            for (to, mut payload) in out.drain(..) {
                // Fault-plan decision on the sequence number this frame is
                // about to take — the same pure function of (seed, seq) the
                // event engine evaluates for the identical message.
                let (fault_drop, delay_rounds, duplicate) = match self.faults.as_ref() {
                    None => (false, 0u64, false),
                    Some((plan, adapter)) => {
                        match plan.decide_with(
                            &mut self.fault_coins,
                            self.seq,
                            t,
                            from,
                            to,
                            (adapter.kind_of)(&payload),
                        ) {
                            FaultDecision::Pass => (false, 0, false),
                            FaultDecision::Drop => {
                                self.fault_stats.dropped += 1;
                                (true, 0, false)
                            }
                            FaultDecision::Delay(ticks) => {
                                self.fault_stats.delayed += 1;
                                // The transport's clock is the round cadence:
                                // the hold-back is the tick delay rounded up to
                                // whole rounds, at least one.
                                (false, ticks.div_ceil(tpr).max(1), false)
                            }
                            FaultDecision::Duplicate => {
                                self.fault_stats.duplicated += 1;
                                (false, 0, true)
                            }
                            FaultDecision::Mutate => {
                                if (adapter.mutate)(
                                    &mut payload,
                                    FaultPlan::mutation_entropy(seed, self.seq),
                                ) {
                                    self.fault_stats.mutated += 1;
                                }
                                (false, 0, false)
                            }
                        }
                    }
                };
                // The duplicate copy consumes the next sequence number and
                // takes its own wire fate, with no fault decision of its
                // own.
                let dup = duplicate.then(|| payload.clone());
                for payload in std::iter::once(payload).chain(dup) {
                    let msg_seq = self.seq;
                    self.seq += 1;
                    self.stats.sent += 1;
                    // Lost until proven delivered: overwritten when a later
                    // boundary (or none) reads the frame.
                    self.fates.record(msg_seq, MessageFate::Lost);
                    let env = Envelope::new(from, to, t, payload);
                    if fault_drop {
                        // Never reaches the wire; counted exactly like the
                        // event engine counts a fault drop.
                        lost += 1;
                        self.stats.lost += 1;
                    } else if delay_rounds > 0 {
                        self.held
                            .push((t.saturating_add(delay_rounds), msg_seq, env));
                    } else if !self.write_frame(msg_seq, &env) {
                        lost += 1;
                        self.stats.lost += 1;
                    }
                }
            }
            self.slots[si].out = out;
            rec.graph.members.push(from);
        }
        drop(batches);
        self.obs.span_end("net.encode", span);
        mb.record_dropped(dropped + lost);

        self.records.push(rec);
        if let Some(window) = self.config.sim.history_window {
            while self.records.len() > window {
                self.records.remove(0);
            }
        }

        let row = mb.finish();
        if obs_on {
            record_round_obs(&self.obs, &row);
            // Wire-level counters: deterministic functions of the protocol
            // traffic (frame counts and encoded bytes), not of scheduling.
            self.obs.add(
                "net.wire_frames",
                self.wire_sent_frames - wire_frames_before,
            );
            self.obs
                .add("net.wire_bytes", self.wire_sent_bytes - wire_bytes_before);
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

        // Phase 4: sleep out the round's wall-clock budget — this is the
        // window in which the poller turns this round's writes into the
        // next boundary's deliveries.
        let span = self.obs.span_start();
        let now = Instant::now();
        if now < deadline {
            thread::sleep(deadline - now);
        }
        self.obs.span_end("net.barrier", span);
    }

    /// Writes one framed message to its receiver's socket, connecting (and
    /// caching the stream) on first use. Returns false if the message never
    /// made it onto the wire.
    fn write_frame(&mut self, seq: u64, env: &Envelope<P::Msg>) -> bool {
        let Some(&addr) = self.addrs.get(&env.to) else {
            // No such member (departed, or an id that never existed):
            // nothing to connect to.
            return false;
        };
        let key = (env.from, env.to);
        if let std::collections::btree_map::Entry::Vacant(entry) = self.conns.entry(key) {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    entry.insert(stream);
                }
                Err(_) => return false,
            }
        }
        self.encode_scratch.clear();
        let len = encode_wire_frame(seq, env, &mut self.encode_scratch);
        let stream = self.conns.get_mut(&key).expect("stream just cached");
        match stream.write_all(&self.encode_scratch) {
            Ok(()) => {
                self.wire_sent_frames += 1;
                self.wire_sent_bytes += len as u64;
                true
            }
            Err(_) => {
                self.conns.remove(&key);
                false
            }
        }
    }
}

impl<P, A> Drop for NetRunner<P, A>
where
    P: ProtocolStep,
    P::Msg: serde::Serialize + serde::Deserialize,
    A: Adversary,
{
    fn drop(&mut self) {
        let _ = self.ctl.send(Ctl::Shutdown);
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
    }
}
