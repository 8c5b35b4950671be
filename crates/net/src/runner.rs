//! The loopback-TCP delivery: messages travel as real bytes.
//!
//! [`NetRunner`] is the same [`World`] round loop as the lockstep simulator
//! and the event engine — same churn arbiter, same per-`(seed, node, round)`
//! RNG streams, same compute phase — over a [`Loopback`] delivery in which
//! every node owns a loopback TCP listener. The cadence is *wall-clock*: each
//! round lasts `tick × ticks_per_round` of real time (the event engine's
//! 1000-ticks clock, reinterpreted at a configurable tick duration), and the
//! network between the boundaries is the operating system.
//!
//! Two threads run the show: the caller's thread runs the world (churn,
//! activations, sends), and one *poller* thread owns every listener and
//! accepted connection, decoding frames into a shared hub of inboxes as they
//! arrive. There is no tokio and no thread-per-node — `std::net` nonblocking
//! sockets and a `64 KiB` read buffer are enough for an in-process overlay.
//!
//! # What `deliver`, `send` and `end_round` do, and what they cost
//!
//! `deliver` snapshots the hub: everything the poller decoded before that
//! instant is this boundary's batch, re-sorted per node into global send
//! order exactly like the event engine's batch, so residual arrival jitter
//! has no meaning. The round's wall-clock budget starts at the snapshot.
//! `send` numbers a node's messages exactly as the twin engines do, decides
//! their faults (the same pure `(seed, seq)` decisions the event engine
//! takes), encodes each survivor into a length-prefixed frame and writes it
//! to a cached per-link stream — encoding and the socket write are where a
//! transport round's CPU goes. `end_round` sleeps out the rest of the
//! budget: the window in which the poller turns this round's writes into the
//! next boundary's deliveries.
//!
//! # Determinism boundary
//!
//! Wall-clock time and OS scheduling decide *when* a frame lands, and
//! therefore which round boundary reads it — that is the only
//! nondeterminism (and the only reason the runner's "deterministic" obs
//! counters are run-to-run stable only when every frame makes its next
//! boundary). The delivery records each message's fate in a
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
    FaultAdapter, FaultInjector, FaultPlan, FaultStats, MessageFate, MessageTrace, NetStats,
    TICKS_PER_ROUND,
};
use tsa_obs::ObsHandle;
use tsa_sim::{
    Delivery, Envelope, NodeId, Outbox, PhaseSpans, Process, Round, SimConfig, SlotIndex, World,
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

/// A nanosecond count as a [`Duration`], clamped to what 64 bits hold (584
/// years).
fn clamped_nanos(nanos: u128) -> Duration {
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
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

    /// Sets the wall-clock duration of one whole round: the tick becomes
    /// `duration / ticks_per_round`, rounded up to a whole nanosecond so the
    /// round is never shorter than asked. Computed in 128-bit nanoseconds:
    /// no `ticks_per_round` divides by zero or truncates here (a zero is
    /// rejected when the runner is built).
    pub fn with_round_duration(mut self, duration: Duration) -> Self {
        let ticks = u128::from(self.ticks_per_round.max(1));
        self.tick = clamped_nanos(duration.as_nanos().div_ceil(ticks));
        self
    }

    /// The wall-clock duration of one round, `tick × ticks_per_round`,
    /// clamped instead of wrapped.
    pub fn round_duration(&self) -> Duration {
        clamped_nanos(
            self.tick
                .as_nanos()
                .saturating_mul(u128::from(self.ticks_per_round)),
        )
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

/// The loopback transport runtime: a [`World`] whose messages are real
/// frames on real sockets, with every message's fate recorded for twin
/// replay.
pub type NetRunner<P, A> = World<P, A, Loopback<<P as Process>::Msg>>;

/// One node's side of the transport, in the world's slot order.
struct Port<M> {
    id: NodeId,
    /// This round's inbox, in global send order.
    inbox: Vec<Envelope<M>>,
}

/// The loopback-TCP delivery policy. See the module docs.
pub struct Loopback<M> {
    ticks_per_round: u64,
    round_duration: Duration,
    /// When the current round's wall-clock budget started.
    round_started: Instant,
    ports: Vec<Port<M>>,
    /// Listener addresses of live nodes, for the sender side.
    addrs: BTreeMap<NodeId, SocketAddr>,
    /// Cached outgoing streams, one per directed `(sender, receiver)` link.
    conns: BTreeMap<(NodeId, NodeId), TcpStream>,
    hub: Arc<Mutex<Hub<M>>>,
    ctl: mpsc::Sender<Ctl>,
    poller: Option<thread::JoinHandle<()>>,
    /// Global send sequence number, assigned exactly as in the twin engines:
    /// in activation id order within each round.
    seq: u64,
    /// Recorded fates; a message is `Lost` until its delivery is observed.
    fates: MessageTrace,
    encode_scratch: Vec<u8>,
    stats: NetStats,
    /// Frames a departed node never read, not yet charged to a round.
    unread_departed: usize,
    wire_sent_frames: u64,
    wire_sent_bytes: u64,
    /// The two wire counters as of the end of the previous round.
    wire_reported: (u64, u64),
    /// Matches every outgoing frame against the installed fault plan before
    /// it is written (the same pure `(seed, seq)` decisions the event engine
    /// takes at its delivery boundary).
    faults: FaultInjector<M>,
    /// Fault-delayed frames: `(release round, seq, envelope)`, written to
    /// the wire at the boundary whose round reaches `release`.
    held: Vec<(Round, u64, Envelope<M>)>,
}

impl<M: serde::Serialize> Loopback<M> {
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
    /// Call before the first step. Decisions are pure functions of
    /// `(seed, seq)` — identical to the event engine's for the same plan —
    /// and are taken at the frame boundary: dropped frames never reach the
    /// wire, delayed frames are held back whole rounds, duplicated frames
    /// consume the next sequence number, mutated frames are corrupted
    /// before encoding.
    pub fn set_faults(&mut self, plan: FaultPlan, adapter: FaultAdapter<M>) {
        self.faults.install(plan, adapter);
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Writes one framed message to its receiver's socket, connecting (and
    /// caching the stream) on first use. Returns false if the message never
    /// made it onto the wire.
    fn write_frame(&mut self, seq: u64, env: &Envelope<M>) -> bool {
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

impl<M> Delivery<M> for Loopback<M>
where
    M: serde::Serialize + serde::Deserialize + Clone + Send + Sync + 'static,
{
    type Config = NetConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "net.churn",
        deliver: "net.poll",
        send: "net.encode",
    };

    /// Starts the poller thread.
    fn new(config: NetConfig) -> (SimConfig, Self) {
        assert!(config.ticks_per_round > 0, "ticks_per_round must be > 0");
        let hub: Arc<Mutex<Hub<M>>> = Arc::new(Mutex::new(Hub::default()));
        let (ctl, ctl_rx) = mpsc::channel();
        let poller_hub = Arc::clone(&hub);
        let max_frame = config.max_frame;
        let poller = thread::Builder::new()
            .name("tsa-net-poller".into())
            .spawn(move || poll_loop::<M>(ctl_rx, poller_hub, max_frame))
            .expect("spawn poller thread");
        let delivery = Loopback {
            ticks_per_round: config.ticks_per_round,
            round_duration: config.round_duration(),
            round_started: Instant::now(),
            ports: Vec::new(),
            addrs: BTreeMap::new(),
            conns: BTreeMap::new(),
            hub,
            ctl,
            poller: Some(poller),
            seq: 0,
            fates: MessageTrace::new(),
            encode_scratch: Vec::new(),
            stats: NetStats::default(),
            unread_departed: 0,
            wire_sent_frames: 0,
            wire_sent_bytes: 0,
            wire_reported: (0, 0),
            faults: FaultInjector::new(config.sim.seed),
            held: Vec::new(),
        };
        (config.sim, delivery)
    }

    /// Binds the member's loopback listener and opens its hub inbox.
    fn on_join(&mut self, id: NodeId) {
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
        self.ports.push(Port {
            id,
            inbox: Vec::new(),
        });
    }

    /// Tears down a departed member's listener, hub inbox and cached
    /// streams; frames it never read become receiver-departed drops at
    /// round `t` (exactly when the twin engines would drop them).
    fn on_depart(&mut self, id: NodeId, slot: usize, t: Round) {
        self.ports.remove(slot);
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
            self.unread_departed += 1;
        }
    }

    fn deliver(&mut self, t: Round, _index: &SlotIndex) -> (usize, usize) {
        self.round_started = Instant::now();
        let read_now = MessageFate::Delivered { at_round: t };
        let mut dropped = std::mem::take(&mut self.unread_departed);
        let mut delivered = 0usize;
        {
            // Everything the poller decoded before this lock is taken is
            // this boundary's batch. The batches are sorted and moved out
            // under the lock — microseconds against a round of
            // milliseconds — so every buffer on either side keeps its
            // capacity and nothing is allocated per boundary.
            let mut hub = self.hub.lock().expect("hub lock poisoned");
            for seq in hub.dead_letters.drain(..) {
                self.fates.record(seq, read_now);
                self.stats.dropped_departed += 1;
                dropped += 1;
            }
            for port in self.ports.iter_mut() {
                port.inbox.clear();
                let Some(pending) = hub.inboxes.get_mut(&port.id) else {
                    continue;
                };
                pending.sort_unstable_by_key(|&(seq, _)| seq);
                delivered += pending.len();
                for (seq, env) in pending.drain(..) {
                    self.fates.record(seq, read_now);
                    // Saturating, like every tick product of the event
                    // engine: a hostile `ticks_per_round` (or a frame
                    // stamped with a future round) pins the counters, never
                    // wraps them.
                    let delay = t
                        .saturating_sub(env.sent_at)
                        .saturating_mul(self.ticks_per_round);
                    self.stats.max_delay_ticks = self.stats.max_delay_ticks.max(delay);
                    self.stats.total_delay_ticks =
                        self.stats.total_delay_ticks.saturating_add(delay);
                    port.inbox.push(env);
                }
            }
        }
        // Fault-delayed frames whose hold has expired go onto the wire at
        // this boundary, to be read one round later — their delay in whole
        // rounds past their original delivery boundary. Frames whose hold
        // outlives the run stay recorded as `Lost`, which is how the
        // replaying twin must treat them (they influenced nobody).
        let mut held = std::mem::take(&mut self.held);
        held.retain(|(release, seq, env)| {
            if *release > t {
                return true;
            }
            if !self.write_frame(*seq, env) {
                dropped += 1;
                self.stats.lost += 1;
            }
            false
        });
        self.held = held;
        (delivered, dropped)
    }

    fn inbox<'a>(&'a self, slot: usize, _buf: &'a mut Vec<Envelope<M>>) -> &'a [Envelope<M>] {
        &self.ports[slot].inbox
    }

    fn inbox_len(&self, slot: usize) -> usize {
        self.ports[slot].inbox.len()
    }

    fn send(&mut self, from: NodeId, t: Round, out: &mut Outbox<M>, _obs: &ObsHandle) -> usize {
        let mut lost = 0usize;
        for (to, payload) in out.iter() {
            // Every copy is its own frame from here on: a fault mutates this
            // clone, never the payload the other copies share.
            let mut payload = payload.clone();
            // The fault decision is taken on the sequence number this frame
            // is about to take, as the event engine does for the identical
            // message.
            let fault = self.faults.apply(self.seq, t, from, to, &mut payload);
            // The transport's clock is the round cadence: a hold-back is
            // the tick delay rounded up to whole rounds, at least one.
            let hold_rounds = fault
                .delay_ticks
                .map(|ticks| ticks.div_ceil(self.ticks_per_round).max(1));
            // The duplicate copy consumes the next sequence number and
            // takes its own wire fate, with no fault decision of its own.
            let dup = fault.duplicate.then(|| payload.clone());
            for payload in std::iter::once(payload).chain(dup) {
                let msg_seq = self.seq;
                self.seq += 1;
                self.stats.sent += 1;
                // Lost until proven delivered: overwritten when a later
                // boundary (or none) reads the frame.
                self.fates.record(msg_seq, MessageFate::Lost);
                let env = Envelope::new(from, to, t, payload);
                if let Some(rounds) = hold_rounds {
                    self.held.push((t.saturating_add(rounds), msg_seq, env));
                } else if fault.drop || !self.write_frame(msg_seq, &env) {
                    // A fault drop never reaches the wire; it is counted
                    // exactly like the event engine counts one.
                    lost += 1;
                    self.stats.lost += 1;
                }
            }
        }
        out.clear();
        lost
    }

    fn end_round(&mut self, _t: Round, obs: &ObsHandle) {
        // Wire-level counters: deterministic functions of the protocol
        // traffic (frame counts and encoded bytes), not of scheduling.
        let (frames, bytes) = std::mem::replace(
            &mut self.wire_reported,
            (self.wire_sent_frames, self.wire_sent_bytes),
        );
        obs.add("net.wire_frames", self.wire_sent_frames - frames);
        obs.add("net.wire_bytes", self.wire_sent_bytes - bytes);
        self.faults.end_round(obs);

        let span = obs.span_start();
        let spent = self.round_started.elapsed();
        if let Some(rest) = self.round_duration.checked_sub(spent) {
            thread::sleep(rest);
        }
        obs.span_end("net.barrier", span);
    }
}

impl<M> Drop for Loopback<M> {
    fn drop(&mut self) {
        let _ = self.ctl.send(Ctl::Shutdown);
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
    }
}
