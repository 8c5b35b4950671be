//! The loopback-TCP delivery: messages travel as real bytes.
//!
//! [`NetRunner`] is the same [`World`] round loop as the lockstep simulator
//! and the event engine — same churn arbiter, same per-`(seed, node, round)`
//! RNG streams, same compute phase — over a [`Loopback`] delivery in which
//! every node owns a loopback TCP listener. The cadence is *wall-clock*: each
//! round lasts [`NetConfig::round_duration`] of real time, and the network
//! between the boundaries is the operating system.
//!
//! Two threads run the show: the caller's thread runs the world (churn,
//! activations, sends), and one *poller* thread owns every listener and
//! accepted connection, decoding frames into one shared batch as they
//! arrive. There is no tokio and no thread-per-node — `std::net` nonblocking
//! sockets and a `64 KiB` read buffer are enough for an in-process overlay.
//! The poller has no readiness API to block in, so it blocks on the
//! coordinator instead: it passes over its sockets until a pass finds
//! nothing, then sleeps on its control channel until the coordinator says
//! it has written (every sender's writes end in a wake) or a safety-net
//! period passes. An idle barrier costs it a pass every few milliseconds.
//!
//! # What `deliver`, `send` and `end_round` do, and what they cost
//!
//! `deliver` places what the poller decoded so far, in send order, as the
//! copies ahead in the world's [`InFlight`] layout; a frame whose receiver
//! has departed is read there, by nobody. A stray — a `seq` never assigned
//! or already read, or a receiver other than the listener's owner — reaches
//! neither an inbox nor the trace. The round's wall-clock budget starts
//! there. `send` numbers a node's messages exactly as the twin engines do,
//! decides their faults (the same pure `(seed, seq)` decisions the event
//! engine takes) and encodes each survivor in its fixed [`Wire`] layout
//! behind the frames queued for the same receiver; the outbox done, each
//! receiver's frames leave in one write on the receiver's cached stream: one
//! system call per sender and link it uses, not one per frame. A frame to a
//! non-member is lost when it is queued; a link whose connect or write
//! fails loses its whole batch and the receiver's cached stream. `end_round`
//! sleeps out the rest of the budget: the window in which the poller turns
//! this round's writes into the next boundary's deliveries.
//!
//! The transport keeps no membership of its own: `deliver` first follows
//! the boundary's [`SlotIndex`], so a run holds one listener, one outgoing
//! stream (shared by every sender: one thread writes every frame, and every
//! frame names its sender) and one accepted connection per member.
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
    FaultAction, FaultAdapter, FaultInjector, FaultPlan, FaultStats, MessageFate, MessageTrace,
    NetStats, TICKS_PER_ROUND,
};
use tsa_obs::ObsHandle;
use tsa_sim::{
    Delivery, Envelope, InFlight, NodeId, Outbox, PhaseSpans, Process, Round, SimConfig, SlotIndex,
    World, NO_SLOT,
};

use crate::codec::{decode_wire_value, encode_wire_frame, FrameDecoder, Wire};

/// Configuration of a loopback transport run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The shared simulation knobs: seed, hash seed, lateness, churn rules,
    /// history window. Seeds are used exactly as in the other two engines,
    /// so the same protocol run is comparable across all three.
    pub sim: SimConfig,
    /// Wall-clock duration of one round. The default 20 ms is comfortably
    /// longer than a loopback round-trip, short enough that tests stay fast.
    pub round_duration: Duration,
}

impl NetConfig {
    /// A transport configuration over `sim` with the default 20 ms round.
    pub fn new(sim: SimConfig) -> Self {
        NetConfig {
            sim,
            round_duration: Duration::from_millis(20),
        }
    }

    /// Sets the wall-clock duration of one round.
    pub fn with_round_duration(mut self, duration: Duration) -> Self {
        self.round_duration = duration;
        self
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

/// Decoded frames, in arrival order: `(listener owner, send seq, envelope)`.
/// The socket a frame arrived on decides its receiver.
type Frames<M> = Vec<(NodeId, u64, Envelope<M>)>;

/// What the poller has decoded since the last boundary.
struct Hub<M> {
    batch: Frames<M>,
    frames_received: u64,
    bytes_received: u64,
    /// Passes the poller has made over its sockets.
    #[cfg(test)]
    passes: u64,
    /// Connections the poller has accepted.
    #[cfg(test)]
    accepted: u64,
}

/// Coordinator → poller control messages.
enum Ctl {
    Register(NodeId, TcpListener),
    Unregister(NodeId),
    /// Frames were written since the last pass.
    Wake,
    Shutdown,
}

/// How long the poller sleeps after a pass that found nothing, unless the
/// coordinator speaks first. Every write is followed by a [`Ctl::Wake`], so
/// this only bounds how long a write that blocks on a full socket buffer —
/// its wake still to come — waits for its reader.
const POLL_SAFETY_NET: Duration = Duration::from_millis(5);

/// The next control message: after an idle pass the poller blocks for it, up
/// to [`POLL_SAFETY_NET`]; otherwise it only takes what is already queued. A
/// coordinator that is gone reads as a shutdown.
fn next_ctl(ctl: &mpsc::Receiver<Ctl>, idle: bool) -> Option<Ctl> {
    if idle {
        match ctl.recv_timeout(POLL_SAFETY_NET) {
            Ok(msg) => Some(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Ctl::Shutdown),
        }
    } else {
        match ctl.try_recv() {
            Ok(msg) => Some(msg),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Ctl::Shutdown),
        }
    }
}

/// One accepted connection on the poller: the listener owner it delivers
/// to, the nonblocking stream, and its incremental frame decoder.
struct Conn {
    owner: NodeId,
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// The poller loop: accept on every registered listener, read every
/// connection, decode frames into the hub's batch; after a pass that found
/// nothing, sleep until the coordinator has written (or the safety net
/// expires). Runs until shutdown.
fn poll_loop<M: Wire>(ctl: mpsc::Receiver<Ctl>, hub: Arc<Mutex<Hub<M>>>) {
    let mut listeners: Vec<(NodeId, TcpListener)> = Vec::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    // The frames of one read, decoded before the hub is locked for them.
    let mut decoded: Frames<M> = Vec::new();
    let mut idle = false;
    loop {
        while let Some(msg) = next_ctl(&ctl, idle) {
            idle = false;
            match msg {
                Ctl::Register(id, listener) => listeners.push((id, listener)),
                Ctl::Unregister(id) => {
                    listeners.retain(|(owner, _)| *owner != id);
                    conns.retain(|c| c.owner != id);
                }
                Ctl::Wake => {}
                Ctl::Shutdown => return,
            }
        }
        #[cfg(test)]
        {
            hub.lock().expect("hub lock poisoned").passes += 1;
        }
        let mut active = false;
        for (owner, listener) in listeners.iter() {
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_ok() {
                    conns.push(Conn {
                        owner: *owner,
                        stream,
                        decoder: FrameDecoder::new(),
                    });
                    active = true;
                    #[cfg(test)]
                    {
                        hub.lock().expect("hub lock poisoned").accepted += 1;
                    }
                }
            }
        }
        // A connection is kept until it ends, fails, or carries a frame that
        // does not decode.
        conns.retain_mut(|conn| loop {
            let n = match conn.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return e.kind() == io::ErrorKind::WouldBlock,
            };
            active = true;
            conn.decoder.push(&buf[..n]);
            // An oversized frame (the offset is meaningless from here on),
            // or a body that does not decode (the peer is broken): cut the
            // stream, once the frames before it are delivered.
            let broken = loop {
                let frame = conn.decoder.next_frame();
                match frame.and_then(|body| body.map(decode_wire_value::<M>).transpose()) {
                    Ok(Some((seq, env))) => decoded.push((conn.owner, seq, env)),
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            };
            let mut hub = hub.lock().expect("hub lock poisoned");
            hub.bytes_received += n as u64;
            hub.frames_received += decoded.len() as u64;
            hub.batch.append(&mut decoded);
            if broken {
                return false;
            }
        });
        idle = !active;
    }
}

/// The loopback transport runtime: a [`World`] whose messages are real
/// frames on real sockets, with every message's fate recorded for twin
/// replay.
pub type NetRunner<P, A> = World<P, A, Loopback<<P as Process>::Msg>>;

/// One member's side of the transport, in the world's slot order.
struct Port {
    id: NodeId,
    /// The node's listener address, for the sender side.
    addr: SocketAddr,
    /// The one outgoing stream to this node, connected on first use and
    /// shared by every sender.
    stream: Option<TcpStream>,
    /// The frames the current sender has encoded for this node, back to
    /// back, and how many they are. One sender sends at a time, and its
    /// buffers are written out before the next one starts: n buffers serve
    /// all n² links, and all are empty between two senders.
    pending: Vec<u8>,
    pending_frames: usize,
}

/// The loopback-TCP delivery policy. See the module docs.
pub struct Loopback<M> {
    round_duration: Duration,
    /// When the current round's wall-clock budget started.
    round_started: Instant,
    ports: Vec<Port>,
    /// The lowest identifier that has never had a port.
    next_unbound: u64,
    hub: Arc<Mutex<Hub<M>>>,
    ctl: mpsc::Sender<Ctl>,
    poller: Option<thread::JoinHandle<()>>,
    /// Global send sequence number, assigned exactly as in the twin engines:
    /// in activation id order within each round.
    seq: u64,
    /// Recorded fates; a message is `Lost` until its delivery is observed.
    fates: MessageTrace,
    stats: NetStats,
    wire_sent_frames: u64,
    wire_sent_bytes: u64,
    /// The two wire counters as of the end of the previous round.
    wire_reported: (u64, u64),
    /// Matches every outgoing frame against the installed fault plan before
    /// it is written (the same pure `(seed, seq)` decisions the event engine
    /// takes at its delivery boundary).
    faults: FaultInjector<M>,
    /// Fault-delayed frames with their sequence numbers, in send order,
    /// under their release round: written to the wire at the boundary whose
    /// round reaches it.
    held: BTreeMap<Round, Vec<(u64, Envelope<M>)>>,
    /// Socket writes made so far.
    #[cfg(test)]
    writes: u64,
}

impl<M: Wire> Loopback<M> {
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

    /// Encodes one frame behind the others the current sender has queued for
    /// the same receiver, the member in `slot`. Returns false if there is
    /// none (departed, or an id that never existed): there is nothing to
    /// connect to, and the frame is lost here.
    fn queue_frame(&mut self, seq: u64, env: &Envelope<M>, slot: Option<usize>) -> bool {
        let Some(port) = slot.map(|slot| &mut self.ports[slot]) else {
            return false;
        };
        encode_wire_frame(seq, env, &mut port.pending);
        port.pending_frames += 1;
        true
    }

    /// Writes out what the current sender has queued: one write per
    /// receiver with frames pending, on the receiver's stream, connecting
    /// (and caching the stream) on first use; then tells the poller there
    /// is something to read. A link whose connect or write fails drops the
    /// stream and loses its whole batch — a prefix the kernel took before
    /// the failure may still be read, and is then `Delivered` in the trace,
    /// which is what the twin replays. Returns how many frames never made it
    /// onto the wire.
    fn flush_links(&mut self) -> usize {
        let mut lost = 0usize;
        let mut wrote = false;
        for port in self.ports.iter_mut().filter(|p| p.pending_frames > 0) {
            if port.stream.is_none() {
                port.stream = TcpStream::connect(port.addr).ok();
                if let Some(stream) = &port.stream {
                    let _ = stream.set_nodelay(true);
                }
            }
            #[cfg(test)]
            {
                self.writes += u64::from(port.stream.is_some());
            }
            let stream = port.stream.as_mut();
            let written = stream.is_some_and(|stream| stream.write_all(&port.pending).is_ok());
            if written {
                self.wire_sent_frames += port.pending_frames as u64;
                self.wire_sent_bytes += port.pending.len() as u64;
                wrote = true;
            } else {
                port.stream = None;
                lost += port.pending_frames;
            }
            port.pending.clear();
            port.pending_frames = 0;
        }
        if wrote {
            self.ctl.send(Ctl::Wake).expect("poller alive");
        }
        lost
    }

    /// Follows the boundary's membership: every port whose node lost its
    /// slot goes, its stream with it and its listener unregistered, and
    /// every identifier assigned since the last boundary that owns a slot
    /// binds its listener behind the rest. Identifiers are dense and assigned
    /// in join order, so the ports stay in slot order; one that departed
    /// before its first boundary (a seed node departing in round 0) is
    /// skipped.
    fn follow(&mut self, index: &SlotIndex) {
        let ctl = &self.ctl;
        self.ports.retain(|port| {
            let member = index.slot(port.id).is_some();
            if !member {
                ctl.send(Ctl::Unregister(port.id)).expect("poller alive");
            }
            member
        });
        let assigned = index.assigned();
        for id in (self.next_unbound..assigned).map(NodeId) {
            if index.slot(id).is_none() {
                continue;
            }
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            let addr = listener.local_addr().expect("listener address");
            ctl.send(Ctl::Register(id, listener)).expect("poller alive");
            self.ports.push(Port {
                id,
                addr,
                stream: None,
                pending: Vec::new(),
                pending_frames: 0,
            });
        }
        self.next_unbound = assigned;
    }
}

impl<M> Delivery<M> for Loopback<M>
where
    M: Wire + Clone + Send + 'static,
{
    type Config = NetConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "net.churn",
        deliver: "net.poll",
        send: "net.encode",
    };

    /// Starts the poller thread.
    fn new(config: NetConfig) -> (SimConfig, Self) {
        let hub = Arc::new(Mutex::new(Hub {
            batch: Vec::new(),
            frames_received: 0,
            bytes_received: 0,
            #[cfg(test)]
            passes: 0,
            #[cfg(test)]
            accepted: 0,
        }));
        let (ctl, ctl_rx) = mpsc::channel();
        let poller_hub = Arc::clone(&hub);
        let poller = thread::Builder::new()
            .name("tsa-net-poller".into())
            .spawn(move || poll_loop::<M>(ctl_rx, poller_hub))
            .expect("spawn poller thread");
        let delivery = Loopback {
            round_duration: config.round_duration,
            round_started: Instant::now(),
            ports: Vec::new(),
            next_unbound: 0,
            hub,
            ctl,
            poller: Some(poller),
            seq: 0,
            fates: MessageTrace::new(),
            stats: NetStats::default(),
            wire_sent_frames: 0,
            wire_sent_bytes: 0,
            wire_reported: (0, 0),
            faults: FaultInjector::new(config.sim.seed),
            held: BTreeMap::new(),
            #[cfg(test)]
            writes: 0,
        };
        (config.sim, delivery)
    }

    fn deliver(&mut self, t: Round, index: &SlotIndex, in_flight: &mut InFlight<M>) -> usize {
        self.round_started = Instant::now();
        self.follow(index);
        // Everything the poller decoded before this lock is taken is this
        // boundary's batch, drained under it, capacity kept: the poller only
        // waits to add the next boundary's frames.
        let mut hub = self.hub.lock().expect("hub lock poisoned");
        hub.batch.sort_unstable_by_key(|&(_, seq, _)| seq);
        // A stray (the poller queues any well-formed frame) goes before it
        // reaches an inbox or the trace. Every other frame is read now — by
        // nobody if its receiver has departed, which the settle drops.
        let read_now = MessageFate::Delivered { at_round: t };
        let (fates, stats, sent) = (&mut self.fates, &mut self.stats, self.seq);
        hub.batch.retain(|&(owner, seq, ref env)| {
            if seq >= sent || env.to != owner || fates.fate(seq) != Some(MessageFate::Lost) {
                return false;
            }
            fates.record(seq, read_now);
            if index.slot(owner).is_some() {
                // Saturating, like every tick product of the event engine: a
                // wire-supplied `sent_at` from the future reads as no delay,
                // and no product or sum wraps.
                let delay = t
                    .saturating_sub(env.sent_at)
                    .saturating_mul(TICKS_PER_ROUND);
                stats.max_delay_ticks = stats.max_delay_ticks.max(delay);
                stats.total_delay_ticks = stats.total_delay_ticks.saturating_add(delay);
            }
            true
        });
        // Filtered in place first, so that the placement takes the frames in
        // one move of known length.
        let frames = hub.batch.drain(..).map(|(_, _, env)| env);
        in_flight.place(t, frames, std::iter::empty(), index);
        drop(hub);
        let departed = in_flight.settle(index);
        self.stats.dropped_departed += departed as u64;
        // Fault-delayed frames whose hold has expired go onto the wire at
        // this boundary, to be read one round later — their delay in whole
        // rounds past their original delivery boundary. Frames whose hold
        // outlives the run stay recorded as `Lost`, which is how the
        // replaying twin must treat them (they influenced nobody). Only the
        // due frames are sorted, sender by sender (in send order within
        // one), so each link they use sees one write.
        let mut due = Vec::new();
        while let Some(record) = self.held.first_entry().filter(|r| *r.key() <= t) {
            due.append(&mut record.remove());
        }
        due.sort_unstable_by_key(|(seq, env)| (env.from, *seq));
        let mut lost = 0usize;
        for sender in due.chunk_by(|(_, a), (_, b)| a.from == b.from) {
            for (seq, env) in sender {
                lost += usize::from(!self.queue_frame(*seq, env, index.slot(env.to)));
            }
            lost += self.flush_links();
        }
        self.stats.lost += lost as u64;
        departed + lost
    }

    fn send(
        &mut self,
        from: NodeId,
        t: Round,
        out: &mut Outbox<M>,
        _in_flight: &mut InFlight<M>,
        _obs: &ObsHandle,
    ) -> usize {
        let mut lost = 0usize;
        for (to, index, slot) in out.sends() {
            let payload = &out.payloads()[index];
            let slot = (slot != NO_SLOT).then_some(slot as usize);
            for copy in self.faults.copies(&mut self.seq, t, from, to, payload) {
                self.stats.sent += 1;
                // Lost until proven delivered: overwritten when a later
                // boundary (or none) reads the frame.
                self.fates.record(copy.seq, MessageFate::Lost);
                // Every copy is its own frame from here on.
                let payload = copy.mutated.unwrap_or_else(|| payload.clone());
                let env = Envelope::new(from, to, t, payload);
                match copy.fault {
                    // The transport's clock is the round cadence: a
                    // hold-back is the tick delay rounded up to whole
                    // rounds, at least one.
                    Some(FaultAction::Delay { ticks }) => {
                        let rounds = ticks.div_ceil(TICKS_PER_ROUND).max(1);
                        let release = t.saturating_add(rounds);
                        self.held.entry(release).or_default().push((copy.seq, env));
                    }
                    // A fault drop never reaches the wire; it is counted
                    // exactly like the event engine counts one.
                    Some(FaultAction::Drop) => lost += 1,
                    _ => lost += usize::from(!self.queue_frame(copy.seq, &env, slot)),
                }
            }
        }
        out.clear();
        lost += self.flush_links();
        self.stats.lost += lost as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_event::{
        EventConfig, EventSimulator, FaultAction, FaultRule, LatencyModel, NetModel, NodeSelector,
        RoundWindow,
    };
    use tsa_sim::prelude::*;
    use tsa_sim::{ChurnRules, NodeFactory};

    /// Every round: `copies` frames to each id of `targets` but its own, in
    /// that order. A payload is `(round, position in the outbox)`, so one
    /// sender's payloads rise with its sequence numbers. Every envelope it
    /// is handed must carry the metadata the model promises.
    struct Fan {
        targets: Vec<u64>,
        copies: u64,
        heard: Vec<u64>,
    }

    impl Process for Fan {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                assert_eq!(env.to, ctx.id(), "an envelope for somebody else");
                assert!(env.sent_at < ctx.round(), "not sent in an earlier round");
                self.heard.push(env.payload);
            }
            let (me, mut position) = (ctx.id().raw(), 0);
            for &to in self.targets.iter().filter(|&&to| to != me) {
                for _ in 0..self.copies {
                    ctx.send(NodeId(to), (ctx.round() << 32) | position);
                    position += 1;
                }
            }
        }
    }

    /// `k` nodes that each send `copies` frames to every other one.
    fn full_mesh(k: u64, copies: u64) -> NodeFactory<Fan> {
        Box::new(move |_, _| Fan {
            targets: (0..k).collect(),
            copies,
            heard: Vec::new(),
        })
    }

    fn sim_config() -> SimConfig {
        SimConfig::default().with_seed(11)
    }

    fn runner<P: Process, A: Adversary>(
        sim: SimConfig,
        round_ms: u64,
        adversary: A,
        factory: NodeFactory<P>,
    ) -> NetRunner<P, A>
    where
        P::Msg: Wire,
    {
        let config = NetConfig::new(sim).with_round_duration(Duration::from_millis(round_ms));
        NetRunner::new(config, adversary, factory)
    }

    /// Blocks until the poller has decoded `frames` frames in all.
    fn wait_until_received<P: Process, A>(net: &NetRunner<P, A>, frames: u64)
    where
        P::Msg: Wire,
    {
        let deadline = Instant::now() + Duration::from_secs(30);
        while net.wire_stats().frames_received < frames {
            assert!(Instant::now() < deadline, "written frames were never read");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The fault-delayed frames waiting in `held`, over all release rounds.
    fn held_frames<P: Process, A>(net: &NetRunner<P, A>) -> usize
    where
        P::Msg: Wire,
    {
        net.held.values().map(Vec::len).sum()
    }

    /// Blocks until the poller has decoded every frame written so far.
    fn wait_until_read<P: Process, A>(net: &NetRunner<P, A>)
    where
        P::Msg: Wire,
    {
        wait_until_received(net, net.wire_stats().frames_sent);
    }

    #[test]
    fn a_round_makes_one_write_per_link_and_counts_every_frame() {
        let (k, copies, rounds) = (4u64, 3u64, 3u64);
        let mut net = runner(sim_config(), 20, NullAdversary, full_mesh(k, copies));
        net.seed_nodes(k as usize);
        net.run(rounds);
        assert_eq!(net.writes, rounds * k * (k - 1));
        // What the same frames, numbered as `send` numbers them, encode to
        // one by one.
        let mut wire = Vec::new();
        let mut seq = 0;
        for t in 0..rounds {
            for from in 0..k {
                let mut position = 0;
                for to in (0..k).filter(|&to| to != from) {
                    for _ in 0..copies {
                        let payload = (t << 32) | position;
                        let env = Envelope::new(NodeId(from), NodeId(to), t, payload);
                        encode_wire_frame(seq, &env, &mut wire);
                        seq += 1;
                        position += 1;
                    }
                }
            }
        }
        let stats = net.wire_stats();
        assert_eq!(stats.frames_sent, seq);
        assert_eq!(stats.bytes_sent, wire.len() as u64);
        assert_eq!(net.net_stats().lost, 0);
    }

    #[test]
    fn a_full_mesh_holds_one_stream_and_one_connection_per_receiver() {
        let (k, rounds) = (5u64, 4u64);
        let mut net = runner(sim_config(), 20, NullAdversary, full_mesh(k, 2));
        net.seed_nodes(k as usize);
        net.run(rounds);
        wait_until_read(&net);
        // Every sender writes to a receiver on the same stream: k of them,
        // and k accepted on the poller, not one per directed link.
        let streams = net.ports.iter().filter(|port| port.stream.is_some());
        assert_eq!(streams.count() as u64, k, "outgoing streams");
        assert_eq!(net.hub.lock().unwrap().accepted, k, "accepted connections");
        assert_eq!(net.writes, rounds * k * (k - 1), "one write per link");
        assert_eq!(net.net_stats().lost, 0);
    }

    #[test]
    fn ports_follow_a_membership_that_churns_every_round() {
        /// Departs the oldest member every round and joins one through the
        /// newest eligible bootstrap from the first round one is old enough.
        struct Rotate;
        impl Adversary for Rotate {
            fn plan(&mut self, _round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
                let oldest = view.members().next().map(|(id, _)| id);
                let newest = view.eligible_bootstraps().last().copied();
                let join = newest.map(|bootstrap| JoinPlan { bootstrap });
                ChurnPlan {
                    departures: oldest.into_iter().collect(),
                    joins: join.into_iter().collect(),
                }
            }
        }
        // Every node sends one frame to each id below 16 but its own: to
        // every member, to ids that departed and to ids not yet assigned.
        // `Fan` refuses an envelope addressed to anybody but its reader.
        let (k, rounds) = (5u64, 8u64);
        let sim = sim_config().with_churn_rules(ChurnRules {
            min_bootstrap_age: 1,
            ..ChurnRules::default()
        });
        let mut net = runner(sim, 20, Rotate, full_mesh(16, 1));
        net.seed_nodes(k as usize);
        for t in 0..rounds {
            // Whatever was written is read at this boundary.
            wait_until_read(&net);
            net.step();
            // Node 0 departs in round 0, before its first boundary.
            let ports: Vec<NodeId> = net.ports.iter().map(|port| port.id).collect();
            assert_eq!(ports, net.member_ids(), "round {t}");
            let outcome = net.last_churn_outcome();
            assert_eq!(outcome.departed, [NodeId(t)], "round {t}");
            assert_eq!(outcome.joined.len(), usize::from(t > 0), "round {t}");
            // The joiner of round t - 1 has read what was sent to it then.
            if t > 1 {
                let joiner = NodeId(k + t - 2);
                let heard = &net.node(joiner).unwrap().heard;
                let read = heard.iter().any(|payload| payload >> 32 == t - 1);
                assert!(read, "{joiner:?}");
            }
        }
        // Four members from round 0 on: in every round but the first, the
        // one departing was sent a frame by the three others the round
        // before, read at the boundary by nobody.
        let stats = net.net_stats();
        assert_eq!(stats.dropped_departed, 3 * (rounds - 1));
        assert_eq!(
            net.wire_stats().frames_sent + stats.lost,
            stats.sent,
            "every frame is written or lost, once"
        );
    }

    #[test]
    fn stray_frames_on_a_listener_reach_no_inbox_and_no_trace() {
        const STRAY: u64 = 0xDEAD_BEEF_DEAD_BEEF;
        let k = 3u64;
        // Node 1's frame to node 2 of round 2 is held for three rounds: its
        // seq is assigned and in flight until round 6's boundary reads it.
        // Round 2's frames are seqs 12..18, two per sender in id order, so
        // node 1's second one, its frame to node 2, is seq 15.
        let held_seq = 15;
        let plan = FaultPlan::new().with_rule(
            FaultRule::every(FaultAction::Delay {
                ticks: 3 * TICKS_PER_ROUND,
            })
            .from(NodeSelector::Id { id: 1 })
            .to(NodeSelector::Id { id: 2 })
            .in_window(RoundWindow::between(2, 3)),
        );
        let adapter = FaultAdapter {
            kind_of: |_| 0,
            mutate: |_, _| false,
        };
        let mut net = runner(sim_config(), 20, NullAdversary, full_mesh(k, 1));
        net.set_faults(plan, adapter);
        net.seed_nodes(k as usize);
        net.run(2);
        wait_until_read(&net);
        net.step();
        assert!(matches!(
            net.trace().fate(0),
            Some(MessageFate::Delivered { .. })
        ));
        assert_eq!(held_frames(&net), 1);
        assert_eq!(net.trace().fate(held_seq), Some(MessageFate::Lost));
        // A peer nobody numbered writes well-formed frames to node 0's
        // listener: one with the last seq there is, one with a seq the
        // transport has not assigned yet, one replaying a seq that was
        // already read, and one forging the held frame, for node 2.
        let mut frames = Vec::new();
        for (seq, to) in [(u64::MAX, 0), (net.seq + 5, 0), (0, 0), (held_seq, 2)] {
            let env = Envelope::new(NodeId(1), NodeId(to), 2, STRAY);
            encode_wire_frame(seq, &env, &mut frames);
        }
        let strays = 4;
        let mut stray = TcpStream::connect(net.ports[0].addr).expect("connect to node 0");
        stray.write_all(&frames).expect("write the stray frames");
        wait_until_received(&net, net.wire_stats().frames_sent + strays);
        net.run(2);
        for (id, fan) in net.nodes() {
            assert!(!fan.heard.contains(&STRAY), "{id:?} read a stray frame");
        }
        // The genuine frame leaves at round 5's boundary and is read at
        // round 6's, by its own receiver.
        net.step();
        wait_until_received(&net, net.wire_stats().frames_sent + strays);
        net.step();
        assert_eq!(
            net.trace().fate(held_seq),
            Some(MessageFate::Delivered { at_round: 6 })
        );
        // Node 0's frame of round 2 to node 2 carries the same payload (the
        // second of its outbox), and was read on time.
        let second_of_round_2 = (2 << 32) | 1;
        let heard = &net.node(NodeId(2)).unwrap().heard;
        assert_eq!(heard.iter().filter(|&&p| p == second_of_round_2).count(), 2);
        assert_eq!(net.trace().len() as u64, net.net_stats().sent);
        assert_eq!(net.net_stats().dropped_departed, 0);
    }

    #[test]
    fn a_mixed_outbox_loses_the_frames_without_a_socket_and_delivers_the_rest_in_order() {
        struct DepartTwo;
        impl Adversary for DepartTwo {
            fn plan(&mut self, round: Round, _view: &KnowledgeView<'_>) -> ChurnPlan {
                ChurnPlan {
                    departures: if round == 1 {
                        vec![NodeId(2)]
                    } else {
                        Vec::new()
                    },
                    joins: Vec::new(),
                }
            }
        }
        // Node 0 alone sends: to its neighbour 1 (three times), to an id
        // nobody ever had, to node 2 (which departs in round 1) and to 3.
        let outbox = [1, 99, 2, 1, 3, 2, 1];
        let factory: NodeFactory<Fan> = Box::new(move |id, _| Fan {
            targets: if id == NodeId(0) {
                outbox.to_vec()
            } else {
                Vec::new()
            },
            copies: 1,
            heard: Vec::new(),
        });
        let sim = sim_config().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let rounds = 4u64;
        let mut net = runner(sim, 20, DepartTwo, factory);
        net.seed_nodes(4);
        // Round 0's frames to node 2 (seqs 2 and 5) are all in before it
        // departs at round 1's boundary: read there, by nobody.
        net.step();
        wait_until_read(&net);
        net.run(rounds - 1);
        assert!(!net.member_ids().contains(&NodeId(2)), "node 2 departed");
        let trace = net.trace();
        for seq in [2, 5] {
            assert_eq!(
                trace.fate(seq),
                Some(MessageFate::Delivered { at_round: 1 }),
                "seq {seq}"
            );
        }

        let stats = net.net_stats();
        assert_eq!(stats.dropped_departed, 2);
        assert_eq!(stats.sent, rounds * outbox.len() as u64);
        // One frame a round to the id that never was, two more from round 1
        // on to the departed node; nothing else is lost on the way out.
        assert_eq!(stats.lost, rounds + 2 * (rounds - 1));
        assert_eq!(
            net.wire_stats().frames_sent + stats.lost,
            stats.sent,
            "every frame is written or lost, once"
        );
        // One link is one ordered stream: whatever made its boundary so far
        // is a prefix of what was sent, in send order.
        let to_one = |t: u64| [0u64, 3, 6].map(move |position| (t << 32) | position);
        let sent_to_one: Vec<u64> = (0..rounds).flat_map(to_one).collect();
        let heard = &net.node(NodeId(1)).unwrap().heard;
        assert!(heard.len() >= 3, "heard {heard:?}");
        assert_eq!(heard[..], sent_to_one[..heard.len()]);
        let heard = &net.node(NodeId(3)).unwrap().heard;
        assert!(!heard.is_empty() && heard.iter().all(|payload| payload & 0xffff_ffff == 4));
    }

    #[test]
    fn a_batch_far_larger_than_a_socket_buffer_arrives_whole() {
        const FRAMES: usize = 130;
        const FRAME_BYTES: usize = 64 * 1024;

        /// In round 1 node 0 sends node 1 `FRAMES` frames of `FRAME_BYTES`.
        #[derive(Default)]
        struct Bulk {
            heard_bytes: usize,
        }
        impl Process for Bulk {
            type Msg = String;
            fn on_round(&mut self, ctx: &mut Ctx<'_, String>, inbox: &[Envelope<String>]) {
                self.heard_bytes += inbox.iter().map(|env| env.payload.len()).sum::<usize>();
                if ctx.id() == NodeId(0) && ctx.round() == 1 {
                    let payload = ctx.share("x".repeat(FRAME_BYTES));
                    for _ in 0..FRAMES {
                        ctx.send_shared(NodeId(1), payload);
                    }
                }
            }
        }

        // On a thread of its own, so that a writer blocked on a full socket
        // buffer and a poller that never wakes fail the test instead of
        // hanging it.
        let (done, finished) = mpsc::channel();
        let run = thread::spawn(move || {
            let factory: NodeFactory<Bulk> = Box::new(|_, _| Bulk::default());
            let mut net = runner(sim_config(), 1, NullAdversary, factory);
            net.seed_nodes(2);
            // Round 0 sends nothing: the poller is asleep when round 1
            // starts its one write.
            net.step();
            thread::sleep(2 * POLL_SAFETY_NET);
            let started = Instant::now();
            net.step();
            let took = started.elapsed();
            wait_until_read(&net);
            net.step();
            let heard_bytes = net.node(NodeId(1)).unwrap().heard_bytes;
            let _ = done.send((took, net.writes, net.wire_stats(), heard_bytes));
        });
        let (took, writes, wire, heard_bytes) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a blocked write and a sleeping poller deadlocked");
        run.join().expect("the run panicked");
        assert_eq!(writes, 1);
        assert_eq!(wire.frames_sent, FRAMES as u64);
        assert!(wire.bytes_sent >= 8 << 20, "{} bytes", wire.bytes_sent);
        assert_eq!(wire.bytes_received, wire.bytes_sent);
        assert_eq!(heard_bytes, FRAMES * FRAME_BYTES);
        // Once the safety net has woken it the reader is the bottleneck and
        // finds bytes on every pass: the round is the copying (~20 ms
        // unoptimized) plus a safety-net period, far inside this bound.
        assert!(took < Duration::from_secs(1), "the round took {took:?}");
    }

    #[test]
    fn an_idle_poller_sleeps_and_a_write_wakes_it() {
        let k = 4u64;
        // A 1 ms round: `step` returns a millisecond after its boundary.
        let mut net = runner(sim_config(), 1, NullAdversary, full_mesh(k, 1));
        net.seed_nodes(k as usize);
        net.run(3);
        wait_until_read(&net);
        let passes = |net: &NetRunner<Fan, NullAdversary>| net.hub.lock().unwrap().passes;

        let before = passes(&net);
        thread::sleep(Duration::from_millis(300));
        let idle_passes = passes(&net) - before;
        // One pass per safety-net period and no more (sleeping 200 µs
        // between passes made over a thousand).
        let periods = (300 / POLL_SAFETY_NET.as_millis()) as u64;
        assert!(idle_passes <= periods + 2, "{idle_passes} idle passes");

        // Frames written while the poller sleeps are in the hub when the
        // 1 ms round ends: the wake brought them there, not the safety net,
        // which on its own is on time for a fifth of the rounds (the idle
        // stretches differ in length so that they end all over its period).
        let trials = 20u32;
        let mut on_time = 0;
        for trial in 0..trials {
            wait_until_read(&net);
            thread::sleep(2 * POLL_SAFETY_NET + Duration::from_micros(370) * trial);
            net.step();
            let wire = net.wire_stats();
            on_time += u32::from(wire.frames_received == wire.frames_sent);
        }
        assert!(on_time >= trials / 2, "{on_time} of {trials} rounds");
    }

    #[test]
    fn delayed_frames_leave_in_one_write_per_link_and_the_run_still_twins() {
        let (k, copies, rounds) = (4u64, 2u64, 7u64);
        let links = k * (k - 1);
        let frames = links * copies;
        // Everything sent in round 1 is held for two rounds and leaves at
        // the boundary of round 3, beside that round's own sends; everything
        // sent in round 2 is held for three and leaves at round 5's.
        let plan = FaultPlan::new()
            .with_rule(
                FaultRule::every(FaultAction::Delay {
                    ticks: TICKS_PER_ROUND + 1,
                })
                .in_window(RoundWindow::between(1, 2)),
            )
            .with_rule(
                FaultRule::every(FaultAction::Delay {
                    ticks: 3 * TICKS_PER_ROUND,
                })
                .in_window(RoundWindow::between(2, 3)),
            );
        let adapter = FaultAdapter {
            kind_of: |_| 0,
            mutate: |_, _| false,
        };
        let mut net = runner(sim_config(), 20, NullAdversary, full_mesh(k, copies));
        net.set_faults(plan.clone(), adapter);
        net.seed_nodes(k as usize);
        net.run(3);
        assert_eq!(net.writes, links, "round 0; rounds 1 and 2 are held");
        assert_eq!(held_frames(&net) as u64, 2 * frames);
        net.step();
        assert_eq!(held_frames(&net) as u64, frames, "round 2's stay held");
        assert_eq!(net.writes, 3 * links, "round 1's held frames and round 3's");
        net.step();
        assert_eq!(held_frames(&net) as u64, frames);
        assert_eq!(net.writes, 4 * links, "round 4's alone");
        net.step();
        assert_eq!(held_frames(&net), 0);
        assert_eq!(net.writes, 6 * links, "round 2's held frames and round 5's");
        net.step();
        assert_eq!(net.wire_stats().frames_sent, rounds * frames);
        assert_eq!(net.net_stats().lost, 0);

        let model = NetModel::new(LatencyModel::constant(0));
        let mut twin = EventSimulator::new(
            EventConfig::new(sim_config(), model),
            NullAdversary,
            full_mesh(k, copies),
        );
        twin.set_replay(net.trace());
        twin.set_faults(plan, adapter);
        twin.seed_nodes(k as usize);
        twin.run(rounds);
        assert_eq!(twin.net_stats().sent, net.net_stats().sent);
        for id in (0..k).map(NodeId) {
            assert_eq!(
                twin.node(id).unwrap().heard,
                net.node(id).unwrap().heard,
                "{id:?}"
            );
        }
    }
}
