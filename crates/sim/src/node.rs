//! The node behaviour trait and the per-round execution context.
//!
//! A protocol (for example the maintenance protocol of Section 5) is a type
//! implementing [`Process`]. In every synchronous round the engine calls
//! [`Process::on_round`] with all messages delivered this round and a
//! [`Ctx`] through which the node can inspect its environment and send
//! messages that will arrive in the next round.
//!
//! What a node sends is replication by design — every member of a swarm hands
//! the *same* claim to every member of the next — so the [`Outbox`] behind a
//! `Ctx` stores each distinct payload once and 16 bytes per copy:
//! [`Ctx::broadcast`] shares one payload among its targets, and
//! [`Ctx::share`] + [`Ctx::send_shared`] do the same for sends that interleave
//! several payloads.

use rand_chacha::ChaCha8Rng;

use crate::ids::{NodeId, Round};
use crate::message::Envelope;
use crate::rng;
use crate::slot_index::NO_SLOT;

/// A payload index as the 4-byte handle a copy in flight is: a panic with a
/// message where the index does not fit, never a wrap.
#[inline]
pub fn handle(index: usize) -> u32 {
    u32::try_from(index)
        .unwrap_or_else(|_| panic!("payload index {index} does not fit a 4-byte handle"))
}

/// A payload stored by [`Ctx::share`], to be named in any number of
/// [`Ctx::send_shared`] calls of the same activation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shared(u32);

/// One copy queued in an [`Outbox`]: 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Sent {
    /// The receiver.
    pub(crate) to: NodeId,
    /// Index of the payload in the outbox.
    pub(crate) payload: u32,
    /// The slot `to` owns when the round's sends are collected, or
    /// [`NO_SLOT`]: written by [`SlotIndex::push_distinct_edges`], read by
    /// the delivery.
    ///
    /// [`SlotIndex::push_distinct_edges`]: crate::SlotIndex::push_distinct_edges
    pub(crate) slot: u32,
}

/// One node's sends of one round: each distinct payload once, and one
/// `(receiver, payload index)` entry per copy, in send order — the order
/// every delivery preserves.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) payloads: Vec<M>,
    pub(crate) sends: Vec<Sent>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            payloads: Vec::new(),
            sends: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// Number of sends (copies, not distinct payloads).
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// `true` if nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// The sends as flat `(receiver, payload)` pairs, in send order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &M)> {
        self.sends
            .iter()
            .map(|sent| (sent.to, &self.payloads[sent.payload as usize]))
    }

    /// The distinct payloads, each once, in the order they were shared.
    pub fn payloads(&self) -> &[M] {
        &self.payloads
    }

    /// The sends as `(receiver, payload index, slot)`, in send order: the
    /// index is into [`payloads`](Self::payloads), the slot is the one the
    /// receiver owned when the round's sends were collected, or [`NO_SLOT`].
    pub fn sends(&self) -> impl Iterator<Item = (NodeId, usize, u32)> + '_ {
        self.sends
            .iter()
            .map(|sent| (sent.to, sent.payload as usize, sent.slot))
    }

    /// Keeps, in send order, the copies `due` returns for each send, given
    /// its receiver and payload: `None` for a copy that shares the send's
    /// payload, `Some(own)` for one with a payload of its own, appended to
    /// the payloads. A send kept twice is there twice; one kept never
    /// leaves. Every copy keeps its send's slot.
    pub fn keep<I>(&mut self, mut due: impl FnMut(NodeId, &M) -> I)
    where
        I: IntoIterator<Item = Option<M>>,
    {
        let sent = self.sends.len();
        // Kept copies overwrite sends already read; from the first one that
        // would overwrite a send still to be read, they go behind them all.
        let (mut kept, mut behind) = (0, false);
        for read in 0..sent {
            let Sent { to, payload, slot } = self.sends[read];
            for own in due(to, &self.payloads[payload as usize]) {
                let payload = own.map_or(payload, |own| {
                    self.payloads.push(own);
                    handle(self.payloads.len() - 1)
                });
                let copy = Sent { to, payload, slot };
                behind |= kept > read;
                if behind {
                    self.sends.push(copy);
                } else {
                    self.sends[kept] = copy;
                    kept += 1;
                }
            }
        }
        self.sends.drain(kept..sent);
    }

    /// Keeps the copies for which `keep` answers true: one pass that asks
    /// `keep` once per copy, in send order. The payloads stay as they are.
    pub fn retain(&mut self, mut keep: impl FnMut() -> bool) {
        self.sends.retain(|_| keep());
    }

    /// Empties the outbox; both buffers keep their capacity.
    pub fn clear(&mut self) {
        self.payloads.clear();
        self.sends.clear();
    }

    /// Capacities of the payload and the send buffer.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize) {
        (self.payloads.capacity(), self.sends.capacity())
    }
}

/// Everything a node may legally observe and do in a single round.
///
/// The context deliberately exposes *only* information the paper's model grants
/// a node: its own identifier, the current round, the identifiers of nodes that
/// just joined via it (the "bootstrap receives a reference" rule of Section
/// 1.1), a private random stream, and the shared position hash `h`.
pub struct Ctx<'a, M> {
    id: NodeId,
    round: Round,
    joined_at: Round,
    sponsored: &'a [NodeId],
    hash_seed: u64,
    /// Deterministic per-`(seed, node, round)` random stream.
    pub rng: ChaCha8Rng,
    /// What the node has sent so far this round.
    out: Outbox<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Creates a context for one node and one round. Used by the engine and by
    /// unit tests that drive a `Process` by hand.
    pub fn new(
        id: NodeId,
        round: Round,
        joined_at: Round,
        sponsored: &'a [NodeId],
        seed: u64,
        hash_seed: u64,
    ) -> Self {
        Ctx {
            id,
            round,
            joined_at,
            sponsored,
            hash_seed,
            rng: rng::node_round_rng(seed, id, round),
            out: Outbox::default(),
        }
    }

    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round `t`.
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// The round in which this node joined the network.
    #[inline]
    pub fn joined_at(&self) -> Round {
        self.joined_at
    }

    /// Number of completed rounds this node has been part of the network.
    #[inline]
    pub fn age(&self) -> Round {
        self.round - self.joined_at
    }

    /// The nodes that joined the network via this node in the current round.
    ///
    /// Per the model, the bootstrap node "receives a reference" to each joiner;
    /// the joiner itself learns nothing until somebody messages it.
    #[inline]
    pub fn sponsored(&self) -> &'a [NodeId] {
        self.sponsored
    }

    /// Evaluates the shared uniform hash `h(v, epoch) ∈ [0,1)` of Section 5.
    ///
    /// Any node can evaluate the hash for any identifier it knows; the
    /// adversary cannot evaluate it at all.
    #[inline]
    pub fn position_hash(&self, node: NodeId, epoch: u64) -> f64 {
        rng::position_hash(self.hash_seed, node, epoch)
    }

    /// Sends `payload` to `to`; it will be delivered at the start of round
    /// `t + 1` if `to` is still in the network.
    #[inline]
    pub fn send(&mut self, to: NodeId, payload: M) {
        let payload = self.share(payload);
        self.send_shared(to, payload);
    }

    /// Sends `payload` to every node in `targets`. It is stored once however
    /// many targets there are, and not at all if there are none.
    pub fn broadcast<I>(&mut self, targets: I, payload: M)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut targets = targets.into_iter();
        let Some(first) = targets.next() else {
            return;
        };
        let payload = self.share(payload);
        self.send_shared(first, payload);
        for to in targets {
            self.send_shared(to, payload);
        }
    }

    /// Stores `payload` for the [`send_shared`](Ctx::send_shared) calls that
    /// follow — [`broadcast`](Ctx::broadcast) for sends that interleave
    /// several payloads, where send order is part of the protocol. Sharing
    /// sends nothing by itself.
    #[inline]
    pub fn share(&mut self, payload: M) -> Shared {
        let index = handle(self.out.payloads.len());
        self.out.payloads.push(payload);
        Shared(index)
    }

    /// Sends the shared `payload` to `to`, exactly as [`send`](Ctx::send)
    /// would send a copy of it.
    ///
    /// # Panics
    ///
    /// If `payload` was not shared through this context.
    #[inline]
    pub fn send_shared(&mut self, to: NodeId, payload: Shared) {
        assert!(
            (payload.0 as usize) < self.out.payloads.len(),
            "a `Shared` names a payload of the activation that shared it"
        );
        self.out.sends.push(Sent {
            to,
            payload: payload.0,
            slot: NO_SLOT,
        });
    }

    /// Number of messages queued so far this round (congestion self-check).
    pub fn queued(&self) -> usize {
        self.out.len()
    }

    /// Passes every distinct payload queued so far through `rewrite`, once
    /// each — the hook a byzantine node uses to rewrite what its honest
    /// machinery queued. A rewrite reaches every copy of the payload; the
    /// receivers and the order of the sends stay as they are.
    pub fn rewrite_payloads(&mut self, mut rewrite: impl FnMut(&Self, &mut M)) {
        let mut payloads = std::mem::take(&mut self.out.payloads);
        for payload in payloads.iter_mut() {
            rewrite(self, payload);
        }
        self.out.payloads = payloads;
    }

    /// Consumes the context and returns the queued `(receiver, payload)`
    /// pairs, in send order.
    pub fn into_sends(self) -> Vec<(NodeId, M)>
    where
        M: Clone,
    {
        self.out
            .iter()
            .map(|(to, payload)| (to, payload.clone()))
            .collect()
    }
}

/// A node-local protocol: the one node trait every scheduler drives.
///
/// Implementors hold all node-local state. One call of `on_round` is one
/// *activation*: it consumes the messages delivered to the node since it last
/// ran and emits new ones through the [`Ctx`]. Every scheduler calls it
/// exactly once per round for every node currently in the network; *which*
/// messages have arrived by then is the scheduler's delivery policy, not
/// protocol logic — under the lockstep [`Simulator`](crate::Simulator),
/// everything sent to the node one round earlier by a node that still existed
/// at sending time; under `tsa-event` and `tsa-net`, whatever the latency
/// model or the sockets delivered before the boundary.
pub trait Process: Send + 'static {
    /// The protocol message type.
    type Msg: Clone + Send + Sync + 'static;

    /// Executes one synchronous round: receive, compute, send.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Envelope<Self::Msg>]);

    /// A compact digest of the node's internal state, made visible to the
    /// adversary only with lateness `b` (Section 1.1). The default of `0`
    /// reveals nothing.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// Runs one node activation — the single protocol step shared by every
/// execution engine. The round engine's parallel compute phase and the event
/// engine's boundary activations both call exactly this, which is what makes
/// the two engines scheduler policies over the *same* protocol rather than
/// two protocol copies.
///
/// `out` is a recycled outbox that the activation's sends replace, so the
/// steady-state round loop allocates nothing. Returns the node's state
/// digest (`0` unless `record_digest`). The activation's RNG stream depends
/// only on `(seed, id, round)`, so *where* and *in which order* activations
/// of a round execute can never change an output bit.
#[allow(clippy::too_many_arguments)]
pub fn activate<P: Process>(
    process: &mut P,
    id: NodeId,
    round: Round,
    joined_at: Round,
    sponsored: &[NodeId],
    seed: u64,
    hash_seed: u64,
    inbox: &[Envelope<P::Msg>],
    out: &mut Outbox<P::Msg>,
    record_digest: bool,
) -> u64 {
    let mut ctx: Ctx<'_, P::Msg> = Ctx::new(id, round, joined_at, sponsored, seed, hash_seed);
    out.clear();
    std::mem::swap(&mut ctx.out, out);
    process.on_round(&mut ctx, inbox);
    std::mem::swap(&mut ctx.out, out);
    if record_digest {
        process.state_digest()
    } else {
        0
    }
}

/// [`activate`] with the sends expanded into flat `(receiver, payload)`
/// pairs in `out` (a recycled buffer, cleared first): the form a scheduler
/// that knows nothing about shared payloads reads, the naive reference of
/// `tests/scheduler_reference.rs` first of all.
#[allow(clippy::too_many_arguments)]
pub fn run_activation<P: Process>(
    process: &mut P,
    id: NodeId,
    round: Round,
    joined_at: Round,
    sponsored: &[NodeId],
    seed: u64,
    hash_seed: u64,
    inbox: &[Envelope<P::Msg>],
    mut out: Vec<(NodeId, P::Msg)>,
    record_digest: bool,
) -> (Vec<(NodeId, P::Msg)>, u64) {
    let mut sent = Outbox::default();
    let digest = activate(
        process,
        id,
        round,
        joined_at,
        sponsored,
        seed,
        hash_seed,
        inbox,
        &mut sent,
        record_digest,
    );
    out.clear();
    out.extend(sent.iter().map(|(to, payload)| (to, payload.clone())));
    (out, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Process for Echo {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            for env in inbox {
                ctx.send(env.from, env.payload + 1);
            }
        }
    }

    #[test]
    fn ctx_reports_identity_and_age() {
        let sponsored = vec![NodeId(9)];
        let ctx: Ctx<'_, u32> = Ctx::new(NodeId(1), 10, 4, &sponsored, 0, 0);
        assert_eq!(ctx.id(), NodeId(1));
        assert_eq!(ctx.round(), 10);
        assert_eq!(ctx.age(), 6);
        assert_eq!(ctx.sponsored(), &[NodeId(9)]);
    }

    #[test]
    fn echo_process_replies_through_ctx() {
        let mut e = Echo;
        let mut ctx = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        let inbox = vec![Envelope::new(NodeId(7), NodeId(2), 4, 41)];
        e.on_round(&mut ctx, &inbox);
        let out = ctx.into_sends();
        assert_eq!(out, vec![(NodeId(7), 42)]);
    }

    #[test]
    fn broadcast_stores_the_payload_once_and_sends_in_target_order() {
        let mut ctx: Ctx<'_, u32> = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        ctx.send(NodeId(9), 1);
        ctx.broadcast([NodeId(1), NodeId(3), NodeId(1)], 7);
        ctx.broadcast([], 8);
        assert_eq!(ctx.queued(), 4);
        assert_eq!(ctx.out.payloads(), [1, 7], "no payload for no target");
        assert_eq!(
            ctx.out.sends().collect::<Vec<_>>(),
            [
                (NodeId(9), 0, NO_SLOT),
                (NodeId(1), 1, NO_SLOT),
                (NodeId(3), 1, NO_SLOT),
                (NodeId(1), 1, NO_SLOT)
            ],
            "no slot until the sends are collected"
        );
        assert_eq!(
            ctx.into_sends(),
            vec![
                (NodeId(9), 1),
                (NodeId(1), 7),
                (NodeId(3), 7),
                (NodeId(1), 7)
            ]
        );
    }

    #[test]
    fn shared_payloads_interleave_in_send_order() {
        let mut ctx: Ctx<'_, u32> = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        let (a, b) = (ctx.share(10), ctx.share(20));
        let unsent = ctx.share(30);
        assert_eq!(ctx.queued(), 0, "sharing sends nothing");
        ctx.send_shared(NodeId(1), a);
        ctx.send_shared(NodeId(0), b);
        ctx.send(NodeId(4), 40);
        ctx.send_shared(NodeId(3), a);
        assert_ne!(unsent, a);
        // A rewrite of a distinct payload reaches every copy of it.
        ctx.rewrite_payloads(|ctx, payload| {
            if *payload == 10 {
                *payload += ctx.id().raw() as u32;
            }
        });
        assert_eq!(
            ctx.into_sends(),
            vec![
                (NodeId(1), 12),
                (NodeId(0), 20),
                (NodeId(4), 40),
                (NodeId(3), 12)
            ]
        );
    }

    #[test]
    fn keep_leaves_the_kept_copies_in_send_order() {
        let mut ctx: Ctx<'_, u32> = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        ctx.broadcast((1..=5).map(NodeId), 7);
        ctx.send(NodeId(6), 8);
        let mut out = ctx.out;
        for sent in out.sends.iter_mut() {
            sent.slot = sent.to.raw() as u32;
        }
        // #1's copy is not kept, so #2's twins fit in place; #3's second
        // one would overwrite #4's send, and it and all after it go behind.
        out.keep(|to, &payload| match to.raw() {
            1 => vec![],
            2 | 3 => vec![None, None],
            4 => vec![Some(payload * 10)],
            _ => vec![None],
        });
        assert_eq!(out.payloads(), [7, 8, 70]);
        let kept = [(2, 0), (2, 0), (3, 0), (3, 0), (4, 2), (5, 0), (6, 1)];
        assert_eq!(
            out.sends().collect::<Vec<_>>(),
            kept.map(|(to, payload)| (NodeId(to), payload, to as u32))
        );
    }

    #[test]
    #[should_panic(expected = "of the activation that shared it")]
    fn a_shared_payload_of_another_activation_is_refused() {
        let mut one: Ctx<'_, u32> = Ctx::new(NodeId(1), 5, 0, &[], 1, 1);
        let mut other: Ctx<'_, u32> = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        one.share(1);
        let second = one.share(2);
        other.share(3);
        other.send_shared(NodeId(0), second);
    }

    #[test]
    fn handles_are_checked_conversions() {
        assert_eq!(handle(u32::MAX as usize), u32::MAX);
        let wrapped = std::panic::catch_unwind(|| handle(u32::MAX as usize + 1));
        let message = *wrapped.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(
            message,
            "payload index 4294967296 does not fit a 4-byte handle"
        );
    }

    #[test]
    fn run_activation_clears_the_recycled_buffer_and_keeps_its_capacity() {
        let mut buf: Vec<(NodeId, u32)> = Vec::with_capacity(64);
        buf.push((NodeId(1), 1));
        let cap = buf.capacity();
        let inbox = vec![Envelope::new(NodeId(7), NodeId(2), 4, 41)];
        let (out, digest) =
            run_activation(&mut Echo, NodeId(2), 5, 0, &[], 1, 1, &inbox, buf, true);
        assert_eq!(out, vec![(NodeId(7), 42)], "stale contents are cleared");
        assert_eq!(out.capacity(), cap, "capacity survives the round trip");
        assert_eq!(digest, 0, "the default digest reveals nothing");
    }

    #[test]
    fn activate_clears_the_recycled_outbox_and_keeps_its_capacity() {
        let mut ctx: Ctx<'_, u32> = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        ctx.broadcast((0..40).map(NodeId), 1);
        let mut out = ctx.out;
        let caps = out.capacity();
        let inbox = vec![Envelope::new(NodeId(7), NodeId(2), 4, 41)];
        activate(
            &mut Echo,
            NodeId(2),
            5,
            0,
            &[],
            1,
            1,
            &inbox,
            &mut out,
            false,
        );
        assert_eq!(out.iter().collect::<Vec<_>>(), [(NodeId(7), &42)]);
        assert_eq!(out.capacity(), caps);
    }

    #[test]
    fn position_hash_is_consistent_across_ctxs() {
        let a: Ctx<'_, ()> = Ctx::new(NodeId(1), 0, 0, &[], 0, 77);
        let b: Ctx<'_, ()> = Ctx::new(NodeId(2), 9, 0, &[], 5, 77);
        assert_eq!(a.position_hash(NodeId(3), 4), b.position_hash(NodeId(3), 4));
    }
}
