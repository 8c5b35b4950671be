//! What is in flight to the next round boundary: the one layout every
//! delivery fills, and the one path that places it.
//!
//! The paper's model delivers every message sent in round `t` at the
//! boundary of round `t + 1`; the three schedulers differ only in which
//! copies reach that boundary. [`InFlight`], owned by the
//! [`World`](crate::World), holds them:
//!
//! * the **inboxes** — one range per slot of 4-byte *positions* in one shared
//!   buffer, kept in slot order as nodes join and depart, read once by the
//!   slot's activation and consumed by the collect phase;
//! * the **ahead** copies, each a whole [`Envelope`] with its own sender and
//!   send round: the positions below their count;
//! * the **arena** of round `t`'s outbox payloads, each distinct payload once
//!   as `(sender, payload)`, all sent at `t`: position `ahead + h` names entry
//!   `h`;
//! * the **late** list of copies whose receiver had no slot when they were
//!   placed.
//!
//! **Placing.** The world places each round's sends itself: whatever
//! [`Delivery::send`](crate::Delivery::send) leaves in an outbox is due at
//! `t + 1`, and the copies sent earlier that
//! [`Delivery::due_next`](crate::Delivery::due_next)`(t)` returns go ahead
//! of them. As each `send` returns, `count` tallies what stays in the
//! outbox per receiver slot (the world has written each receiver's slot into
//! it). Once every node has sent, [`place`](InFlight::place) tallies the
//! ahead copies through the membership, lays the tallies out as consecutive
//! ranges (a prefix sum) and writes each copy's position through its slot's
//! cursor: the ahead copies, all sent before round `t`, then every outbox in
//! id order, its payloads moving to the arena. Every inbox so lists its
//! copies in global send order — what a stable sort by receiver gives,
//! without a sort's merge scratch.
//!
//! **Not a member.** A copy whose receiver has no slot when it is placed —
//! never assigned, departed, or an identifier the adversary hands out only
//! next round — waits in the late list. [`settle`](InFlight::settle), at the
//! next boundary, appends the arrivals behind the placed copies, grouped per
//! receiver in send order (such a receiver joined after the placement, so
//! its inbox is still empty), and drops the rest.
//!
//! **Reading.** Only the world's compute phase turns a position into an
//! envelope, in its worker's buffer while the node runs: an ahead copy is
//! cloned, an arena entry becomes `Envelope::new(sender, receiver, t,
//! payload.clone())`.
//!
//! [`Lockstep`](crate::Lockstep) injects nothing: every send stays, nothing
//! is due ahead, and its `deliver` settles. `tsa-event`'s `VirtualTime`
//! leaves only its copies due at `t + 1` in the outboxes and returns round
//! `t + 1`'s record from `due_next`. `tsa-net`'s `Loopback` empties every
//! outbox onto the wire, so the world places nothing, and places the frames
//! that arrived as ahead copies at `deliver`. DESIGN.md, "The in-flight
//! layout", has the costs.

use std::ops::Range;

use crate::ids::{NodeId, Round};
use crate::message::Envelope;
use crate::node::{handle, Outbox};
use crate::slot_index::{SlotIndex, NO_SLOT};

/// One slot's inbox.
#[derive(Clone, Debug, Default)]
struct Inbox {
    /// The inbox is `positions[range]`.
    range: Range<usize>,
    /// Copies counted for the slot since the last placement; during one, its
    /// write cursor. Zero in between.
    cursor: usize,
}

/// The copies in flight to the next boundary. See the module docs.
pub struct InFlight<M> {
    /// Every slot's inbox, in slot order.
    inboxes: Vec<Inbox>,
    positions: Vec<u32>,
    /// Copies placed ahead of the arena's, each whole.
    ahead: Vec<Envelope<M>>,
    /// The distinct payloads of round `sent_at`'s outboxes, with their
    /// senders, in send order.
    arena: Vec<(NodeId, M)>,
    sent_at: Round,
    /// Copies placed for a receiver without a slot, as `(order, receiver,
    /// position)`: `order` is the push order, which is send order.
    late: Vec<(usize, NodeId, u32)>,
}

impl<M> Default for InFlight<M> {
    fn default() -> Self {
        InFlight {
            inboxes: Vec::new(),
            positions: Vec::new(),
            ahead: Vec::new(),
            arena: Vec::new(),
            sent_at: 0,
            late: Vec::new(),
        }
    }
}

impl<M> InFlight<M> {
    /// A slot was appended; its inbox is empty.
    pub(crate) fn push_slot(&mut self) {
        self.inboxes.push(Inbox::default());
    }

    /// The node in `slot` departed, its inbox with it; the slots behind it
    /// each move down one, their inboxes with them.
    pub(crate) fn remove_slot(&mut self, slot: usize) {
        self.inboxes.remove(slot);
    }

    /// Overwrites `buf` with `slot`'s inbox, as envelopes to `to`, its owner.
    pub(crate) fn read(&self, slot: usize, to: NodeId, buf: &mut Vec<Envelope<M>>)
    where
        M: Clone,
    {
        buf.clear();
        let positions = &self.positions[self.inboxes[slot].range.clone()];
        buf.extend(positions.iter().map(|&position| {
            let position = position as usize;
            match self.ahead.get(position) {
                Some(env) => env.clone(),
                None => {
                    let (from, payload) = &self.arena[position - self.ahead.len()];
                    Envelope::new(*from, to, self.sent_at, payload.clone())
                }
            }
        }));
    }

    /// `slot`'s node has read its inbox: returns the inbox's length and
    /// empties it.
    pub(crate) fn consume(&mut self, slot: usize) -> usize {
        std::mem::take(&mut self.inboxes[slot].range).len()
    }

    /// Copies waiting, unread, in some slot's inbox.
    pub fn pending(&self) -> usize {
        self.inboxes.iter().map(|inbox| inbox.range.len()).sum()
    }

    /// Copies the last placement took, placed or late: until the
    /// [`settle`](Self::settle) after it, every copy due at the boundary.
    pub fn due(&self) -> usize {
        self.positions.len() + self.late.len()
    }

    /// The ahead copies of the last placement.
    pub fn ahead(&self) -> &[Envelope<M>] {
        &self.ahead
    }

    /// The arena of the last placement.
    pub fn arena(&self) -> &[(NodeId, M)] {
        &self.arena
    }

    /// The receivers of the copies in the late list, in send order.
    pub fn late(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.late.iter().map(|&(_, to, _)| to)
    }

    /// Capacities of the inbox table, the positions, the ahead copies, the
    /// arena and the late list.
    pub fn capacity(&self) -> [usize; 5] {
        [
            self.inboxes.capacity(),
            self.positions.capacity(),
            self.ahead.capacity(),
            self.arena.capacity(),
            self.late.capacity(),
        ]
    }

    /// Tallies `out`'s copies into the slots the world wrote into it, for
    /// the next [`place`](Self::place).
    pub(crate) fn count(&mut self, out: &Outbox<M>) {
        for sent in &out.sends {
            if sent.slot != NO_SLOT {
                self.inboxes[sent.slot as usize].cursor += 1;
            }
        }
    }

    /// Places round `t`'s copies, overwriting every earlier inbox: the
    /// `ahead` ones first, each resolved through `index`, then the
    /// `outboxes`' in the order given, each of their copies counted as it
    /// was sent; the outboxes are left empty.
    pub fn place<'a>(
        &mut self,
        t: Round,
        ahead: impl IntoIterator<Item = Envelope<M>>,
        outboxes: impl Iterator<Item = (NodeId, &'a mut Outbox<M>)>,
        index: &SlotIndex,
    ) where
        M: 'a,
    {
        self.ahead.clear();
        self.ahead.extend(ahead);
        for env in &self.ahead {
            if let Some(slot) = index.slot(env.to) {
                self.inboxes[slot].cursor += 1;
            }
        }
        let mut end = 0usize;
        for inbox in self.inboxes.iter_mut() {
            let count = std::mem::replace(&mut inbox.cursor, end);
            inbox.range = end..end + count;
            end += count;
        }
        self.positions.clear();
        self.positions.resize(end, 0);
        for i in 0..self.ahead.len() {
            let to = self.ahead[i].to;
            self.put(index.slot(to), to, handle(i));
        }
        self.sent_at = t;
        self.arena.clear();
        for (from, out) in outboxes {
            let base = self.ahead.len() + self.arena.len();
            self.arena
                .extend(out.payloads.drain(..).map(|payload| (from, payload)));
            for sent in out.sends.drain(..) {
                let slot = (sent.slot != NO_SLOT).then_some(sent.slot as usize);
                self.put(slot, sent.to, handle(base + sent.payload as usize));
            }
        }
        // Checked in release builds too: a position left at its zero fill
        // would hand a receiver somebody else's message, the count and the
        // placement are a whole send phase apart, and the check costs
        // O(slots).
        assert!(
            self.inboxes
                .iter()
                .all(|inbox| inbox.cursor == inbox.range.end),
            "the placed copies are not the counted ones"
        );
        for inbox in self.inboxes.iter_mut() {
            inbox.cursor = 0;
        }
    }

    /// Writes `position` through `slot`'s cursor, or queues it for `to` in
    /// the late list.
    #[inline]
    fn put(&mut self, slot: Option<usize>, to: NodeId, position: u32) {
        match slot {
            Some(slot) => {
                let cursor = &mut self.inboxes[slot].cursor;
                self.positions[*cursor] = position;
                *cursor += 1;
            }
            None => self.late.push((self.late.len(), to, position)),
        }
    }

    /// Resolves the late list against the current membership (see the
    /// module docs). Returns how many copies were dropped and leaves the
    /// list empty, its capacity kept.
    pub fn settle(&mut self, index: &SlotIndex) -> usize {
        let slot_of = |to: NodeId| index.slot(to).unwrap_or(usize::MAX);
        // The key is unique, so the in-place unstable sort is a stable
        // grouping.
        self.late
            .sort_unstable_by_key(|&(order, to, _)| (slot_of(to), order));
        let arrived = self
            .late
            .partition_point(|&(_, to, _)| slot_of(to) != usize::MAX);
        for run in self.late[..arrived].chunk_by(|a, b| a.1 == b.1) {
            let start = self.positions.len();
            self.positions.extend(run.iter().map(|&(_, _, p)| p));
            let range = &mut self.inboxes[slot_of(run[0].1)].range;
            debug_assert!(
                Range::is_empty(range),
                "an appended inbox had unread positions"
            );
            *range = start..self.positions.len();
        }
        let dropped = self.late.len() - arrived;
        self.late.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Sent;
    use proptest::prelude::*;

    /// The round the copies under test are placed in.
    const T: Round = 10;

    /// Members `ids`, in id order, over a fresh layout.
    fn with_members(ids: &[u64]) -> (InFlight<u64>, SlotIndex) {
        let (mut in_flight, mut index) = (InFlight::default(), SlotIndex::new());
        for &id in ids {
            index.insert(NodeId(id), in_flight.inboxes.len());
            in_flight.push_slot();
        }
        (in_flight, index)
    }

    /// `from`'s outbox: one send per `(receiver, payload)`, a payload equal
    /// to the one before shared with it, with the slots `index` gives.
    fn outbox(from: u64, sends: &[(u64, u64)], index: &mut SlotIndex) -> Outbox<u64> {
        let mut out = Outbox::default();
        for &(to, payload) in sends {
            if out.payloads.last() != Some(&payload) {
                out.payloads.push(payload);
            }
            let payload = handle(out.payloads.len() - 1);
            out.sends.push(Sent {
                to: NodeId(to),
                payload,
                slot: NO_SLOT,
            });
        }
        index.push_distinct_edges(NodeId(from), &mut out, &mut Vec::new());
        out
    }

    /// Counts and places `ahead` and `outboxes` (sender `100 + i` each).
    fn place(
        in_flight: &mut InFlight<u64>,
        index: &SlotIndex,
        ahead: Vec<Envelope<u64>>,
        outboxes: &mut [Outbox<u64>],
    ) {
        for out in outboxes.iter() {
            in_flight.count(out);
        }
        let senders = (100..).map(NodeId).zip(outboxes.iter_mut());
        in_flight.place(T, ahead, senders, index);
    }

    fn inbox(in_flight: &InFlight<u64>, slot: usize, to: u64) -> Vec<Envelope<u64>> {
        let mut buf = Vec::new();
        in_flight.read(slot, NodeId(to), &mut buf);
        buf
    }

    /// Five members, 0–4, and a sixth identifier, 5, that joins after the
    /// placement: copy `i` of 40 goes to `i % 6`, the first 20 ahead, sent
    /// at round `i % 4`, the rest in two outboxes. Returns the copies in
    /// send order.
    fn placed() -> (InFlight<u64>, SlotIndex, Vec<Envelope<u64>>) {
        let (mut in_flight, mut index) = with_members(&[0, 1, 2, 3, 4]);
        let ahead: Vec<_> = (0..20)
            .map(|i| Envelope::new(NodeId(90), NodeId(i % 6), i % 4, i))
            .collect();
        let sends: Vec<(u64, u64)> = (20..40).map(|i| (i % 6, i)).collect();
        let mut outboxes = [
            outbox(100, &sends[..10], &mut index),
            outbox(101, &sends[10..], &mut index),
        ];
        place(&mut in_flight, &index, ahead.clone(), &mut outboxes);
        let from = |i: u64| NodeId(100 + u64::from(i >= 30));
        let sent = sends
            .iter()
            .map(|&(to, i)| Envelope::new(from(i), NodeId(to), T, i));
        (in_flight, index, ahead.into_iter().chain(sent).collect())
    }

    fn to(copies: &[Envelope<u64>], id: u64) -> Vec<Envelope<u64>> {
        copies
            .iter()
            .filter(|env| env.to == NodeId(id))
            .cloned()
            .collect()
    }

    proptest! {
        /// Every inbox is its receiver's ahead copies, then its outbox
        /// copies, each in send order; a joiner's late arrivals land behind
        /// every placed copy; what is dropped is the copies to receivers
        /// still missing at the settle.
        #[test]
        fn each_inbox_is_the_stable_filter_of_the_stream(
            mut members in proptest::collection::vec(0u64..16, 0..12),
            joiners in 16u64..19,
            ahead in proptest::collection::vec((0u64..24, 0u64..T), 0..60),
            outboxes in proptest::collection::vec(
                proptest::collection::vec((0u64..24, 0u64..2), 0..30),
                0..6,
            ),
        ) {
            members.sort_unstable();
            members.dedup();
            let joiners: Vec<u64> = (16..joiners).collect();
            let (mut in_flight, mut index) = with_members(&members);
            // A previous round's layout is overwritten, not added to.
            let mut old = [outbox(99, &[(0, 1), (16, 2)], &mut index)];
            place(&mut in_flight, &index, vec![Envelope::new(NodeId(9), NodeId(0), 0, 3)], &mut old);
            in_flight.settle(&index);

            let mut payload = 1000;
            let mut copies = Vec::new();
            let ahead: Vec<_> = ahead.iter().map(|&(to, sent_at)| {
                payload += 1;
                Envelope::new(NodeId(90), NodeId(to), sent_at, payload)
            }).collect();
            copies.extend(ahead.iter().cloned());
            let mut outs = Vec::new();
            for (i, sends) in outboxes.iter().enumerate() {
                let from = 100 + i as u64;
                // A send may share the payload of the send before it.
                let sends: Vec<(u64, u64)> = sends.iter().map(|&(to, share)| {
                    payload += 1 - share;
                    (to, payload)
                }).collect();
                copies.extend(sends.iter().map(|&(to, p)| Envelope::new(NodeId(from), NodeId(to), T, p)));
                outs.push(outbox(from, &sends, &mut index));
            }
            place(&mut in_flight, &index, ahead, &mut outs);
            let placed = in_flight.positions.len();
            prop_assert_eq!(in_flight.due(), copies.len());
            for &id in &joiners {
                index.insert(NodeId(id), in_flight.inboxes.len());
                in_flight.push_slot();
            }
            let dropped = in_flight.settle(&index);

            let missing = |env: &&Envelope<u64>| index.slot(env.to).is_none();
            prop_assert_eq!(dropped, copies.iter().filter(missing).count());
            for (slot, &id) in members.iter().chain(&joiners).enumerate() {
                prop_assert_eq!(inbox(&in_flight, slot, id), to(&copies, id), "#{}", id);
                let range = &in_flight.inboxes[slot].range;
                if id >= 16 && !Range::is_empty(range) {
                    prop_assert!(range.start >= placed, "#{} at {:?}", id, range);
                }
            }
            prop_assert_eq!(in_flight.pending(), copies.len() - dropped);
        }
    }

    #[test]
    fn a_departed_slots_unread_inbox_leaves_once_and_the_slots_behind_keep_theirs() {
        let (mut in_flight, index, copies) = placed();
        assert_eq!(in_flight.settle(&index), to(&copies, 5).len());
        let before: Vec<_> = (0..5)
            .map(|slot| inbox(&in_flight, slot, slot as u64))
            .collect();
        let waiting = in_flight.pending();
        in_flight.remove_slot(1);
        // What the world charges as dropped: exactly the departed inbox.
        let unread = waiting - in_flight.pending();
        assert_eq!(unread, before[1].len());
        let after: Vec<_> = [0, 2, 3, 4]
            .iter()
            .enumerate()
            .map(|(slot, &id)| inbox(&in_flight, slot, id))
            .collect();
        assert_eq!(after, [&before[..1], &before[2..]].concat());
        // Reading the rest accounts for everything else, exactly once.
        let read: usize = (0..4).map(|slot| in_flight.consume(slot)).sum();
        assert_eq!(read + unread, copies.len() - to(&copies, 5).len());
        assert_eq!(in_flight.pending(), 0);
        assert!(inbox(&in_flight, 0, 0).is_empty());
    }

    #[test]
    fn late_appends_land_behind_the_placed_positions() {
        let (mut in_flight, mut index, copies) = placed();
        let before: Vec<_> = (0..5)
            .map(|slot| inbox(&in_flight, slot, slot as u64))
            .collect();
        assert!(in_flight.late().all(|id| id == NodeId(5)));
        index.insert(NodeId(5), 5);
        in_flight.push_slot();
        assert_eq!(in_flight.settle(&index), 0);
        // Ahead copies first, each with its own send round, then the
        // outboxes', sent at `T`.
        let joiner = inbox(&in_flight, 5, 5);
        assert_eq!(joiner, to(&copies, 5));
        assert_eq!(
            joiner.iter().map(|env| env.sent_at).collect::<Vec<_>>(),
            [1, 3, 1, T, T, T]
        );
        let after: Vec<_> = (0..5)
            .map(|slot| inbox(&in_flight, slot, slot as u64))
            .collect();
        assert_eq!(after, before);
        let placed_end = in_flight.inboxes[..5].iter().map(|i| i.range.end).max();
        assert_eq!(in_flight.inboxes[5].range.start, placed_end.unwrap());
        assert_eq!(in_flight.pending(), copies.len());
    }

    #[test]
    #[should_panic(expected = "the placed copies are not the counted ones")]
    fn a_placement_short_of_its_count_is_refused() {
        let (mut in_flight, mut index) = with_members(&[0, 1]);
        in_flight.count(&outbox(0, &[(0, 1), (1, 2)], &mut index));
        let mut short = outbox(0, &[(0, 1)], &mut index);
        let outboxes = [(NodeId(0), &mut short)].into_iter();
        in_flight.place(T, None, outboxes, &index);
    }
}
