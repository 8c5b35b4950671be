//! The per-slot inbox layout every delivery fills, and the one stable
//! counting scatter that fills it.
//!
//! An inbox is a range of 4-byte *positions* in one shared buffer. What a
//! position names is the delivery's business — a payload handle, a place in
//! a boundary's batch — and
//! [`Delivery::envelope`](crate::Delivery::envelope) turns it into the
//! envelope the receiver reads. [`World`](crate::World) owns the layout: one
//! range per slot, kept in slot order as nodes join and depart, read once
//! by the slot's activation and consumed by the collect phase.
//!
//! **The scatter.** A stream of copies, each addressed to a slot or to none,
//! becomes per-slot ranges in three passes: *count* the copies per slot,
//! *lay out* the counts as consecutive ranges (a prefix sum), then *place*
//! each copy's position through its slot's write cursor. Copies are placed
//! in stream order, so every range lists its positions in that order — what
//! a stable sort by receiver gives, without a sort's merge scratch. Streams
//! are in global send order, so every inbox is in send order.
//! [`Lockstep`](crate::Lockstep) and `tsa-event`'s `VirtualTime` count
//! while the round's sends are announced and place when they are flushed;
//! `tsa-net`'s `Loopback`, which learns what arrived only at the boundary,
//! settles its whole batch at once through [`Inboxes::scatter`].
//!
//! **Not a member at send time.** A copy placed at send time needs its
//! receiver's slot then. One whose receiver has none — never assigned,
//! departed, or an identifier the adversary hands out only next round —
//! waits in a [`Late`] list, which the next boundary resolves against the
//! membership it has.

use std::ops::Range;

use crate::ids::NodeId;
use crate::slot_index::{SlotIndex, NO_SLOT};

/// One slot's inbox.
#[derive(Clone, Debug, Default)]
struct Inbox {
    /// The inbox is `positions[range]`.
    range: Range<usize>,
    /// Copies counted for the slot since the last lay-out; between the
    /// lay-out and the seal, its write cursor. Zero in between.
    cursor: usize,
}

/// Per-slot inboxes over one position buffer. See the module docs.
#[derive(Debug, Default)]
pub struct Inboxes {
    slots: Vec<Inbox>,
    positions: Vec<u32>,
    /// The slot of every copy of the last [`scatter`](Inboxes::scatter)'s
    /// stream, or [`NO_SLOT`]: its placement pass reads these back instead of
    /// walking the stream a second time.
    stream: Vec<u32>,
}

impl Inboxes {
    /// A slot was appended; its inbox is empty.
    pub(crate) fn push_slot(&mut self) {
        self.slots.push(Inbox::default());
    }

    /// The node in `slot` departed, its inbox with it; the slots behind it
    /// each move down one, their inboxes with them.
    pub(crate) fn remove_slot(&mut self, slot: usize) {
        self.slots.remove(slot);
    }

    /// The positions in `slot`'s inbox, in placement order.
    #[inline]
    pub(crate) fn positions(&self, slot: usize) -> &[u32] {
        &self.positions[self.slots[slot].range.clone()]
    }

    /// `slot`'s node has read its inbox: returns the inbox's length and
    /// empties it.
    pub(crate) fn consume(&mut self, slot: usize) -> usize {
        std::mem::take(&mut self.slots[slot].range).len()
    }

    /// Positions waiting, unread, in some slot's inbox.
    pub fn pending(&self) -> usize {
        self.slots.iter().map(|inbox| inbox.range.len()).sum()
    }

    /// Capacities of the per-slot table, the position buffer and the
    /// scatter's stream buffer.
    pub fn capacity(&self) -> (usize, usize, usize) {
        (
            self.slots.capacity(),
            self.positions.capacity(),
            self.stream.capacity(),
        )
    }

    /// One more copy is addressed to `slot`.
    #[inline]
    pub fn count(&mut self, slot: usize) {
        self.slots[slot].cursor += 1;
    }

    /// Lays the counted copies out as consecutive ranges, in slot order, over
    /// a zero-filled buffer, and points every slot's cursor at its range's
    /// start. Every earlier inbox is overwritten.
    pub fn lay_out(&mut self) {
        let mut end = 0usize;
        for inbox in self.slots.iter_mut() {
            let count = std::mem::replace(&mut inbox.cursor, end);
            inbox.range = end..end + count;
            end += count;
        }
        self.positions.clear();
        self.positions.resize(end, 0);
    }

    /// Writes `position` through `slot`'s cursor.
    #[inline]
    pub fn place(&mut self, slot: usize, position: u32) {
        let cursor = &mut self.slots[slot].cursor;
        self.positions[*cursor] = position;
        *cursor += 1;
    }

    /// Closes a scatter: every slot got exactly the copies counted for it.
    /// Checked in release builds too: a position left at its zero fill would
    /// hand a receiver somebody else's message, the count and the placement
    /// may span two trait calls, and the check costs O(slots).
    pub fn seal(&mut self) {
        assert!(
            self.slots
                .iter()
                .all(|inbox| inbox.cursor == inbox.range.end),
            "the placed copies are not the counted ones"
        );
        for inbox in self.slots.iter_mut() {
            inbox.cursor = 0;
        }
    }

    /// The whole scatter over one batch: the copy at position `i` of the
    /// stream goes to slot `slots[i]`, or nowhere. The stream is read once,
    /// in order. Returns how many copies went nowhere.
    pub fn scatter(&mut self, slots: impl IntoIterator<Item = Option<usize>>) -> usize {
        let mut stream = std::mem::take(&mut self.stream);
        stream.clear();
        // Counting checks a slot against the table, which `SlotIndex` keeps
        // below `NO_SLOT`.
        stream.extend(slots.into_iter().map(|slot| {
            slot.map_or(NO_SLOT, |slot| {
                self.count(slot);
                slot as u32
            })
        }));
        self.lay_out();
        for (position, &slot) in stream.iter().enumerate() {
            if slot != NO_SLOT {
                let position = u32::try_from(position).expect("a batch fits 4-byte positions");
                self.place(slot as usize, position);
            }
        }
        self.seal();
        self.stream = stream;
        self.stream.len() - self.positions.len()
    }

    /// Appends `positions` as `slot`'s inbox, behind every scattered
    /// position. The slot must have nothing unread: it joined after the
    /// scatter was counted.
    pub(crate) fn append(&mut self, slot: usize, positions: impl Iterator<Item = u32>) {
        let start = self.positions.len();
        self.positions.extend(positions);
        let range = &mut self.slots[slot].range;
        debug_assert!(
            Range::is_empty(range),
            "an appended inbox had unread positions"
        );
        *range = start..self.positions.len();
    }
}

/// Copies placed at send time whose receiver had no slot then, as `(order,
/// receiver, position)`: `order` is the push order, which is send order.
#[derive(Debug, Default)]
pub struct Late(Vec<(usize, NodeId, u32)>);

impl Late {
    /// Queues the copy at `position` for `to`, behind every copy queued
    /// before it.
    pub fn push(&mut self, to: NodeId, position: u32) {
        self.0.push((self.0.len(), to, position));
    }

    /// Copies queued.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if no copy is queued.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Resolves every queued copy against the current membership: the
    /// arrivals' positions go behind the placed ones, grouped per receiver
    /// in push order (such a receiver joined after the placement, so its
    /// inbox is still empty); the rest are dropped. Returns how many were
    /// dropped and leaves the list empty, its capacity kept.
    pub fn settle(&mut self, index: &SlotIndex, inboxes: &mut Inboxes) -> usize {
        let slot_of = |to: NodeId| index.slot(to).unwrap_or(usize::MAX);
        // The key is unique, so the in-place unstable sort is a stable
        // grouping.
        self.0
            .sort_unstable_by_key(|&(order, to, _)| (slot_of(to), order));
        let arrived = self
            .0
            .partition_point(|&(_, to, _)| slot_of(to) != usize::MAX);
        for run in self.0[..arrived].chunk_by(|a, b| a.1 == b.1) {
            inboxes.append(slot_of(run[0].1), run.iter().map(|&(_, _, p)| p));
        }
        let dropped = self.0.len() - arrived;
        self.0.clear();
        dropped
    }

    /// The receivers queued, in push order.
    #[cfg(test)]
    pub(crate) fn receivers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().map(|&(_, to, _)| to)
    }

    /// Capacity of the list.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn with_slots(n: usize) -> Inboxes {
        let mut inboxes = Inboxes::default();
        for _ in 0..n {
            inboxes.push_slot();
        }
        inboxes
    }

    /// Five slots over a stream of 40 copies: copy `i` goes to slot `i % 6`,
    /// and every sixth copy nowhere.
    fn scattered() -> (Inboxes, Vec<Option<usize>>) {
        let stream: Vec<Option<usize>> = (0..40).map(|i| (i % 6 < 5).then_some(i % 6)).collect();
        let mut inboxes = with_slots(5);
        assert_eq!(inboxes.scatter(stream.iter().copied()), 6);
        (inboxes, stream)
    }

    fn contents(inboxes: &Inboxes, slots: usize) -> Vec<Vec<u32>> {
        (0..slots).map(|s| inboxes.positions(s).to_vec()).collect()
    }

    proptest! {
        /// Every slot's inbox is the stable filter of the stream: the
        /// positions addressed to it, in stream order. What went nowhere is
        /// counted, and the layout takes nothing else.
        #[test]
        fn each_inbox_is_the_stable_filter_of_the_stream(
            slots in 1usize..12,
            raw in proptest::collection::vec(0usize..16, 0..400),
        ) {
            let stream: Vec<Option<usize>> =
                raw.iter().map(|&s| (s < slots).then_some(s)).collect();
            let mut inboxes = with_slots(slots);
            // A previous round's layout is overwritten, not added to.
            inboxes.scatter([Some(0), None, Some(slots - 1)].into_iter());
            let homeless = inboxes.scatter(stream.iter().copied());
            prop_assert_eq!(homeless, stream.iter().filter(|s| s.is_none()).count());
            for slot in 0..slots {
                let expected: Vec<u32> = (0..stream.len() as u32)
                    .filter(|&i| stream[i as usize] == Some(slot))
                    .collect();
                prop_assert_eq!(inboxes.positions(slot), &expected[..]);
            }
            prop_assert_eq!(inboxes.pending(), stream.len() - homeless);
        }
    }

    #[test]
    fn a_departed_slots_unread_inbox_leaves_once_and_the_slots_behind_keep_theirs() {
        let (mut inboxes, stream) = scattered();
        let before = contents(&inboxes, 5);
        let waiting = inboxes.pending();
        inboxes.remove_slot(1);
        // What the world charges as dropped: exactly the departed inbox.
        let unread = waiting - inboxes.pending();
        assert_eq!(unread, before[1].len());
        assert_eq!(contents(&inboxes, 4), [&before[..1], &before[2..]].concat());
        // Reading the rest accounts for everything else, exactly once.
        let read: usize = (0..4).map(|slot| inboxes.consume(slot)).sum();
        assert_eq!(read + unread, stream.iter().flatten().count());
        assert_eq!(inboxes.pending(), 0);
        assert!(inboxes.positions(0).is_empty());
    }

    #[test]
    fn late_appends_land_behind_the_scattered_positions() {
        let (mut inboxes, _) = scattered();
        let before = contents(&inboxes, 5);
        inboxes.push_slot();
        inboxes.append(5, [7, 3, 9].into_iter());
        assert_eq!(inboxes.positions(5), [7, 3, 9]);
        assert_eq!(contents(&inboxes, 5), before);
        let scattered_end = inboxes.slots[..5].iter().map(|i| i.range.end).max();
        assert_eq!(inboxes.slots[5].range.start, scattered_end.unwrap());
        assert_eq!(inboxes.pending(), before.concat().len() + 3);
    }

    #[test]
    #[should_panic(expected = "the placed copies are not the counted ones")]
    fn a_placement_short_of_its_count_is_refused() {
        let mut inboxes = with_slots(2);
        inboxes.count(0);
        inboxes.count(1);
        inboxes.lay_out();
        inboxes.place(0, 4);
        inboxes.seal();
    }
}
