//! `id → slot` lookup and distinct-receiver counting in O(1) per message.
//!
//! The [`World`](crate::World) keeps its node slots in a `Vec` sorted by
//! identifier, whatever its delivery, and asks two questions once per
//! message: *which slot owns this
//! receiver* (delivery) and *has this sender already messaged this receiver
//! this round* (the communication graph and the distinct-receiver metric).
//! Identifiers are handed out densely from 0 and never reused, so both are
//! one table lookup: [`SlotIndex`] keeps one entry — a `u32` slot and a `u64`
//! stamp, side by side — per identifier ever assigned, and the collect phase
//! answers both questions from the same entry
//! ([`push_distinct_edges`](SlotIndex::push_distinct_edges)).
//!
//! Identifiers outside the table — a protocol may address any `u64`, e.g. an
//! identifier that was never assigned or `NodeId(u64::MAX)` — are never
//! members; for distinct counting they fall back to a checked linear list.

use crate::ids::NodeId;
use crate::node::Outbox;

/// What [`SlotIndex::push_distinct_edges`] writes for a receiver that owns
/// no slot: departed, never assigned, or outside the table altogether.
pub const NO_SLOT: u32 = u32::MAX;

/// What the table knows about one identifier.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// `stamp == pass` iff the identifier was already seen in the current
    /// distinct-counting pass; 0 is never a live pass, so fresh entries are
    /// unseen.
    stamp: u64,
    /// The member's slot, or [`NO_SLOT`].
    slot: u32,
}

const VACANT: Entry = Entry {
    stamp: 0,
    slot: NO_SLOT,
};

/// Dense `id → (slot, stamp)` table. See the module docs.
#[derive(Debug, Default)]
pub struct SlotIndex {
    /// One entry per identifier ever assigned, indexed by the raw id.
    entries: Vec<Entry>,
    /// The current distinct-counting pass.
    pass: u64,
    /// Identifiers beyond the table seen in the current pass.
    beyond: Vec<NodeId>,
}

impl SlotIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that member `id` lives in `slot`, growing the table to cover
    /// `id`. Call it for a new member and again whenever its slot moves.
    pub fn insert(&mut self, id: NodeId, slot: usize) {
        let i = usize::try_from(id.raw()).expect("assigned identifiers are dense from 0");
        if i >= self.entries.len() {
            self.entries.resize(i + 1, VACANT);
        }
        assert!(
            slot < NO_SLOT as usize,
            "slot {slot} does not fit the table"
        );
        self.entries[i].slot = slot as u32;
    }

    /// Records that member `id` left the network and that the members behind
    /// it — `shifted`, in slot order — each moved down one slot, as
    /// `Vec::remove` on the slot vector leaves them. An `id` that is not a
    /// member is ignored.
    pub fn remove(&mut self, id: NodeId, shifted: impl IntoIterator<Item = NodeId>) {
        let Some(vacated) = self.slot(id) else {
            return;
        };
        self.entries[id.raw() as usize].slot = NO_SLOT;
        for (offset, later) in shifted.into_iter().enumerate() {
            self.insert(later, vacated + offset);
        }
    }

    /// How many identifiers the table covers: every member is inserted and
    /// identifiers are assigned densely from 0, so all assigned so far.
    pub fn assigned(&self) -> u64 {
        self.entries.len() as u64
    }

    /// The slot of `id`, or `None` if it is not a current member (departed,
    /// never assigned, or outside the table altogether).
    #[inline]
    pub fn slot(&self, id: NodeId) -> Option<usize> {
        let i = usize::try_from(id.raw()).ok()?;
        match self.entries.get(i) {
            Some(entry) if entry.slot != NO_SLOT => Some(entry.slot as usize),
            _ => None,
        }
    }

    /// One pass over a sender's outbox that answers both per-message
    /// questions from the same table entry.
    ///
    /// Appends one `(from, to)` edge per *distinct* receiver in `out` to
    /// `edges`, in ascending receiver order, and returns how many there are
    /// — what sorting and deduplicating all of `out`'s destinations yields,
    /// but only the distinct ones are ever sorted. Writes into every send of
    /// `out` the receiver's current slot, or [`NO_SLOT`] — the four bytes the
    /// 16-byte entry has to spare, so the delivery needs no list of its own.
    pub fn push_distinct_edges<M>(
        &mut self,
        from: NodeId,
        out: &mut Outbox<M>,
        edges: &mut Vec<(NodeId, NodeId)>,
    ) -> usize {
        self.pass += 1;
        self.beyond.clear();
        let start = edges.len();
        for sent in out.sends.iter_mut() {
            let to = sent.to;
            let entry = usize::try_from(to.raw())
                .ok()
                .and_then(|i| self.entries.get_mut(i));
            let (first, slot) = match entry {
                Some(entry) => (
                    std::mem::replace(&mut entry.stamp, self.pass) != self.pass,
                    entry.slot,
                ),
                None => {
                    let first = !self.beyond.contains(&to);
                    if first {
                        self.beyond.push(to);
                    }
                    (first, NO_SLOT)
                }
            };
            sent.slot = slot;
            if first {
                edges.push((from, to));
            }
        }
        edges[start..].sort_unstable();
        edges.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Sent;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The sorted-`Vec` bookkeeping the index replaces: members in ascending
    /// id order, departures by `remove`, joins by `push` of the next id.
    struct Reference {
        members: Vec<NodeId>,
        next_id: u64,
    }

    impl Reference {
        fn slot(&self, id: NodeId) -> Option<usize> {
            self.members.binary_search_by_key(&id, |&m| m).ok()
        }
    }

    fn churned(seed: u64, rounds: usize) -> (SlotIndex, Reference, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut index = SlotIndex::new();
        let mut reference = Reference {
            members: Vec::new(),
            next_id: 0,
        };
        for _ in 0..24 {
            index.insert(NodeId(reference.next_id), reference.members.len());
            reference.members.push(NodeId(reference.next_id));
            reference.next_id += 1;
        }
        for _ in 0..rounds {
            if reference.members.len() > 4 && rng.gen::<bool>() {
                let at = rng.gen_range(0..reference.members.len());
                let gone = reference.members.remove(at);
                index.remove(gone, reference.members[at..].iter().copied());
            }
            if rng.gen::<bool>() {
                index.insert(NodeId(reference.next_id), reference.members.len());
                reference.members.push(NodeId(reference.next_id));
                reference.next_id += 1;
            }
        }
        (index, reference, rng)
    }

    #[test]
    fn slot_lookup_matches_binary_search_under_churn() {
        for seed in 0..20 {
            let (index, reference, _) = churned(seed, 200);
            // Every id ever assigned (members and departed), ids that never
            // existed, and the far end of the id space.
            let probes = (0..reference.next_id + 8).chain([u64::MAX - 1, u64::MAX]);
            for raw in probes {
                assert_eq!(
                    index.slot(NodeId(raw)),
                    reference.slot(NodeId(raw)),
                    "seed {seed}, id {raw}"
                );
            }
        }
    }

    #[test]
    fn distinct_edges_and_slots_match_the_sorted_reference() {
        for seed in 0..20 {
            let (mut index, reference, mut rng) = churned(seed, 120);
            let from = reference.members[0];
            let mut edges = vec![(NodeId(7), NodeId(7))];
            for pass in 0..6 {
                // Destinations among members, departed ids, ids >= next_id
                // and u64::MAX, with many repeats.
                let receivers: Vec<NodeId> = (0..rng.gen_range(0..300usize))
                    .map(|_| {
                        NodeId(match rng.gen_range(0..10u32) {
                            0 => u64::MAX,
                            1 => reference.next_id + rng.gen_range(0..3u64),
                            _ => rng.gen_range(0..reference.next_id),
                        })
                    })
                    .collect();
                let stale = |&to| Sent {
                    to,
                    payload: 0,
                    slot: 7,
                };
                let mut out = Outbox {
                    payloads: vec![0u8],
                    sends: receivers.iter().map(stale).collect(),
                };
                let mut expected = receivers.clone();
                expected.sort_unstable();
                expected.dedup();
                let before = edges.len();
                let distinct = index.push_distinct_edges(from, &mut out, &mut edges);
                assert_eq!(distinct, expected.len(), "seed {seed}, pass {pass}");
                let slots: Vec<u32> = out.sends.iter().map(|sent| sent.slot).collect();
                let expected_slots: Vec<u32> = receivers
                    .iter()
                    .map(|&to| reference.slot(to).map_or(NO_SLOT, |slot| slot as u32))
                    .collect();
                assert_eq!(slots, expected_slots, "seed {seed}, pass {pass}");
                let got: Vec<NodeId> = edges[before..].iter().map(|&(_, to)| to).collect();
                assert_eq!(got, expected, "seed {seed}, pass {pass}");
                assert!(edges[before..].iter().all(|&(f, _)| f == from));
            }
            assert_eq!(edges[0], (NodeId(7), NodeId(7)), "earlier edges untouched");
        }
    }

    #[test]
    fn removing_unknown_ids_is_a_no_op() {
        let mut index = SlotIndex::new();
        index.insert(NodeId(0), 0);
        index.remove(NodeId(5), []);
        index.remove(NodeId(u64::MAX), [NodeId(0)]);
        assert_eq!(index.slot(NodeId(0)), Some(0));
        index.remove(NodeId(0), []);
        assert_eq!(index.slot(NodeId(0)), None);
    }
}
