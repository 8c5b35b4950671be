//! A calendar queue: an ordered map of buckets of [`Pending`] events, keyed
//! on the arrival.
//!
//! # Who uses it
//!
//! * `tsa-net`'s `Loopback` holds fault-delayed frames in a queue of width 1
//!   over rounds: each boundary drains the frames due by then and sorts
//!   only those into send order;
//! * the `event.queue_op_ns` micro-benchmark of the `benchmark/` package
//!   times its push and pop at width 64.
//!
//! # Layout
//!
//! Each event is filed under the bucket covering its arrival window
//! (`arrival / bucket_width`) in a `BTreeMap` that holds only the live
//! buckets — a handful for round-shaped traffic — and a bucket is sorted
//! only when it is actually popped from. A binary heap would pay `O(log n)`
//! pointer-chasing comparisons per push *and* per pop for a generality that
//! round-shaped traffic never uses.
//!
//! # Ordering contract
//!
//! [`CalendarQueue::pop_at_or_before`] yields events in exactly the total
//! order a `BinaryHeap<Pending>` pops them: ascending
//! `(arrival, seq, receiver)`. Bucket indices are monotone in the arrival,
//! so the first bucket of the map holds the smallest keys: an event pushed
//! behind a bucket already drained is simply a smaller key and pops first,
//! and one at `arrival = u64::MAX` is an ordinary last bucket.
//! `crates/event/tests/queue_props.rs` holds this equivalence against a
//! reference heap under dense, sparse, far-future and duplicate-arrival
//! distributions, for pops and for drains.

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeMap;

use tsa_sim::{Envelope, NodeId};

/// Drained bucket allocations kept for reuse. Round-shaped traffic keeps one
/// or two buckets live at a time, so a handful of spares is all the queue
/// ever needs; anything beyond is freed.
const MAX_SPARE_BUCKETS: usize = 4;

/// One message in flight: its arrival, global send sequence number and
/// envelope. The queue orders by `(arrival, seq, receiver)`; `seq` is unique
/// in a live engine, so the order is total and delivery is deterministic.
pub struct Pending<M> {
    /// When the message becomes deliverable, in the queue's unit of time
    /// (the transport files the round whose boundary releases it).
    pub arrival: u64,
    /// The message's global send index.
    pub seq: u64,
    /// The envelope handed to the receiver's inbox.
    pub env: Envelope<M>,
}

impl<M> Pending<M> {
    /// The total-order key: `(arrival, seq, receiver)`.
    pub fn cmp_key(&self) -> (u64, u64, NodeId) {
        (self.arrival, self.seq, self.env.to)
    }
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the earliest event pops
        // first. Kept on `Pending` so a reference heap (tests, benches)
        // still orders exactly like the calendar queue.
        other.cmp_key().cmp(&self.cmp_key())
    }
}

/// One bucket: its events plus a lazily-maintained sort flag. Never empty
/// while in the map; an emptied bucket leaves it and gives its allocation to
/// the queue's spare list, where the next new bucket takes it.
struct Bucket<M> {
    /// The bucket's events; sorted *descending* by key when `sorted` is set,
    /// so the minimum pops from the tail in O(1).
    items: Vec<Pending<M>>,
    sorted: bool,
}

impl<M> Bucket<M> {
    fn sort(&mut self) {
        if !self.sorted {
            self.items.sort_unstable_by_key(|p| Reverse(p.cmp_key()));
            self.sorted = true;
        }
    }
}

/// A calendar queue over [`Pending`] events, keyed on the arrival.
///
/// See the module docs for the layout and the ordering contract.
pub struct CalendarQueue<M> {
    /// Arrivals covered by one bucket (≥ 1).
    width: u64,
    /// The live buckets by index (`arrival / width`), none of them empty.
    buckets: BTreeMap<u64, Bucket<M>>,
    /// Empty allocations of drained buckets (at most
    /// [`MAX_SPARE_BUCKETS`]), handed to the next new bucket.
    spare: Vec<Vec<Pending<M>>>,
}

impl<M> CalendarQueue<M> {
    /// A queue whose buckets each cover `bucket_width` arrivals (clamped to
    /// at least 1).
    pub fn new(bucket_width: u64) -> Self {
        CalendarQueue {
            width: bucket_width.max(1),
            buckets: BTreeMap::new(),
            spare: Vec::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.buckets.values().map(|b| b.items.len()).sum()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Queues an event.
    pub fn push(&mut self, p: Pending<M>) {
        let spare = &mut self.spare;
        let bucket = self
            .buckets
            .entry(p.arrival / self.width)
            .or_insert_with(|| Bucket {
                items: spare.pop().unwrap_or_default(),
                sorted: true,
            });
        bucket.items.push(p);
        bucket.sorted = false;
    }

    /// Pops the minimum-key event if its arrival is at or before `now` —
    /// exactly the events and exactly the order a `BinaryHeap<Pending>`
    /// would yield with `heap.peek().arrival <= now` / `heap.pop()`.
    pub fn pop_at_or_before(&mut self, now: u64) -> Option<Pending<M>> {
        let mut first = self.buckets.first_entry()?;
        let bucket = first.get_mut();
        bucket.sort();
        if bucket.items.last()?.arrival > now {
            return None;
        }
        let p = bucket.items.pop();
        if bucket.items.is_empty() {
            recycle(&mut self.spare, first.remove());
        }
        p
    }

    /// Moves every event with `arrival <= now` into `out`, in **unspecified
    /// order** (the transport sorts its due frames into send order anyway).
    /// Whole due buckets are appended with a bulk move and never key-sorted;
    /// use [`pop_at_or_before`](Self::pop_at_or_before) when the pop order
    /// itself matters.
    pub fn drain_at_or_before(&mut self, now: u64, out: &mut Vec<Pending<M>>) {
        while let Some(mut first) = self.buckets.first_entry() {
            let b = *first.key();
            // b · width is at most the bucket's smallest arrival: no wrap.
            if b * self.width > now {
                return;
            }
            // The window ends at (b + 1) · width − 1, which near the top of
            // the range meets or exceeds u64::MAX; clamping it to
            // u64::MAX − 1 would move an `arrival = u64::MAX` event early.
            let end = b
                .checked_add(1)
                .and_then(|next| next.checked_mul(self.width))
                .map_or(u64::MAX, |e| e - 1);
            let bucket = first.get_mut();
            if end <= now {
                out.append(&mut bucket.items);
            } else {
                // Partially due: sort once, then peel the due tail.
                bucket.sort();
                while bucket.items.last().is_some_and(|p| p.arrival <= now) {
                    out.extend(bucket.items.pop());
                }
                if !bucket.items.is_empty() {
                    return;
                }
            }
            recycle(&mut self.spare, first.remove());
        }
    }
}

/// Gives an emptied bucket's allocation to the spare list, or frees it.
fn recycle<M>(spare: &mut Vec<Vec<Pending<M>>>, bucket: Bucket<M>) {
    debug_assert!(bucket.items.is_empty());
    if spare.len() < MAX_SPARE_BUCKETS {
        spare.push(bucket.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(arrival: u64, seq: u64, to: u64) -> Pending<u64> {
        Pending {
            arrival,
            seq,
            env: Envelope::new(NodeId(0), NodeId(to), 0, 0),
        }
    }

    /// Event slots the queue holds on to, in use or not: live buckets plus
    /// spares.
    fn retained_capacity(q: &CalendarQueue<u64>) -> usize {
        let live: usize = q.buckets.values().map(|b| b.items.capacity()).sum();
        let spare: usize = q.spare.iter().map(Vec::capacity).sum();
        live + spare
    }

    #[test]
    fn drained_buckets_do_not_pin_a_round_of_memory_each() {
        // Regression: every bucket kept the allocation of the round that
        // filled it, so the queue pinned many rounds' worth of buffers while
        // one or two were live. Sub-round traffic: round t's sends arrive
        // before boundary t + 1 and are drained there.
        let width = 1000u64;
        let mut q = CalendarQueue::new(width);
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut peak_depth = 0usize;
        for t in 0..200u64 {
            let sends = 400 + (t * 37) % 200;
            for k in 0..sends {
                q.push(pending(t * width + 100 + (k * 13) % 800, seq, k));
                seq += 1;
            }
            peak_depth = peak_depth.max(q.len());
            out.clear();
            q.drain_at_or_before((t + 1) * width, &mut out);
            assert_eq!(out.len() as u64, sends);
            assert!(q.is_empty());
        }
        let retained = retained_capacity(&q);
        assert!(
            retained <= 4 * peak_depth,
            "queue retains {retained} event slots for a peak depth of {peak_depth}"
        );
    }

    fn drain_keys(q: &mut CalendarQueue<u64>, now: u64) -> Vec<(u64, u64, NodeId)> {
        std::iter::from_fn(|| q.pop_at_or_before(now))
            .map(|p| p.cmp_key())
            .collect()
    }

    #[test]
    fn pops_by_arrival_then_seq_then_receiver() {
        // The queue's total order is (arrival, seq, receiver): earlier
        // arrivals first, ties broken by global send index, and — though a
        // live engine never produces two events with one seq — the receiver
        // keeps even hand-crafted duplicates deterministic.
        let mut q = CalendarQueue::new(2);
        for (a, s, r) in [(5, 9, 1), (5, 2, 9), (3, 7, 0), (5, 2, 3), (1, 50, 4)] {
            q.push(pending(a, s, r));
        }
        assert_eq!(
            drain_keys(&mut q, u64::MAX),
            vec![
                (1, 50, NodeId(4)),
                (3, 7, NodeId(0)),
                (5, 2, NodeId(3)),
                (5, 2, NodeId(9)),
                (5, 9, NodeId(1)),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_respects_the_now_cutoff() {
        let mut q = CalendarQueue::new(10);
        q.push(pending(15, 0, 0));
        q.push(pending(5, 1, 0));
        assert_eq!(q.pop_at_or_before(10).unwrap().arrival, 5);
        assert!(q.pop_at_or_before(10).is_none(), "15 is after the cutoff");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(15).unwrap().arrival, 15);
    }

    #[test]
    fn a_far_event_pops_before_a_later_near_one() {
        // An event far ahead is pushed, the queue is polled up to just
        // before it, and a *later* event is pushed. The far one pops first.
        let mut q = CalendarQueue::new(1);
        q.push(pending(0, 0, 0));
        q.push(pending(65, 1, 0));
        assert_eq!(q.pop_at_or_before(0).unwrap().seq, 0);
        assert!(q.pop_at_or_before(64).is_none());
        q.push(pending(66, 2, 0));
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 1);
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 2);
    }

    #[test]
    fn late_pushes_pop_first() {
        let mut q = CalendarQueue::new(1);
        q.push(pending(100, 0, 0));
        assert!(q.pop_at_or_before(99).is_none());
        q.push(pending(3, 1, 0)); // behind everything polled so far
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 1);
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 0);
    }

    #[test]
    fn saturating_far_future_arrivals_never_wrap() {
        let mut q = CalendarQueue::new(1000);
        q.push(pending(u64::MAX, 7, 0));
        q.push(pending(0, 1, 0));
        assert_eq!(q.pop_at_or_before(0).unwrap().seq, 1);
        assert!(q.pop_at_or_before(u64::MAX - 1).is_none());
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 7);
    }

    #[test]
    fn width_one_saturated_arrival_pops_instead_of_hanging() {
        // Regression: at width 1 an arrival of u64::MAX lives in bucket
        // u64::MAX, which once collided with an empty-overflow sentinel and
        // a horizon check that saturates at u64::MAX —
        // pop_at_or_before(u64::MAX) spun forever.
        let mut q = CalendarQueue::new(1);
        q.push(pending(u64::MAX, 0, 0));
        assert!(q.pop_at_or_before(u64::MAX - 1).is_none());
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 0);
        assert!(q.is_empty());
        assert!(q.pop_at_or_before(u64::MAX).is_none());
    }

    #[test]
    fn width_one_pops_in_order_near_saturation() {
        // Buckets u64::MAX - 2 and u64::MAX, both far from anything polled:
        // the first pops first and the second is still reached.
        let mut q = CalendarQueue::new(1);
        q.push(pending(u64::MAX, 1, 0));
        q.push(pending(u64::MAX - 2, 0, 0));
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 0);
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_near_saturation_keeps_the_not_yet_due_max_arrival() {
        // Regression: the bulk-move bucket end was computed saturating then
        // minus one, clamping the last bucket's end to u64::MAX - 1, so
        // drain_at_or_before(u64::MAX - 1) moved an arrival = u64::MAX
        // event one tick early. Width 1000 exercises the saturated-multiply
        // arm (both events share the final partial bucket).
        let mut q = CalendarQueue::new(1000);
        q.push(pending(u64::MAX, 0, 0));
        q.push(pending(u64::MAX - 1, 1, 0));
        let mut out = Vec::new();
        q.drain_at_or_before(u64::MAX - 1, &mut out);
        assert_eq!(out.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![1]);
        assert_eq!(q.len(), 1);
        out.clear();
        q.drain_at_or_before(u64::MAX, &mut out);
        assert_eq!(out.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_at_width_one_respects_the_saturated_bucket_end() {
        // The saturated-add arm: at width 1 the final bucket IS u64::MAX,
        // whose inclusive end is u64::MAX, not u64::MAX - 1.
        let mut q = CalendarQueue::new(1);
        q.push(pending(u64::MAX, 0, 0));
        let mut out = Vec::new();
        q.drain_at_or_before(u64::MAX - 1, &mut out);
        assert!(out.is_empty(), "arrival u64::MAX is not yet due");
        q.drain_at_or_before(u64::MAX, &mut out);
        assert_eq!(out.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_moves_exactly_the_due_set() {
        let mut q = CalendarQueue::new(4);
        let mut reference = Vec::new();
        for (a, s) in [(0, 0), (3, 1), (4, 2), (7, 3), (8, 4), (1000, 5)] {
            q.push(pending(a, s, 0));
            reference.push((a, s));
        }
        let mut out = Vec::new();
        q.drain_at_or_before(7, &mut out);
        let mut got: Vec<u64> = out.iter().map(|p| p.seq).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 2);
        // The remainder still pops in key order.
        assert_eq!(
            drain_keys(&mut q, u64::MAX)
                .iter()
                .map(|k| k.1)
                .collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn equal_keys_compare_equal_across_payloads() {
        let a = pending(4, 4, 4);
        let b = Pending {
            arrival: 4,
            seq: 4,
            env: Envelope::new(NodeId(7), NodeId(4), 3, 999),
        };
        assert!(a == b, "ordering ignores everything but the key");
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }
}
