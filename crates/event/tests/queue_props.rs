//! Byte-identity properties of the calendar queue and the engine's fates.
//!
//! * the calendar queue must pop the exact `(arrival, seq, receiver)` order
//!   of a reference `BinaryHeap<Pending>`, and drain exactly the heap's due
//!   set, under dense, sparse, far-future and duplicate-arrival
//!   distributions, at thread caps 1/2/4;
//! * an engine run's recorded trace must equal the fates predicted by
//!   one-shot [`NetModel::route`] calls and the delivery-round rule,
//!   message by message.

use std::collections::BinaryHeap;

use proptest::{prop_assert, proptest, ProptestConfig, Strategy, TestRng};
use tsa_event::queue::{CalendarQueue, Pending};
use tsa_event::{
    EventConfig, EventSimulator, LatencyModel, MessageFate, NetModel, TICKS_PER_ROUND,
};
use tsa_sim::prelude::*;
use tsa_sim::SimConfig;

/// Which arrival-tick distribution a generated workload draws from.
#[derive(Clone, Copy, Debug)]
enum Dist {
    /// Deltas within a couple of bucket widths: every event lands in one of
    /// the next few buckets.
    Dense,
    /// Few events, deltas spread over ~100 buckets: most buckets in between
    /// stay empty.
    Sparse,
    /// A mix of near deltas and absolute far-future arrivals (up to
    /// `u64::MAX`): far buckets must wait behind the near ones, and still pop
    /// in order once due.
    FarFuture,
    /// Deltas from a 3-value set so many events share one arrival tick, and
    /// occasional duplicated `(arrival, seq)` pairs with distinct receivers
    /// exercise the receiver tie-break.
    DuplicateArrival,
}

/// One generated workload: a bucket width and, per boundary, a batch of
/// `(arrival, seq, receiver)` pushes and whether the boundary drains its due
/// events (as the engine does) or pops them one by one.
#[derive(Clone, Debug)]
struct Workload {
    width: u64,
    batches: Vec<(bool, Vec<Push>)>,
}

/// One push: `(arrival, seq, receiver)`.
type Push = (u64, u64, u64);

struct WorkloadTree {
    dist: Dist,
}

impl Strategy for WorkloadTree {
    type Value = Workload;

    fn generate(&self, rng: &mut TestRng) -> Workload {
        let width = [1u64, 7, 250, 1000][(rng.next_u64() % 4) as usize];
        let rounds = 4 + (rng.next_u64() % 12);
        let mut seq = 0u64;
        let mut batches = Vec::new();
        for r in 0..rounds {
            let now = r * width;
            let count = match self.dist {
                Dist::Sparse => rng.next_u64() % 3,
                _ => rng.next_u64() % 24,
            };
            let mut batch = Vec::new();
            for _ in 0..count {
                let arrival = match self.dist {
                    Dist::Dense => now + rng.next_u64() % (2 * width + 1),
                    Dist::Sparse => now + rng.next_u64() % (100 * width + 1),
                    Dist::FarFuture => {
                        if rng.next_u64().is_multiple_of(4) {
                            // Absolute far future, including the saturation
                            // point itself.
                            u64::MAX - rng.next_u64() % 1000
                        } else {
                            now + rng.next_u64() % (70 * width + 1)
                        }
                    }
                    Dist::DuplicateArrival => {
                        now + [0, width, 2 * width][(rng.next_u64() % 3) as usize]
                    }
                };
                let to = rng.next_u64() % 8;
                batch.push((arrival, seq, to));
                if matches!(self.dist, Dist::DuplicateArrival) && rng.next_u64().is_multiple_of(5) {
                    // Same (arrival, seq), different receiver: the final
                    // tie-break level, which a live engine never produces
                    // but the order must still be total over.
                    batch.push((arrival, seq, (to + 1) % 8));
                }
                seq += 1;
            }
            batches.push((rng.next_u64().is_multiple_of(2), batch));
        }
        Workload { width, batches }
    }
}

fn pending(arrival: u64, seq: u64, to: u64) -> Pending<u64> {
    Pending {
        arrival,
        seq,
        env: Envelope::new(NodeId(0), NodeId(to), 0, 0),
    }
}

/// Drives the calendar queue and a reference heap through the identical
/// push/boundary schedule, asserting that the popped keys match one for one
/// and that a drain moves exactly the heap's due set, and returns the full
/// delivery order (a drained set in key order).
fn drive(w: &Workload) -> Result<Vec<(u64, u64, NodeId)>, String> {
    let mut cal = CalendarQueue::new(w.width);
    let mut heap: BinaryHeap<Pending<u64>> = BinaryHeap::new();
    let mut order = Vec::new();
    let pop = |cal: &mut CalendarQueue<u64>,
               heap: &mut BinaryHeap<Pending<u64>>,
               now: u64,
               order: &mut Vec<(u64, u64, NodeId)>|
     -> Result<(), String> {
        loop {
            let c = cal.pop_at_or_before(now);
            let h = if heap.peek().is_some_and(|p| p.arrival <= now) {
                heap.pop()
            } else {
                None
            };
            match (c, h) {
                (None, None) => return Ok(()),
                (Some(a), Some(b)) => {
                    if a.cmp_key() != b.cmp_key() {
                        return Err(format!(
                            "pop order diverged at now={now}: calendar {:?}, heap {:?}",
                            a.cmp_key(),
                            b.cmp_key()
                        ));
                    }
                    order.push(a.cmp_key());
                }
                (c, h) => {
                    return Err(format!(
                        "due-set diverged at now={now}: calendar {:?}, heap {:?}",
                        c.map(|p| p.cmp_key()),
                        h.map(|p| p.cmp_key())
                    ))
                }
            }
        }
    };
    let drain = |cal: &mut CalendarQueue<u64>,
                 heap: &mut BinaryHeap<Pending<u64>>,
                 now: u64,
                 order: &mut Vec<(u64, u64, NodeId)>|
     -> Result<(), String> {
        let mut drained = Vec::new();
        cal.drain_at_or_before(now, &mut drained);
        let mut got: Vec<_> = drained.iter().map(Pending::cmp_key).collect();
        got.sort_unstable();
        let mut due = Vec::new();
        while heap.peek().is_some_and(|p| p.arrival <= now) {
            due.push(heap.pop().expect("peeked").cmp_key());
        }
        if got != due {
            return Err(format!(
                "drained set diverged at now={now}: calendar {got:?}, heap {due:?}"
            ));
        }
        order.extend(due);
        Ok(())
    };
    for (r, (drains, batch)) in w.batches.iter().enumerate() {
        let now = (r as u64).saturating_mul(w.width);
        for &(arrival, seq, to) in batch {
            cal.push(pending(arrival, seq, to));
            heap.push(pending(arrival, seq, to));
        }
        if cal.len() != heap.len() {
            return Err(format!("len diverged: {} vs {}", cal.len(), heap.len()));
        }
        if *drains {
            drain(&mut cal, &mut heap, now, &mut order)?;
        } else {
            pop(&mut cal, &mut heap, now, &mut order)?;
        }
    }
    // Whatever remains must still pop in heap order.
    pop(&mut cal, &mut heap, u64::MAX, &mut order)?;
    if !cal.is_empty() || !heap.is_empty() {
        return Err("a queue kept events past the final drain".to_string());
    }
    Ok(order)
}

fn check_dist(w: &Workload) -> Result<(), String> {
    let baseline = drive(w)?;
    // The queue is sequential state; an ambient thread cap (as imposed on
    // sweep workers) must not perturb a single popped key.
    for cap in [1usize, 2, 4] {
        let capped = rayon::with_thread_cap(cap, || drive(w))?;
        if capped != baseline {
            return Err(format!("pop order diverged under thread cap {cap}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_workloads_pop_exactly_like_a_heap(w in WorkloadTree { dist: Dist::Dense }) {
        if let Err(e) = check_dist(&w) {
            prop_assert!(false, "{} ({:?})", e, w);
        }
    }

    #[test]
    fn sparse_workloads_pop_exactly_like_a_heap(w in WorkloadTree { dist: Dist::Sparse }) {
        if let Err(e) = check_dist(&w) {
            prop_assert!(false, "{} ({:?})", e, w);
        }
    }

    #[test]
    fn far_future_workloads_pop_exactly_like_a_heap(w in WorkloadTree { dist: Dist::FarFuture }) {
        if let Err(e) = check_dist(&w) {
            prop_assert!(false, "{} ({:?})", e, w);
        }
    }

    #[test]
    fn duplicate_arrivals_pop_exactly_like_a_heap(
        w in WorkloadTree { dist: Dist::DuplicateArrival },
    ) {
        if let Err(e) = check_dist(&w) {
            prop_assert!(false, "{} ({:?})", e, w);
        }
    }
}

/// The flood protocol the engine tests pin traces with.
#[derive(Default)]
struct Ping;

impl Process for Ping {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[Envelope<u64>]) {
        let me = ctx.id().raw();
        ctx.send(NodeId(me.wrapping_add(1)), me);
        if me > 0 {
            ctx.send(NodeId(me - 1), me);
        }
    }
}

/// Every fate the engine records must equal the one `route` predicts for
/// its sequence number, filed under the delivery-round rule.
#[test]
fn recorded_traces_match_one_shot_route_predictions() {
    let seed = 42;
    let net = NetModel {
        latency: LatencyModel::uniform(100, 3500),
        jitter: 400,
        loss: 0.1,
    };
    let config = EventConfig::new(SimConfig::default().with_seed(seed), net);
    let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping));
    sim.record_trace();
    sim.seed_nodes(12);
    sim.run(8);
    let sent = sim.net_stats().sent;
    assert!(sent > 64, "the run sends enough copies to compare");
    // Reconstruct each seq's send round from the per-round send counts
    // (sequence numbers are assigned in send order).
    let mut send_round = Vec::with_capacity(sent as usize);
    for row in sim.metrics().rounds() {
        send_round.extend(std::iter::repeat_n(row.round, row.messages_sent));
    }
    assert_eq!(send_round.len() as u64, sent);
    let trace = sim.take_trace().unwrap();
    for seq in 0..sent {
        let t = send_round[seq as usize];
        let expected = match net.route(seed, seq) {
            None => MessageFate::Lost,
            Some(delay) => MessageFate::Delivered {
                at_round: (t * TICKS_PER_ROUND + delay)
                    .div_ceil(TICKS_PER_ROUND)
                    .max(t + 1),
            },
        };
        assert_eq!(
            trace.fate(seq),
            Some(expected),
            "engine fate for seq {seq} diverged from the one-shot route"
        );
    }
}
