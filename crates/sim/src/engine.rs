//! The lockstep delivery: the paper's synchronous model.
//!
//! Every message sent in round `t` is delivered at the start of round
//! `t + 1` to its receiver if that node is still in the network, and dropped
//! otherwise. [`Lockstep`] is the [`Delivery`] that does exactly that for a
//! [`World`], and [`Simulator`] is the world it drives.
//!
//! # One envelope buffer, scattered at send time
//!
//! Round `t`'s inboxes are fully consumed by round `t`'s compute phase, so
//! the buffer that held them is free when round `t`'s sends are collected:
//! the sends are grouped by receiver *as they are sent* and written straight
//! into it, as round `t + 1`'s inboxes. Every message is moved exactly once,
//! from its sender's outbox into its receiver's range.
//!
//! * `send` (once per node, id order) moves nothing. The world has already
//!   resolved each receiver's slot in the pass that stamps the distinct
//!   edges; `send` counts the messages per slot and keeps the slots (4 B a
//!   message), and leaves the outbox as it is.
//! * `flush_sends` (once per round) prefix-sums the counts into per-slot
//!   ranges and drains every outbox, in id order, through per-slot write
//!   cursors: a stable counting scatter. *Stable* is load-bearing: slots are
//!   visited in id order, so every inbox lists its messages in global send
//!   order — exactly what a stable sort by receiver would produce, without a
//!   sort's merge scratch.
//! * `deliver` moves no message and is O(slots): the ranges already are the
//!   inboxes. A node that departs at `t + 1` had its range removed by
//!   `on_depart` (the envelopes stay behind in the buffer, unread, until the
//!   next scatter overwrites it) and its length is charged to round
//!   `t + 1`'s `dropped`; a node that joins gets an empty range.
//!
//! **Not a member at send time.** A receiver with no slot when the message
//! is sent — never assigned, `NodeId(u64::MAX)`, departed, or an identifier
//! the adversary will only hand out next round — has no range to be counted
//! into. Those messages wait in a side list (`late`), in send order;
//! `deliver` resolves it against round `t + 1`'s membership, appends the
//! arrivals behind the main buffer (such a receiver joined after the sends,
//! so its range is still empty) and drops the rest. Delivered and dropped
//! counts, the round they are charged to and every inbox's order are the
//! naive model's (`tests/scheduler_reference.rs`).
//!
//! **Cost per message** (64 B envelope, 48 B outbox entry): the count pass
//! rides on the edge-stamping read of the outbox and writes 4 B; the scatter
//! reads 48 B + 4 B and writes 64 B — about 170 B of memory traffic with the
//! write-allocate, where copying into a second buffer and scattering at
//! delivery cost about 370 B. Nothing is allocated once the buffer has met
//! the traffic's high-water mark.

use std::ops::Range;

use tsa_obs::ObsHandle;

use crate::config::SimConfig;
use crate::ids::{NodeId, Round};
use crate::message::Envelope;
use crate::node::Process;
use crate::slot_index::{SlotIndex, NO_SLOT};
use crate::world::{Delivery, PhaseSpans, World};

/// The round-synchronous simulator: a [`World`] whose messages take exactly
/// one round.
pub type Simulator<P, A> = World<P, A, Lockstep<<P as Process>::Msg>>;

/// The lockstep delivery policy. See the module docs.
pub struct Lockstep<M> {
    /// The one envelope buffer: the messages sent last round, grouped by the
    /// slot their receiver owned when they were sent, send order kept within
    /// each group.
    inboxes: Vec<Envelope<M>>,
    /// Slot `i`'s inbox is `inboxes[ranges[i]]`. Envelopes outside every
    /// range were addressed to a node that has since departed.
    ranges: Vec<Range<usize>>,
    /// Per slot: while a round's sends are announced, how many are addressed
    /// to it; during the scatter, its write cursor. Zero in between.
    cursors: Vec<usize>,
    /// The receiver slot (or [`NO_SLOT`]) of every message announced this
    /// round, in send order.
    route: Vec<u32>,
    /// Last round's messages whose receiver had no slot at send time, each
    /// with its position in the list (send order).
    late: Vec<(usize, Envelope<M>)>,
    /// Envelopes of `inboxes` whose range `on_depart` removed since the last
    /// `deliver`.
    stranded: usize,
}

impl<M> Lockstep<M> {
    /// Number of messages currently in flight (sent last round, not yet
    /// delivered).
    pub fn in_flight_count(&self) -> usize {
        self.inboxes.len() + self.late.len()
    }

    /// Resolves the side list against the current membership: arrivals are
    /// appended behind the main buffer, grouped per receiver in send order;
    /// the rest are dropped. Returns how many arrived.
    fn deliver_late(&mut self, index: &SlotIndex) -> usize {
        let slot_of = |env: &Envelope<M>| index.slot(env.to).unwrap_or(usize::MAX);
        // The key is unique, so the in-place unstable sort is a stable
        // grouping.
        self.late
            .sort_unstable_by_key(|(seq, env)| (slot_of(env), *seq));
        let arrived = self
            .late
            .partition_point(|(_, env)| slot_of(env) != usize::MAX);
        let mut end = self.inboxes.len();
        for run in self.late[..arrived].chunk_by(|a, b| a.1.to == b.1.to) {
            let range = &mut self.ranges[slot_of(&run[0].1)];
            debug_assert!(
                Range::is_empty(range),
                "a late receiver joined after the sends"
            );
            *range = end..end + run.len();
            end += run.len();
        }
        // Within the capacity `flush_sends` reserved.
        self.inboxes
            .extend(self.late.drain(..arrived).map(|(_, env)| env));
        self.late.clear();
        arrived
    }
}

impl<M: Send + Sync> Delivery<M> for Lockstep<M> {
    type Config = SimConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "sim.churn",
        deliver: "sim.deliver",
        send: "sim.scatter",
    };

    fn new(config: SimConfig) -> (SimConfig, Self) {
        let lockstep = Lockstep {
            inboxes: Vec::new(),
            ranges: Vec::new(),
            cursors: Vec::new(),
            route: Vec::new(),
            late: Vec::new(),
            stranded: 0,
        };
        (config, lockstep)
    }

    fn on_join(&mut self, _id: NodeId) {
        self.ranges.push(0..0);
        self.cursors.push(0);
    }

    fn on_depart(&mut self, _id: NodeId, slot: usize, _t: Round) {
        self.stranded += self.ranges.remove(slot).len();
        self.cursors.remove(slot);
    }

    /// The ranges `flush_sends` laid out already are the inboxes; what is
    /// left to do is to charge the departed receivers' envelopes to this
    /// round and to resolve the (normally empty) side list.
    fn deliver(&mut self, _t: Round, index: &SlotIndex) -> (usize, usize) {
        let stranded = std::mem::take(&mut self.stranded);
        let late = self.late.len();
        let arrived = self.deliver_late(index);
        (self.inboxes.len() - stranded, stranded + late - arrived)
    }

    fn inbox(&self, slot: usize) -> &[Envelope<M>] {
        &self.inboxes[self.ranges[slot].clone()]
    }

    /// Counts the sends per receiver slot and keeps the slots; the messages
    /// stay in `out` until [`flush_sends`](Delivery::flush_sends).
    fn send(
        &mut self,
        _from: NodeId,
        _t: Round,
        out: &mut Vec<(NodeId, M)>,
        to_slots: &[u32],
        _obs: &ObsHandle,
    ) -> usize {
        debug_assert_eq!(out.len(), to_slots.len());
        for &slot in to_slots {
            if slot != NO_SLOT {
                self.cursors[slot as usize] += 1;
            }
        }
        self.route.extend_from_slice(to_slots);
        0
    }

    /// The stable counting scatter: prefix-sum the per-slot counts into
    /// ranges, then move every message from its sender's outbox to its
    /// receiver's write cursor, overwriting the inboxes the compute phase
    /// has consumed.
    fn flush_sends<'a>(
        &mut self,
        t: Round,
        outboxes: impl Iterator<Item = (NodeId, &'a mut Vec<(NodeId, M)>)>,
    ) where
        M: 'a,
    {
        let mut resolved = 0usize;
        for (range, cursor) in self.ranges.iter_mut().zip(self.cursors.iter_mut()) {
            let count = std::mem::replace(cursor, resolved);
            *range = resolved..resolved + count;
            resolved += count;
        }
        let unresolved = self.route.len() - resolved;
        self.inboxes.clear();
        // Room for the late arrivals too, so `deliver` never reallocates.
        self.inboxes.reserve(resolved + unresolved);
        let spare = self.inboxes.spare_capacity_mut();
        let mut route = self.route.iter();
        let mut sent = 0usize;
        for (from, out) in outboxes {
            sent += out.len();
            for ((to, payload), &slot) in out.drain(..).zip(route.by_ref()) {
                let env = Envelope::new(from, to, t, payload);
                if slot == NO_SLOT {
                    self.late.push((self.late.len(), env));
                } else {
                    let cursor = &mut self.cursors[slot as usize];
                    spare[*cursor].write(env);
                    *cursor += 1;
                }
            }
        }
        debug_assert_eq!(sent, resolved + unresolved, "every announced send");
        debug_assert_eq!(self.late.len(), unresolved);
        // Checked in release builds too: it is what `set_len` rests on, it
        // spans two trait calls, and it costs O(slots) a round.
        assert!(
            self.ranges
                .iter()
                .zip(self.cursors.iter())
                .all(|(range, &cursor)| cursor == range.end),
            "the outboxes are not the sends that were announced"
        );
        // SAFETY: the prefix sums partition 0..resolved into disjoint
        // per-slot ranges. Each cursor started at its range's start, moved
        // one element per write and — asserted above — stopped at its
        // range's end, so every element of 0..resolved was written exactly
        // once and all `resolved` spare elements are initialized.
        unsafe {
            self.inboxes.set_len(resolved);
        }
        self.cursors.fill(0);
        self.route.clear();
    }

    fn end_round(&mut self, _t: Round, _obs: &ObsHandle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Adversary, NullAdversary};
    use crate::churn::{ChurnPlan, ChurnRules, JoinPlan};
    use crate::knowledge::{KnowledgeView, Lateness};
    use crate::node::{Ctx, Process};

    /// A protocol where every node floods a counter to the two numerically
    /// adjacent identifiers each round.
    #[derive(Default)]
    struct Ping {
        heard: Vec<u64>,
    }

    impl Process for Ping {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                self.heard.push(env.payload);
            }
            let me = ctx.id().raw();
            let round = ctx.round();
            ctx.send(NodeId(me.wrapping_add(1)), round);
            if me > 0 {
                ctx.send(NodeId(me - 1), round);
            }
        }
        fn state_digest(&self) -> u64 {
            self.heard.len() as u64
        }
    }

    fn sim(parallel: bool) -> Simulator<Ping, NullAdversary> {
        let config = SimConfig::default().with_seed(1).with_parallel(parallel);
        Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()))
    }

    #[test]
    fn messages_take_exactly_one_round() {
        let mut s = sim(false);
        s.seed_nodes(4);
        s.step();
        // Round 0: everyone sent, nobody received yet.
        assert_eq!(s.metrics().rounds()[0].messages_delivered, 0);
        assert!(s.in_flight_count() > 0);
        s.step();
        assert!(s.metrics().rounds()[1].messages_delivered > 0);
        // Node 1 heard from node 0 and node 2.
        assert_eq!(s.node(NodeId(1)).unwrap().heard.len(), 2);
    }

    #[test]
    fn steady_state_rounds_do_not_grow_scratch_buffers() {
        // After a warm-up at a fixed node count, the reusable buffers must
        // have reached their steady-state capacities: further rounds reuse
        // them instead of growing them.
        let config = SimConfig::default()
            .with_seed(3)
            .with_history_window(4)
            .with_parallel(false);
        let mut s = Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
        s.seed_nodes(32);
        s.run(3);
        let caps = |s: &Simulator<Ping, NullAdversary>| {
            (
                s.inboxes.capacity(),
                s.late.capacity(),
                s.route.capacity(),
                (s.ranges.capacity(), s.cursors.capacity()),
                s.outbox_capacity(),
            )
        };
        let warm = caps(&s);
        s.run(20);
        assert_eq!(caps(&s), warm, "steady-state rounds must not reallocate");
        assert_eq!(s.records().len(), 4, "window bounds the archive");
        // One envelope-sized buffer holds the round's traffic; the only
        // other envelope storage is the side list, which holds the one
        // message a round that the last node addresses past the end.
        assert_eq!(s.in_flight_count(), 2 * 32 - 1);
        assert_eq!(s.inboxes.len(), 2 * 32 - 2);
        assert_eq!(s.late.len(), 1);
        assert!(s.late.capacity() <= 4, "{}", s.late.capacity());
    }

    #[test]
    #[should_panic(expected = "stopped from inside")]
    fn run_until_stopped_starts_running() {
        // `run(u64::MAX)` means "until something stops it": the history must
        // not be reserved for all of it up front (a capacity overflow before
        // the first round).
        struct Fuse;
        impl Process for Fuse {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
                assert!(ctx.round() < 3, "stopped from inside");
            }
        }
        let mut s = Simulator::new(SimConfig::default(), NullAdversary, Box::new(|_, _| Fuse));
        s.seed_nodes(1);
        s.run(u64::MAX);
    }

    #[test]
    fn comm_graph_records_edges() {
        let mut s = sim(false);
        s.seed_nodes(3);
        s.step();
        let g = s.comm_graph_at(0).unwrap();
        assert!(g.edges.contains(&(NodeId(0), NodeId(1))));
        assert!(g.edges.contains(&(NodeId(1), NodeId(0))));
        assert_eq!(g.members.len(), 3);
    }

    struct OneShotChurn;
    impl Adversary for OneShotChurn {
        fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
            if round == 2 {
                // Pick a bootstrap node that is not the one we churn out.
                let bootstrap = *view.eligible_bootstraps().last().unwrap();
                ChurnPlan {
                    departures: vec![NodeId(0)],
                    joins: vec![JoinPlan { bootstrap }],
                }
            } else {
                ChurnPlan::none()
            }
        }
    }

    #[test]
    fn churn_removes_and_adds_nodes() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(4);
        s.run(3);
        assert!(!s.member_ids().contains(&NodeId(0)), "node 0 departed");
        assert_eq!(s.node_count(), 4, "one left, one joined");
        let outcome = s.last_churn_outcome();
        assert_eq!(outcome.departed, vec![NodeId(0)]);
        assert_eq!(outcome.joined.len(), 1);
        assert!(s.joined_at(outcome.joined[0].0) == Some(2));
    }

    #[test]
    fn departed_nodes_do_not_receive_messages() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(4);
        s.run(4);
        // Messages addressed to node 0 in round 1 were dropped in round 2.
        assert!(s.metrics().rounds()[2].messages_dropped > 0);
    }

    struct GreedyChurn;
    impl Adversary for GreedyChurn {
        fn plan(&mut self, _round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
            // Try to delete every node, every round.
            ChurnPlan {
                departures: view.members().map(|(id, _)| id).collect(),
                joins: Vec::new(),
            }
        }
    }

    #[test]
    fn engine_enforces_churn_budget() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(2),
            window: 100,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, GreedyChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(10);
        s.run(5);
        assert_eq!(s.node_count(), 8, "only 2 departures fit the budget");
        assert!(s.last_churn_outcome().had_rejections());
    }

    struct FreshBootstrapChurn;
    impl Adversary for FreshBootstrapChurn {
        fn plan(&mut self, round: Round, _view: &KnowledgeView<'_>) -> ChurnPlan {
            if round == 1 {
                // Node 0 joined at round 0, so at round 1 it is too fresh to
                // bootstrap anyone (min age 2).
                ChurnPlan {
                    departures: vec![],
                    joins: vec![JoinPlan {
                        bootstrap: NodeId(0),
                    }],
                }
            } else {
                ChurnPlan::none()
            }
        }
    }

    #[test]
    fn engine_enforces_bootstrap_age() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(100),
            window: 10,
            min_bootstrap_age: 2,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(
            config,
            FreshBootstrapChurn,
            Box::new(|_, _| Ping::default()),
        );
        s.seed_nodes(2);
        s.run(2);
        assert_eq!(s.node_count(), 2, "join via too-fresh bootstrap rejected");
        assert_eq!(s.last_churn_outcome().rejected_joins.len(), 1);
    }

    #[test]
    fn bootstrap_phase_suppresses_churn() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(100),
            window: 10,
            bootstrap_rounds: 3,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, GreedyChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(5);
        s.run(3);
        assert_eq!(s.node_count(), 5, "no churn during the bootstrap phase");
        s.step();
        assert!(
            s.node_count() < 5,
            "churn resumes after the bootstrap phase"
        );
    }

    #[test]
    fn history_window_trims_records() {
        let config = SimConfig::default().with_history_window(3);
        let mut s = Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
        s.seed_nodes(2);
        s.run(10);
        assert_eq!(s.records().len(), 3);
        assert_eq!(s.records()[0].graph.round, 7);
        assert!(s.comm_graph_at(9).is_some());
        assert!(s.comm_graph_at(5).is_none());
    }

    #[test]
    fn sponsored_nodes_are_visible_to_their_bootstrap() {
        // Protocol that records sponsorships.
        #[derive(Default)]
        struct Sponsor {
            sponsored: Vec<NodeId>,
        }
        impl Process for Sponsor {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
                self.sponsored.extend_from_slice(ctx.sponsored());
            }
        }
        struct JoinOnce;
        impl Adversary for JoinOnce {
            fn plan(&mut self, round: Round, _v: &KnowledgeView<'_>) -> ChurnPlan {
                if round == 3 {
                    ChurnPlan {
                        departures: vec![],
                        joins: vec![JoinPlan {
                            bootstrap: NodeId(0),
                        }],
                    }
                } else {
                    ChurnPlan::none()
                }
            }
        }
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 10,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, JoinOnce, Box::new(|_, _| Sponsor::default()));
        s.seed_nodes(2);
        s.run(4);
        assert_eq!(s.node(NodeId(0)).unwrap().sponsored.len(), 1);
        assert!(s.node(NodeId(1)).unwrap().sponsored.is_empty());
    }

    #[test]
    fn lateness_config_is_respected_end_to_end() {
        // An adversary that asserts it cannot see the most recent topology.
        struct Checker;
        impl Adversary for Checker {
            fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
                if round >= 3 {
                    assert!(view.topology_at(round - 1).is_none());
                    assert!(view.topology_at(round - 2).is_some());
                }
                ChurnPlan::none()
            }
        }
        let config = SimConfig::default().with_lateness(Lateness {
            topology: 2,
            state: 50,
        });
        let mut s = Simulator::new(config, Checker, Box::new(|_, _| Ping::default()));
        s.seed_nodes(3);
        s.run(6);
    }
}
