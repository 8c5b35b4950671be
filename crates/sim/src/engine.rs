//! The lockstep delivery: the paper's synchronous model.
//!
//! Every message sent in round `t` is delivered at the start of round
//! `t + 1` to its receiver if that node is still in the network, and dropped
//! otherwise. [`Lockstep`] is the [`Delivery`] that does exactly that for a
//! [`World`], and [`Simulator`] is the world it drives.
//!
//! # Payloads once, 4-byte handles placed at send time
//!
//! What is in flight between two rounds is an **arena** of `(sender,
//! payload)` pairs — each distinct payload of the round once, as the
//! outboxes hold them — and one 4-byte **handle** into it per copy, in the
//! world's [`Inboxes`]. What `Lockstep` does differently from the other
//! deliveries is *when* it runs the world's scatter: round `t`'s inboxes are
//! consumed by round `t`'s compute phase, so round `t + 1`'s are laid out
//! while round `t`'s sends are collected. `send` counts each copy into the
//! slot its receiver owns (which the world wrote into the outbox while the
//! entry was in cache); `flush_sends` moves every outbox's payloads to the
//! arena and places the handles; `deliver` moves no message. Placing at send
//! time is what saves re-resolving every copy against the membership at
//! delivery time. The arena, not an outbox, owns a payload, so a message
//! outlives its sender.
//!
//! **Not a member at send time.** A receiver with no slot when the message
//! is sent — never assigned, `NodeId(u64::MAX)`, departed, or an identifier
//! the adversary will only hand out next round — has no inbox to be counted
//! into. Those sends wait in a [`Late`] list as `(receiver, handle)`, in
//! send order; `deliver` resolves it against round `t + 1`'s membership,
//! appends the arrivals' handles behind the placed ones (such a receiver
//! joined after the sends, so its inbox is still empty) and drops the rest.
//! Delivered and dropped counts, the round they are charged to and every
//! inbox's order are the naive model's (`tests/scheduler_reference.rs`).

use tsa_obs::ObsHandle;

use crate::config::SimConfig;
use crate::ids::{NodeId, Round};
use crate::inboxes::{Inboxes, Late};
use crate::message::Envelope;
use crate::node::{handle, Outbox, Process};
use crate::slot_index::{SlotIndex, NO_SLOT};
use crate::world::{Delivery, PhaseSpans, World};

/// The round-synchronous simulator: a [`World`] whose messages take exactly
/// one round.
pub type Simulator<P, A> = World<P, A, Lockstep<<P as Process>::Msg>>;

/// The lockstep delivery policy. See the module docs.
pub struct Lockstep<M> {
    /// The distinct payloads sent last round, each with its sender, in send
    /// order: what a handle names.
    arena: Vec<(NodeId, M)>,
    /// The round `arena` was sent in.
    sent_at: Round,
    /// Last round's sends whose receiver had no slot at send time.
    late: Late,
    /// Copies sent last round.
    in_flight: usize,
}

impl<M> Lockstep<M> {
    /// Number of messages currently in flight (sent last round, not yet
    /// delivered): copies, not distinct payloads.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight
    }
}

impl<M: Clone + Send + Sync> Delivery<M> for Lockstep<M> {
    type Config = SimConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "sim.churn",
        deliver: "sim.deliver",
        send: "sim.scatter",
    };

    fn new(config: SimConfig) -> (SimConfig, Self) {
        let lockstep = Lockstep {
            arena: Vec::new(),
            sent_at: 0,
            late: Late::default(),
            in_flight: 0,
        };
        (config, lockstep)
    }

    /// Resolves the side list against the current membership.
    fn deliver(&mut self, _t: Round, index: &SlotIndex, inboxes: &mut Inboxes) -> usize {
        self.late.settle(index, inboxes)
    }

    #[inline]
    fn envelope(&self, handle: u32, to: NodeId) -> Envelope<M> {
        let (from, payload) = &self.arena[handle as usize];
        Envelope::new(*from, to, self.sent_at, payload.clone())
    }

    /// Counts the sends per receiver slot; the messages stay in `out` until
    /// [`flush_sends`](Delivery::flush_sends).
    fn send(
        &mut self,
        _from: NodeId,
        _t: Round,
        out: &mut Outbox<M>,
        inboxes: &mut Inboxes,
        _obs: &ObsHandle,
    ) -> usize {
        for sent in &out.sends {
            if sent.slot != NO_SLOT {
                inboxes.count(sent.slot as usize);
            }
        }
        0
    }

    /// Moves every outbox's payloads into the arena and places every send's
    /// handle in its receiver's inbox, overwriting what the compute phase
    /// has consumed.
    fn flush_sends<'a>(
        &mut self,
        t: Round,
        outboxes: impl Iterator<Item = (NodeId, &'a mut Outbox<M>)>,
        _index: &SlotIndex,
        inboxes: &mut Inboxes,
    ) where
        M: 'a,
    {
        inboxes.lay_out();
        self.sent_at = t;
        self.arena.clear();
        for (from, out) in outboxes {
            let base = self.arena.len();
            self.arena
                .extend(out.payloads.drain(..).map(|payload| (from, payload)));
            for sent in out.sends.drain(..) {
                let h = handle(base + sent.payload as usize);
                if sent.slot == NO_SLOT {
                    self.late.push(sent.to, h);
                } else {
                    inboxes.place(sent.slot as usize, h);
                }
            }
        }
        inboxes.seal();
        self.in_flight = inboxes.pending() + self.late.len();
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
    /// adjacent identifiers each round, and holds every envelope it is handed
    /// to the metadata the model promises.
    #[derive(Default)]
    struct Ping {
        heard: Vec<(NodeId, u64)>,
    }

    impl Process for Ping {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                assert_eq!(env.to, ctx.id(), "an envelope for somebody else");
                assert_eq!(env.sent_at + 1, ctx.round(), "not sent last round");
                self.heard.push((env.from, env.payload));
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
                (s.arena.capacity(), s.late.capacity()),
                s.inboxes().capacity(),
                s.compute_buffer_capacities(),
            )
        };
        let warm = caps(&s);
        s.run(20);
        assert_eq!(caps(&s), warm, "steady-state rounds must not reallocate");
        assert_eq!(s.records().len(), 4, "window bounds the archive");
        // A payload per distinct payload and a handle per copy hold the
        // round's traffic; the side list holds the one handle a round that
        // the last node addresses past the end.
        assert_eq!(s.in_flight_count(), 2 * 32 - 1);
        assert_eq!(s.inboxes().pending(), 2 * 32 - 2);
        assert_eq!(s.arena.len(), 2 * 32 - 1);
        assert_eq!(s.late.len(), 1);
        assert!(s.late.capacity() <= 4, "{}", s.late.capacity());
        let (_, _, inbox_bufs) = s.compute_buffer_capacities();
        assert_eq!(inbox_bufs.len(), 1, "one buffer per compute worker");
    }

    #[test]
    fn shared_payloads_are_in_flight_once_however_many_copies() {
        struct Town;
        impl Process for Town {
            type Msg = u64;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
                let me = ctx.id().raw();
                assert!(inbox.iter().all(|env| env.payload == env.from.raw()));
                ctx.broadcast((0..8).map(NodeId), me);
            }
        }
        let mut s = Simulator::new(SimConfig::default(), NullAdversary, Box::new(|_, _| Town));
        s.seed_nodes(8);
        s.run(2);
        assert_eq!(s.in_flight_count(), 8 * 8, "copies are what is counted");
        assert_eq!((s.arena.len(), s.inboxes().pending()), (8, 8 * 8));
        assert_eq!(s.metrics().rounds()[1].messages_delivered, 8 * 8);
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

    fn one_shot_churn() -> Simulator<Ping, OneShotChurn> {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(4);
        s
    }

    #[test]
    fn churn_removes_and_adds_nodes() {
        let mut s = one_shot_churn();
        s.run(3);
        assert!(!s.member_ids().contains(&NodeId(0)), "node 0 departed");
        assert_eq!(s.node_count(), 4, "one left, one joined");
        let outcome = s.last_churn_outcome();
        assert_eq!(outcome.departed, vec![NodeId(0)]);
        assert_eq!(outcome.joined.len(), 1);
        assert!(s.joined_at(outcome.joined[0].0) == Some(2));
    }

    #[test]
    fn late_arrivals_are_materialized_like_any_other_message() {
        // Node 3 writes to the identifier after its own every round; in
        // round 2 that identifier is handed out, and the joiner's first
        // inbox is the message sent before it existed — with the receiver
        // and send round `Ping` insists on.
        let mut s = one_shot_churn();
        s.run(2);
        assert_eq!(s.late.len(), 1, "3 → 4 waits in the side list");
        s.step();
        assert_eq!(s.node(NodeId(4)).unwrap().heard, [(NodeId(3), 1)]);
        assert!(s.late.receivers().all(|to| to != NodeId(4)));
    }

    #[test]
    fn a_message_outlives_its_sender() {
        // Node 0 sends in round 1 and is churned out at the start of round
        // 2: what it sent is delivered all the same, out of the arena.
        let mut s = one_shot_churn();
        s.run(3);
        assert!(s.node(NodeId(0)).is_none(), "the sender is gone");
        let heard = &s.node(NodeId(1)).unwrap().heard;
        assert_eq!(heard[heard.len() - 2..], [(NodeId(0), 1), (NodeId(2), 1)]);
    }

    #[test]
    fn departed_nodes_do_not_receive_messages() {
        let mut s = one_shot_churn();
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
