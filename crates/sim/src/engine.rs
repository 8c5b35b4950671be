//! The lockstep delivery: the paper's synchronous model.
//!
//! Every message sent in round `t` is delivered at the start of round
//! `t + 1` to its receiver if that node is still in the network, and dropped
//! otherwise. [`Lockstep`] is the [`Delivery`] that does exactly that for a
//! [`World`], and [`Simulator`] is the world it drives.
//!
//! That is the world's own placement rule with nothing injected: `send`
//! keeps every copy in its outbox, nothing is due ahead of them, and
//! `deliver` only settles the late list of the world's [`InFlight`] layout
//! (its module docs have the rule). Delivered and dropped counts, the round
//! they are charged to and every inbox's order are the naive model's
//! (`tests/scheduler_reference.rs`).

use crate::config::SimConfig;
use crate::ids::Round;
use crate::in_flight::InFlight;
use crate::slot_index::SlotIndex;
use crate::world::{Delivery, PhaseSpans, World};

/// The round-synchronous simulator: a [`World`] whose messages take exactly
/// one round.
pub type Simulator<P, A> = World<P, A, Lockstep>;

/// The lockstep delivery policy. See the module docs.
pub struct Lockstep;

impl<M> Delivery<M> for Lockstep {
    type Config = SimConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "sim.churn",
        deliver: "sim.deliver",
        send: "sim.scatter",
    };

    fn new(config: SimConfig) -> (SimConfig, Self) {
        (config, Lockstep)
    }

    fn deliver(&mut self, _t: Round, index: &SlotIndex, in_flight: &mut InFlight<M>) -> usize {
        in_flight.settle(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Adversary, NullAdversary};
    use crate::churn::{ChurnPlan, ChurnRules, JoinPlan};
    use crate::ids::NodeId;
    use crate::knowledge::{KnowledgeView, Lateness};
    use crate::message::Envelope;
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
        assert!(s.in_flight().due() > 0);
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
            (s.in_flight().capacity(), s.compute_buffer_capacities())
        };
        let warm = caps(&s);
        s.run(20);
        assert_eq!(caps(&s), warm, "steady-state rounds must not reallocate");
        assert_eq!(s.records().len(), 4, "window bounds the archive");
        // A payload per distinct payload and a handle per copy hold the
        // round's traffic; the side list holds the one handle a round that
        // the last node addresses past the end.
        assert_eq!(s.in_flight().due(), 2 * 32 - 1);
        let in_flight = s.in_flight();
        assert_eq!(in_flight.pending(), 2 * 32 - 2);
        assert_eq!(in_flight.arena().len(), 2 * 32 - 1);
        assert_eq!(in_flight.late().count(), 1);
        let late_capacity = in_flight.capacity()[4];
        assert!(late_capacity <= 4, "{late_capacity}");
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
        assert_eq!(s.in_flight().due(), 8 * 8, "copies are what is counted");
        let in_flight = s.in_flight();
        assert_eq!((in_flight.arena().len(), in_flight.pending()), (8, 8 * 8));
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
        assert_eq!(
            s.in_flight().late().count(),
            1,
            "3 → 4 waits in the late list"
        );
        s.step();
        assert_eq!(s.node(NodeId(4)).unwrap().heard, [(NodeId(3), 1)]);
        assert!(s.in_flight().late().all(|to| to != NodeId(4)));
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
