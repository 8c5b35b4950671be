//! # tsa-net — the overlay on a real transport
//!
//! The round engine and the event engine prove the two-steps-ahead
//! maintenance protocol correct under controlled schedulers; this crate runs
//! the *same unmodified node logic* ([`Process`](tsa_sim::Process))
//! over real in-process sockets, and bounds the wall-clock nondeterminism it
//! introduces with a deterministic twin:
//!
//! * [`codec`] — length-prefixed frames in each payload's own fixed
//!   little-endian layout (the [`Wire`] trait): deterministic encoding,
//!   incremental partial-read decoding, and hostile-input rejection (size
//!   bounds, bounds-checked reads, unknown tags and trailing bytes refused,
//!   no panics);
//! * [`NetRunner`] — the loopback-TCP runtime: one connection per member, a
//!   single poller thread, wall-clock rounds of a configured duration, and
//!   churn through the shared [`tsa_sim::apply_churn_plan`] arbiter;
//! * every message's fate is recorded in a
//!   [`MessageTrace`](tsa_event::MessageTrace); replaying the trace in the
//!   [`EventSimulator`](tsa_event::EventSimulator) reproduces the transport
//!   run inside the deterministic model, which is what the differential twin
//!   tests in `tsa-core` verify.
//!
//! ```
//! use std::time::Duration;
//! use tsa_net::{NetConfig, NetRunner};
//! use tsa_sim::prelude::*;
//!
//! // A trivial protocol: every node pings node 0 each activation.
//! struct Pinger;
//! impl Process for Pinger {
//!     type Msg = u64;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[Envelope<u64>]) {
//!         ctx.send(NodeId(0), ctx.round());
//!     }
//! }
//!
//! let config = NetConfig::new(SimConfig::default().with_seed(7))
//!     .with_round_duration(Duration::from_millis(5));
//! let mut net = NetRunner::new(config, NullAdversary, Box::new(|_, _| Pinger));
//! net.seed_nodes(4);
//! net.run(3);
//! assert_eq!(net.node_count(), 4);
//! assert!(net.wire_stats().frames_sent > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod runner;

pub use codec::{
    decode_wire_value, encode_wire_frame, CodecError, FrameDecoder, Wire, WireReader,
    DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
pub use runner::{Loopback, NetConfig, NetRunner, WireStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tsa_sim::prelude::*;
    use tsa_sim::SimConfig;

    /// The same flood protocol the event engine tests use: talk to the two
    /// numerically adjacent identifiers, tag payloads with (sender, round).
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
            let tag = (me << 32) | ctx.round();
            ctx.send(NodeId(me.wrapping_add(1)), tag);
            if me > 0 {
                ctx.send(NodeId(me - 1), tag);
            }
        }
        fn state_digest(&self) -> u64 {
            self.heard.len() as u64
        }
    }

    fn runner(seed: u64) -> NetRunner<Ping, NullAdversary> {
        let config = NetConfig::new(SimConfig::default().with_seed(seed))
            .with_round_duration(Duration::from_millis(10));
        NetRunner::new(config, NullAdversary, Box::new(|_, _| Ping::default()))
    }

    #[test]
    fn loopback_messages_actually_arrive() {
        let mut net = runner(3);
        net.seed_nodes(4);
        net.run(5);
        // Node 1 talks to nodes 0 and 2 every round; on a 10 ms round the
        // loopback comfortably delivers round-t sends by round t+1, so by
        // round 5 node 1 has heard from both neighbors repeatedly.
        let heard = &net.node(NodeId(1)).unwrap().heard;
        assert!(
            heard.len() >= 4,
            "expected steady neighbor traffic, heard {}",
            heard.len()
        );
        let stats = net.net_stats();
        let wire = net.wire_stats();
        assert_eq!(
            stats.sent,
            5 * 7,
            "4 nodes × 2 sends − edge node, × 5 rounds"
        );
        assert!(wire.frames_sent > 0);
        assert!(wire.bytes_sent > wire.frames_sent * 4, "frames have bodies");
        // The edge sends (node 3 → 4, node 0 → u64::MAX wrap) never connect.
        assert!(
            stats.lost >= 5,
            "nonexistent receivers are lost at the wire"
        );
    }

    #[test]
    fn a_directed_drop_rule_cuts_one_direction_of_a_link() {
        use tsa_event::{FaultAction, FaultAdapter, FaultPlan, FaultRule, NodeSelector};

        /// Ping on a ring of four: every send has a live receiver, so the
        /// only frames that never reach the wire are the censored ones.
        #[derive(Default)]
        struct Ring {
            heard: Vec<u64>,
        }
        impl Process for Ring {
            type Msg = u64;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
                self.heard.extend(inbox.iter().map(|env| env.from.raw()));
                let me = ctx.id().raw();
                ctx.send(NodeId((me + 1) % 4), me);
                ctx.send(NodeId((me + 3) % 4), me);
            }
        }
        let senders_heard_by = |net: &NetRunner<Ring, NullAdversary>, id: u64| {
            let mut senders = net.node(NodeId(id)).unwrap().heard.clone();
            senders.sort_unstable();
            senders.dedup();
            senders
        };

        // The transport half of the event engine's `direction.rs`: the same
        // rule scoped to `from #1 → to #2` censors exactly that direction.
        let plan = FaultPlan::new().with_rule(
            FaultRule::every(FaultAction::Drop)
                .from(NodeSelector::Id { id: 1 })
                .to(NodeSelector::Id { id: 2 }),
        );
        let adapter = FaultAdapter {
            kind_of: |_| 0,
            mutate: |_, _| false,
        };
        let config = NetConfig::new(SimConfig::default().with_seed(5))
            .with_round_duration(Duration::from_millis(10));
        let mut net = NetRunner::new(config, NullAdversary, Box::new(|_, _| Ring::default()));
        net.set_faults(plan, adapter);
        net.seed_nodes(4);
        let rounds = 6;
        net.run(rounds);
        assert_eq!(senders_heard_by(&net, 2), vec![3], "2 never hears 1");
        assert_eq!(senders_heard_by(&net, 1), vec![0, 2], "1 still hears 2");
        let fs = net.fault_stats();
        assert_eq!(fs.dropped, rounds, "one censored send per round");
        assert_eq!(fs.total(), fs.dropped, "no other action fired");
        assert_eq!(
            net.net_stats().lost,
            fs.dropped,
            "fault drops are charged to the network loss counter"
        );
    }

    #[test]
    fn the_trace_accounts_for_every_message() {
        let mut net = runner(4);
        net.seed_nodes(4);
        net.run(4);
        let trace = net.trace();
        assert_eq!(trace.len() as u64, net.net_stats().sent);
        let delivered: usize = net
            .metrics()
            .rounds()
            .iter()
            .map(|m| m.messages_delivered)
            .sum();
        assert_eq!(
            trace.delivered_count(),
            delivered + net.net_stats().dropped_departed as usize
        );
    }

    #[test]
    fn departures_tear_down_the_socket_state() {
        use tsa_sim::ChurnRules;

        struct OneShotChurn;
        impl Adversary for OneShotChurn {
            fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
                if round == 2 {
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
        let sim = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let config = NetConfig::new(sim).with_round_duration(Duration::from_millis(10));
        let mut net = NetRunner::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        net.seed_nodes(4);
        net.run(3);
        assert!(!net.member_ids().contains(&NodeId(0)), "node 0 departed");
        assert_eq!(net.node_count(), 4, "one left, one joined");
        let outcome = net.last_churn_outcome();
        assert_eq!(outcome.departed, vec![NodeId(0)]);
        assert_eq!(net.joined_at(outcome.joined[0].0), Some(2));
        // Node 1 keeps sending to the departed node 0: those messages are
        // lost when queued (node 0 has no port), and those written before it
        // left are read by nobody (receiver-departed drops), never in an
        // inbox.
        net.run(2);
        let stats = net.net_stats();
        assert!(stats.lost + stats.dropped_departed > 5);
    }
}
