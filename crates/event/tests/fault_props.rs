//! Property tests for the fault-plan language: every representable plan must
//! serde round-trip byte-exactly, every decision must be a pure function of
//! `(plan, seed, seq, round, endpoints, kind)` — at any ambient thread
//! budget — and no hostile or degenerate plan (inverted windows, saturating
//! delays, out-of-range probabilities, empty kind lists) may ever panic the
//! decision procedure or the engine it is installed in.
//!
//! Probabilities in the *serde* strategies stay finite: `NaN` breaks
//! `PartialEq` and JSON alike, so the non-finite coins get their own
//! dedicated never-panic block at the bottom instead.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestRng};
use tsa_event::{
    EventConfig, EventSimulator, FaultAction, FaultAdapter, FaultPlan, FaultRule, LatencyModel,
    NetModel, NodeSelector, RegionAssign, RoundWindow,
};
use tsa_sim::prelude::*;
use tsa_sim::SimConfig;

/// Random fault plans with at most `max_rules` rules drawn from the whole
/// plan grammar: full/suffix/bounded windows (including empty and inverted
/// spans), id and region selectors, all four actions, kind filters, and
/// finite probabilities on either side of the `[0, 1]` range.
struct PlanTree {
    max_rules: u64,
}

impl Strategy for PlanTree {
    type Value = FaultPlan;

    fn generate(&self, rng: &mut TestRng) -> FaultPlan {
        let rules = rng.next_u64() % (self.max_rules + 1);
        let mut plan = FaultPlan::new();
        for _ in 0..rules {
            plan = plan.with_rule(gen_rule(rng));
        }
        plan
    }
}

fn gen_rule(rng: &mut TestRng) -> FaultRule {
    let mut rule = FaultRule::every(gen_action(rng));
    rule = match rng.next_u64() % 4 {
        0 => rule,
        1 => rule.in_window(RoundWindow::starting_at(rng.next_u64() % 16)),
        // Bounded spans — half of them empty or inverted, which must simply
        // match nothing.
        2 => rule.in_window(RoundWindow::between(
            rng.next_u64() % 32,
            rng.next_u64() % 32,
        )),
        _ => rule.in_window(RoundWindow::between(rng.next_u64(), rng.next_u64())),
    };
    rule = rule.from(gen_selector(rng)).to(gen_selector(rng));
    if rng.next_u64().is_multiple_of(2) {
        let kinds: Vec<u8> = (0..rng.next_u64() % 4)
            .map(|_| (rng.next_u64() % 8) as u8)
            .collect();
        rule = rule.kinds(kinds);
    }
    if rng.next_u64().is_multiple_of(2) {
        const PROBS: [f64; 6] = [0.0, 0.25, 0.5, 0.9, 1.0, 2.0];
        rule = rule.with_prob(PROBS[(rng.next_u64() % PROBS.len() as u64) as usize]);
    }
    rule
}

fn gen_selector(rng: &mut TestRng) -> NodeSelector {
    match rng.next_u64() % 4 {
        0 | 1 => NodeSelector::Any,
        2 => NodeSelector::Id {
            id: rng.next_u64() % 32,
        },
        // A split of 0 puts every id in region 1, and regions past 1 match
        // nothing: both are degenerate by construction.
        _ => NodeSelector::Region {
            assign: RegionAssign::halves(rng.next_u64() % 16),
            region: (rng.next_u64() % 4) as u32,
        },
    }
}

fn gen_action(rng: &mut TestRng) -> FaultAction {
    match rng.next_u64() % 4 {
        0 => FaultAction::Drop,
        1 => FaultAction::Delay {
            ticks: rng.next_u64() % 4000,
        },
        2 => FaultAction::Duplicate,
        _ => FaultAction::Mutate,
    }
}

/// The same flood protocol the engine's own tests pin traces with: each node
/// pushes every heard payload and tags id ± 1 with `(me << 32) | round`, so
/// delivery *order* is part of every fingerprint.
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

/// A fault adapter for the raw `u64` payloads: the low bits tag the kind,
/// mutation XORs the entropy word in (always a change, `entropy | 1` keeps
/// it nonzero).
const ADAPTER: FaultAdapter<u64> = FaultAdapter {
    kind_of: |m| (*m & 0x7) as u8,
    mutate: |m, entropy| {
        *m ^= entropy | 1;
        true
    },
};

/// One engine run with `plan` installed, fingerprinted down to per-node
/// heard sequences, fault counters and network counters.
fn faulted_fingerprint(plan: &FaultPlan, seed: u64, n: usize, rounds: u64) -> String {
    let config = EventConfig::new(
        SimConfig::default().with_seed(seed),
        NetModel::new(LatencyModel::uniform(100, 1800)),
    );
    let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
    sim.set_faults(plan.clone(), ADAPTER);
    sim.seed_nodes(n);
    sim.run(rounds);
    let heard: Vec<(NodeId, Vec<u64>)> = sim
        .member_ids()
        .iter()
        .map(|&id| (id, sim.node(id).unwrap().heard.clone()))
        .collect();
    format!(
        "{heard:?}|{:?}|{:?}",
        sim.fault_stats(),
        sim.net_stats().lost
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_plan_round_trips_byte_exactly(plan in PlanTree { max_rules: 4 }) {
        let json = serde_json::to_string(&plan).expect("every plan serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("every plan deserializes");
        prop_assert_eq!(&back, &plan, "round trip is lossless");
        let json2 = serde_json::to_string(&back).expect("round-tripped plan re-serializes");
        prop_assert_eq!(json2, json, "re-serialization is byte-exact");
    }

    #[test]
    fn decisions_are_pure_functions_of_their_inputs(
        plan in PlanTree { max_rules: 4 },
        seed in 0u64..1024,
        seq in 0u64..4096,
        round in 0u64..64,
        from in 0u64..32,
        to in 0u64..32,
        kind in 0u8..8,
    ) {
        let a = plan.decide(seed, seq, round, NodeId(from), NodeId(to), kind);
        let b = plan.decide(seed, seq, round, NodeId(from), NodeId(to), kind);
        prop_assert_eq!(a, b, "same inputs must give the same decision");
        prop_assert_eq!(
            FaultPlan::mutation_entropy(seed, seq),
            FaultPlan::mutation_entropy(seed, seq),
            "mutation entropy is pure too"
        );
    }
}

proptest! {
    // Engine runs are heavier than bare decisions; fewer cases, same grammar.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_runs_ignore_the_ambient_thread_budget(
        plan in PlanTree { max_rules: 3 },
        seed in 0u64..64,
    ) {
        // The sweep driver caps worker threads (TSA_THREADS does the same
        // from the environment, through the identical rayon shim path); no
        // cap may perturb a single bit of a faulted run.
        let baseline = faulted_fingerprint(&plan, seed, 10, 5);
        for cap in [1usize, 2, 4] {
            let capped =
                rayon::with_thread_cap(cap, || faulted_fingerprint(&plan, seed, 10, 5));
            prop_assert_eq!(&capped, &baseline, "divergence under thread cap {}", cap);
        }
    }

    #[test]
    fn hostile_plans_never_panic(
        plan in PlanTree { max_rules: 3 },
        hostile_prob in 0usize..6,
        seed in 0u64..64,
    ) {
        // Worst-case rules stacked onto a random plan: non-finite and
        // out-of-range coins, saturating delays, inverted windows, an empty
        // kind filter, and selectors past the id space.
        const HOSTILE_PROBS: [f64; 6] =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 2.0, 0.0];
        let hostile = plan
            .with_rule(
                FaultRule::every(FaultAction::Delay { ticks: u64::MAX })
                    .with_prob(HOSTILE_PROBS[hostile_prob]),
            )
            .with_rule(
                FaultRule::every(FaultAction::Drop)
                    .in_window(RoundWindow::between(u64::MAX, 0))
                    .kinds([]),
            )
            .with_rule(
                FaultRule::every(FaultAction::Mutate).from(NodeSelector::Id { id: u64::MAX }),
            );

        // Bare decisions at the extremes of every argument.
        for (seq, round) in [(0, 0), (u64::MAX, u64::MAX), (1, u64::MAX - 1)] {
            let _ = hostile.decide(seed, seq, round, NodeId(u64::MAX), NodeId(0), u8::MAX);
        }

        // A short engine run with the hostile plan installed: saturating
        // delay arithmetic, never-firing rules and all.
        let fp = faulted_fingerprint(&hostile, seed, 6, 3);
        prop_assert!(!fp.is_empty(), "the run completes");
    }
}

/// Regression: a hostile `Delay { ticks: u64::MAX }` plan used to wrap the
/// arrival tick (`now + latency + delay`) back into the past, reordering
/// the queue and re-delivering history. With saturating tick arithmetic the
/// message parks at the end of time instead: counted, in flight, and never
/// delivered.
#[test]
fn u64_max_delays_park_messages_instead_of_wrapping() {
    let plan = FaultPlan::new().with_rule(FaultRule::every(FaultAction::Delay { ticks: u64::MAX }));
    let config = EventConfig::new(
        SimConfig::default().with_seed(7),
        NetModel::new(LatencyModel::constant(500)),
    );
    let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
    sim.set_faults(plan, ADAPTER);
    sim.seed_nodes(6);
    sim.run(5);
    let stats = sim.net_stats();
    assert!(stats.sent > 0);
    assert_eq!(stats.lost, 0);
    let delivered: usize = sim
        .metrics()
        .rounds()
        .iter()
        .map(|m| m.messages_delivered)
        .sum();
    assert_eq!(delivered, 0, "every message is parked at the end of time");
    assert_eq!(sim.in_flight_count() as u64, stats.sent);
    assert_eq!(sim.fault_stats().delayed, stats.sent);
    assert_eq!(stats.max_delay_ticks, u64::MAX, "the delay saturated");
}
