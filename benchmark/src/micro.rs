//! Single-layer measurements that need no maintained overlay: each times one
//! crate's public entry point on a synthetic load with (almost) nothing else
//! in the way, so a layer's own cost can be read without the protocol on
//! top. Each belongs to the traced pass of the workload whose end-to-end
//! numbers that layer feeds (see `catalog::home_workload`).

use std::hint::black_box;
use std::time::Instant;

use tsa_core::ProtocolMsg;
use tsa_event::queue::{CalendarQueue, Pending};
use tsa_event::{EventConfig, EventSimulator, LatencyModel, NetModel};
use tsa_net::{decode_wire_value, encode_wire_frame, FrameDecoder};
use tsa_scenario::Scenario;
use tsa_sim::prelude::*;
use tsa_sim::{MetricsMode, NullAdversary};

use crate::run::{RunOpts, RunOutput};
use crate::stats::median;

/// Repeats of each measurement; the median is reported.
const REPEATS: usize = 3;

fn median_of(mut measure: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| measure()).collect();
    median(&samples).expect("REPEATS > 0")
}

/// Every node floods a counter to its two id-adjacent peers each round: the
/// cheapest possible compute phase, so what is timed is the engine.
struct Flood;

impl Process for Flood {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        let heard = inbox.len() as u64;
        let me = ctx.id().raw();
        ctx.send(NodeId(me.wrapping_add(1)), heard);
        if me > 0 {
            ctx.send(NodeId(me - 1), heard);
        }
    }
}

const FLOOD_NODES: usize = 4096;
const FLOOD_WARMUP_ROUNDS: u64 = 2;

fn flood_config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_history_window(8)
        .with_parallel(true)
}

/// `sim.flood_ns_per_msg`: the lockstep engine's deliver/scatter cost per
/// message with ~zero compute (`Simulator::run`, n = 4096).
pub fn sim_flood(opts: &RunOpts, out: &mut RunOutput) {
    let rounds = if opts.quick { 100 } else { 1000 };
    out.set(
        "sim.flood_ns_per_msg",
        median_of(|| {
            let mut sim = Simulator::new(
                flood_config(opts.seed),
                NullAdversary,
                Box::new(|_, _| Flood),
            );
            sim.set_metrics_mode(MetricsMode::Streaming);
            sim.seed_nodes(FLOOD_NODES);
            sim.run(FLOOD_WARMUP_ROUNDS);
            let sent_before = sim.metrics_summary().total_messages_sent;
            let started = Instant::now();
            sim.run(rounds);
            let nanos = started.elapsed().as_nanos() as f64;
            nanos / (sim.metrics_summary().total_messages_sent - sent_before) as f64
        }),
    );
}

/// `event.flood_ns_per_msg` and `event.queue_op_ns`: the event engine's
/// queue + fate + dispatch cost per message under a lossy, jittery,
/// multi-round network (`EventSimulator::run`, n = 4096), and the bare
/// calendar queue's cost per push or pop.
pub fn event_engine(opts: &RunOpts, out: &mut RunOutput) {
    let rounds = if opts.quick { 30 } else { 300 };
    out.set(
        "event.flood_ns_per_msg",
        median_of(|| {
            let net = NetModel {
                latency: LatencyModel::uniform(100, 2600),
                jitter: 300,
                loss: 0.02,
            };
            let mut sim = EventSimulator::new(
                EventConfig::new(flood_config(opts.seed), net),
                NullAdversary,
                Box::new(|_, _| Flood),
            );
            sim.set_metrics_mode(MetricsMode::Streaming);
            sim.seed_nodes(FLOOD_NODES);
            sim.run(FLOOD_WARMUP_ROUNDS);
            let sent_before = sim.net_stats().sent;
            let started = Instant::now();
            sim.run(rounds);
            let nanos = started.elapsed().as_nanos() as f64;
            nanos / (sim.net_stats().sent - sent_before) as f64
        }),
    );
    out.set("event.queue_op_ns", median_of(queue_op_ns));
}

/// A steady-state churn of pushes with bounded pseudo-random deltas and
/// boundary drains, far from both the empty and the overflow-only regimes
/// (`exp_perf`'s loop). One op is one push or one successful pop.
fn queue_op_ns() -> f64 {
    const WIDTH: u64 = 64;
    let mut queue: CalendarQueue<u64> = CalendarQueue::new(WIDTH);
    let (mut seq, mut ops, mut now) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    while ops < 2_000_000 {
        for _ in 0..8 {
            // Weyl-sequence delta in [0, 8 buckets): deterministic, cheap,
            // and spread enough to exercise ring wraps.
            let delta = (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % (8 * WIDTH);
            queue.push(black_box(Pending {
                arrival: now + delta,
                seq,
                env: Envelope::new(NodeId(0), NodeId(seq % 64), 0, 0),
            }));
            seq += 1;
            ops += 1;
        }
        now += WIDTH;
        while let Some(pending) = queue.pop_at_or_before(now) {
            black_box(pending);
            ops += 1;
        }
    }
    while let Some(pending) = queue.pop_at_or_before(u64::MAX) {
        black_box(pending);
        ops += 1;
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// A fixed mix of all six message kinds, in the proportions of nothing in
/// particular: one of each, so a change to any variant's encoding shows.
fn wire_mix() -> Vec<Envelope<ProtocolMsg>> {
    let payloads = [
        ProtocolMsg::Create {
            node: NodeId(17),
            epoch: 41,
            position: 0.328_125,
        },
        ProtocolMsg::AnnounceJoin {
            node: NodeId(90_001),
            epoch: 42,
            position: 0.912_304_687_5,
        },
        ProtocolMsg::RouteJoin {
            node: NodeId(5),
            target_epoch: 43,
            step: 3,
            point: 0.062_5,
        },
        ProtocolMsg::RouteToken {
            owner: NodeId(77),
            delta: 9,
            target: 0.698_131_700_797_731_8,
            step: 6,
            point: 0.141_592_653_589_793,
        },
        ProtocolMsg::Token { owner: NodeId(3) },
        ProtocolMsg::Connect {
            node: NodeId(1_234_567),
        },
    ];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| Envelope::new(NodeId(i as u64), NodeId(100 + i as u64), 40, payload))
        .collect()
}

/// `net.encode_ns_per_frame` and `net.decode_ns_per_frame`: the wire
/// codec's write side (`encode_wire_frame`) and the read beside it
/// (`FrameDecoder` + `decode_wire_value`) over the same bytes. Returns
/// whether every frame decoded back to the envelope it was encoded from.
pub fn codec(opts: &RunOpts, out: &mut RunOutput) -> bool {
    let passes = if opts.quick { 2_000 } else { 40_000 };
    let mix = wire_mix();
    let frames = (passes * mix.len()) as f64;
    let mut round_trips = true;
    let mut wire = Vec::new();
    out.set(
        "net.encode_ns_per_frame",
        median_of(|| {
            wire.clear();
            let started = Instant::now();
            for pass in 0..passes {
                for (i, env) in mix.iter().enumerate() {
                    encode_wire_frame((pass * mix.len() + i) as u64, black_box(env), &mut wire);
                }
            }
            started.elapsed().as_nanos() as f64 / frames
        }),
    );
    out.set(
        "net.decode_ns_per_frame",
        median_of(|| {
            let mut decoder = FrameDecoder::new();
            let mut seq = 0u64;
            let started = Instant::now();
            // Socket-read-sized chunks, so frames straddle pushes.
            for chunk in wire.chunks(16 * 1024) {
                decoder.push(chunk);
                while let Ok(Some(value)) = decoder.next_frame() {
                    match decode_wire_value::<ProtocolMsg>(&value) {
                        Ok((got_seq, env)) => {
                            round_trips &= got_seq == seq && env == mix[seq as usize % mix.len()];
                        }
                        Err(_) => round_trips = false,
                    }
                    seq += 1;
                }
            }
            let nanos = started.elapsed().as_nanos() as f64;
            round_trips &= seq as f64 == frames;
            nanos / frames
        }),
    );
    round_trips
}

/// `routing.route_all_ms` and `routing.sampling_ms`: the Lemma 9–13
/// one-shots (`Scenario::routing(256).run(0)`, `Scenario::sampling(256)
/// .run(0)`), which no gated metric covers.
pub fn routing(opts: &RunOpts, out: &mut RunOutput) {
    let n = if opts.quick { 64 } else { 256 };
    let time_ms = |scenario: fn(usize) -> Scenario| {
        median_of(|| {
            let started = Instant::now();
            black_box(scenario(n).seed(opts.seed).run(0));
            started.elapsed().as_secs_f64() * 1e3
        })
    };
    out.set("routing.route_all_ms", time_ms(Scenario::routing));
    out.set("routing.sampling_ms", time_ms(Scenario::sampling));
}
