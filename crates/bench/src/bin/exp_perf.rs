//! Experiment PERF — the simulator's round-loop throughput trajectory.
//!
//! Every paper claim in this repository is a sweep over `Scenario::run`
//! cells, so the per-round cost of the `tsa-sim` engine multiplies into
//! everything (ROADMAP: "as fast as the hardware allows"). This binary
//! measures that cost directly and writes `BENCH_exp_perf.json`, so the perf
//! trajectory is diffable across PRs like every other claim. See the
//! "Performance model" chapter of DESIGN.md for the cost model behind the
//! numbers and EXPERIMENTS.md for how to read them.
//!
//! Three workloads bracket the engines:
//!
//! * `engine_flood` — a synthetic two-neighbour flood at
//!   `n ∈ {256, 1024, 4096}`: a near-zero compute phase, so the number is
//!   the round loop itself (delivery sort, inbox slicing, outbox draining,
//!   metrics, record recycling);
//! * `event_loop` — the same flood on the *event* engine under a lossy,
//!   jittery network at `n ∈ {256, 1024, 4096}`: the number is the calendar
//!   queue plus batched fate derivation (events/s, queue-op ns, peak queue
//!   depth ride along in the row);
//! * `maintained_lds` — the full maintenance protocol under paper churn at
//!   `n ∈ {64, 128, 256}`: a realistic compute phase on top. (The protocol's
//!   `Θ(n·λ³)` message volume makes larger `n` a memory-bound sweep of its
//!   own, deliberately out of scope here.)
//!
//! Both run at `threads ∈ {1, 2, machine budget}`; `--smoke` shrinks
//! everything to a seconds-long CI-sized grid whose only job is to keep the
//! perf suite from bit-rotting.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::Instant;

use serde::Serialize;

use tsa_bench::compare::BandOutcome;
use tsa_bench::{committed_baseline, experiment_scenario, publish, Compared, ExpArgs, Extra};
use tsa_core::ProtocolMsg;
use tsa_event::queue::{CalendarQueue, Pending};
use tsa_event::{EventConfig, EventSimulator, LatencyModel, NetModel};
use tsa_scenario::{AdversarySpec, ChurnSpec};
use tsa_sim::prelude::*;
use tsa_sim::{Envelope as SimEnvelope, MetricsHistory, NullAdversary};

/// One measured cell of the throughput grid.
#[derive(Serialize)]
struct PerfRow {
    /// `engine_flood` (round-loop overhead) or `maintained_lds` (full
    /// protocol).
    workload: &'static str,
    /// Network size.
    n: usize,
    /// Worker-thread budget actually in effect for the engine's compute
    /// phase (the requested cap bounded by the ambient TSA_THREADS/cores
    /// budget).
    threads: usize,
    /// Warm-up rounds excluded from timing (bootstrap phase, or buffer
    /// warm-up for the flood).
    warmup_rounds: u64,
    /// Measured rounds.
    rounds: u64,
    /// Wall-clock of the measured rounds, in milliseconds.
    wall_ms: f64,
    /// The headline number: measured rounds per second.
    rounds_per_sec: f64,
    /// Protocol messages processed per second over the measured window.
    messages_per_sec: f64,
    /// Mean messages sent per round over the measured window.
    mean_messages_per_round: f64,
    /// Largest single-round in-flight message count of the whole run.
    peak_in_flight_messages: usize,
    /// `peak_in_flight_messages × sizeof(Envelope)`: the engine's dominant
    /// steady-state buffer, as bytes.
    peak_in_flight_bytes: usize,
    /// Linux `VmHWM` (peak resident set) in kB after this cell, when
    /// `/proc/self/status` is readable; 0 elsewhere. Monotone across cells —
    /// a process-level high-water mark, not a per-cell measurement.
    vm_hwm_kb: u64,
    /// Event-engine only: queue events delivered per second over the
    /// measured window (absent for round-engine workloads, keeping their
    /// row shape byte-stable).
    #[serde(skip_serializing_if = "Option::is_none")]
    events_per_sec: Option<f64>,
    /// Event-engine only: nanoseconds per calendar-queue operation (one push
    /// or one pop) in a direct steady-state microbench.
    #[serde(skip_serializing_if = "Option::is_none")]
    queue_op_ns: Option<f64>,
    /// Event-engine only: the run's largest post-dispatch queue depth.
    #[serde(skip_serializing_if = "Option::is_none")]
    peak_queue_depth: Option<u64>,
}

/// The `BENCH_exp_perf.json` document.
#[derive(Serialize)]
struct PerfDoc {
    /// The experiment's name.
    exp: &'static str,
    /// Whether this was a `--smoke` run (CI-sized, not comparable to full).
    smoke: bool,
    /// The machine's worker-thread budget at launch (`TSA_THREADS` / cores).
    machine_threads: usize,
    /// One row per `(workload, n, threads)` cell.
    rows: Vec<PerfRow>,
}

/// Linux peak-RSS high-water mark, in kB.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Every node floods a counter to its two id-adjacent peers each round — the
/// cheapest possible compute phase, isolating the engine overhead.
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

/// Folds a finished run's metrics into a [`PerfRow`]. Called inside the
/// cell's `with_thread_cap` scope, so `threads` records the budget actually
/// in effect: a cap can only lower the ambient TSA_THREADS/cores budget,
/// never raise it (the grid is pre-filtered to the ambient budget, but the
/// row stays honest either way).
fn finish_row(
    workload: &'static str,
    n: usize,
    warmup_rounds: u64,
    rounds: u64,
    wall_secs: f64,
    metrics: &MetricsHistory,
    envelope_bytes: usize,
) -> PerfRow {
    let measured = &metrics.rounds()[warmup_rounds as usize..];
    let messages: usize = measured.iter().map(|m| m.messages_sent).sum();
    let peak_in_flight = metrics
        .rounds()
        .iter()
        .map(|m| m.messages_sent)
        .max()
        .unwrap_or(0);
    let wall_secs = wall_secs.max(1e-9);
    PerfRow {
        workload,
        n,
        threads: rayon::current_num_threads(),
        warmup_rounds,
        rounds,
        wall_ms: wall_secs * 1e3,
        rounds_per_sec: rounds as f64 / wall_secs,
        messages_per_sec: messages as f64 / wall_secs,
        mean_messages_per_round: messages as f64 / rounds.max(1) as f64,
        peak_in_flight_messages: peak_in_flight,
        peak_in_flight_bytes: peak_in_flight * envelope_bytes,
        vm_hwm_kb: vm_hwm_kb(),
        events_per_sec: None,
        queue_op_ns: None,
        peak_queue_depth: None,
    }
}

/// The synthetic-flood workloads share one engine configuration.
fn flood_config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_history_window(8)
        .with_parallel(true)
}

fn measure_flood(n: usize, rounds: u64) -> PerfRow {
    let mut sim = Simulator::new(flood_config(5), NullAdversary, Box::new(|_, _| Flood));
    sim.seed_nodes(n);
    let warmup = 2u64;
    sim.run(warmup); // reach buffer steady state before timing
    let t0 = Instant::now();
    sim.run(rounds);
    let wall = t0.elapsed().as_secs_f64();
    let envelope = std::mem::size_of::<SimEnvelope<u64>>();
    finish_row(
        "engine_flood",
        n,
        warmup,
        rounds,
        wall,
        sim.metrics(),
        envelope,
    )
}

/// Direct cost of one calendar-queue operation, in nanoseconds: a
/// steady-state churn of pushes with bounded pseudo-random deltas and
/// boundary drains, far from both the empty and the overflow-only regimes.
/// One op is one push or one successful pop.
fn measure_queue_op_ns() -> f64 {
    const WIDTH: u64 = 64;
    let mut queue: CalendarQueue<u64> = CalendarQueue::new(WIDTH);
    let mut seq = 0u64;
    let mut ops = 0u64;
    let mut now = 0u64;
    let t0 = Instant::now();
    while ops < 400_000 {
        for _ in 0..8 {
            // Weyl-sequence delta in [0, 8 buckets): deterministic, cheap,
            // and spread enough to exercise ring wraps.
            let delta = (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % (8 * WIDTH);
            queue.push(Pending {
                arrival: now + delta,
                seq,
                env: Envelope::new(NodeId(0), NodeId(seq % 64), 0, 0),
            });
            seq += 1;
            ops += 1;
        }
        now += WIDTH;
        while queue.pop_at_or_before(now).is_some() {
            ops += 1;
        }
    }
    while queue.pop_at_or_before(u64::MAX).is_some() {
        ops += 1;
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

fn measure_event_loop(n: usize, rounds: u64) -> PerfRow {
    // Lossy, jittery, multi-round latencies: the configuration the async
    // experiments run the event engine under, so the queue sees real
    // boundary straddling and the fate path real loss coins.
    let net = NetModel {
        latency: LatencyModel::uniform(100, 2600),
        jitter: 300,
        loss: 0.02,
    };
    let config = EventConfig::new(flood_config(11), net);
    let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Flood));
    sim.seed_nodes(n);
    let warmup = 2u64;
    sim.run(warmup);
    let before = sim.net_stats();
    let in_flight_before = sim.in_flight_count() as i128;
    let t0 = Instant::now();
    sim.run(rounds);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let after = sim.net_stats();
    let in_flight_after = sim.in_flight_count() as i128;
    // Events popped over the window: everything enqueued in it (sent
    // minus lost minus churn drops), corrected by the queue-depth delta.
    let enqueued = (after.sent - after.lost - after.dropped_departed) as i128
        - (before.sent - before.lost - before.dropped_departed) as i128;
    let popped = (enqueued + in_flight_before - in_flight_after).max(0) as u64;
    let envelope = std::mem::size_of::<SimEnvelope<u64>>();
    PerfRow {
        events_per_sec: Some(popped as f64 / wall),
        queue_op_ns: Some(measure_queue_op_ns()),
        peak_queue_depth: Some(sim.peak_queue_depth()),
        ..finish_row(
            "event_loop",
            n,
            warmup,
            rounds,
            wall,
            sim.metrics(),
            envelope,
        )
    }
}

fn measure_maintained(n: usize, rounds: u64) -> PerfRow {
    let mut run = experiment_scenario(n)
        .churn(ChurnSpec::paper())
        .adversary(AdversarySpec::random(1, 13))
        .seed(29)
        .build();
    let warmup = run.params().bootstrap_rounds();
    run.run_bootstrap();
    let t0 = Instant::now();
    run.run(rounds);
    let wall = t0.elapsed().as_secs_f64();
    let envelope = std::mem::size_of::<SimEnvelope<ProtocolMsg>>();
    finish_row(
        "maintained_lds",
        n,
        warmup,
        rounds,
        wall,
        run.metrics(),
        envelope,
    )
}

/// One workload of the grid: how to measure a cell, at which sizes, for how
/// many timed rounds.
type Workload = (fn(usize, u64) -> PerfRow, &'static [usize], u64);

fn main() {
    // --full is accepted but a no-op: the grid has no raw histories to keep.
    let exp = "exp_perf";
    let args = ExpArgs::parse(
        exp,
        "round-loop throughput (rounds/sec, peak-memory proxy) across \
         workload × n × threads; --smoke runs a seconds-long CI-sized grid",
        &[Extra::Smoke("CI-sized grid (a few seconds end to end)")],
    );
    let smoke = args.smoke;

    // The per-cell thread budget is applied with `with_thread_cap`, which
    // can only *lower* the ambient TSA_THREADS/cores budget — so `--threads`
    // lowers the whole grid's ceiling, and grid points above the ceiling are
    // dropped rather than run mislabeled.
    let ambient = rayon::current_num_threads();
    let machine_threads = args.threads.map_or(ambient, |t| t.min(ambient));
    let grid: [Workload; 3] = if smoke {
        [
            (measure_flood, &[256], 5),
            (measure_event_loop, &[256], 5),
            (measure_maintained, &[48, 64], 3),
        ]
    } else {
        [
            (measure_flood, &[256, 1024, 4096], 30),
            (measure_event_loop, &[256, 1024, 4096], 30),
            (measure_maintained, &[64, 128, 256], 10),
        ]
    };
    let mut thread_grid: Vec<usize> = if smoke {
        vec![1, 2]
    } else {
        vec![1, 2, machine_threads]
    };
    thread_grid.retain(|&t| t <= machine_threads);
    thread_grid.sort_unstable();
    thread_grid.dedup();

    let mut rows = Vec::new();
    println!(
        "exp_perf{}: flood n ∈ {:?} × event n ∈ {:?} × maintained n ∈ {:?} × \
         threads ∈ {thread_grid:?}",
        if smoke { " (smoke)" } else { "" },
        grid[0].1,
        grid[1].1,
        grid[2].1,
    );
    let cells = grid
        .iter()
        .flat_map(|&(measure, sizes, rounds)| sizes.iter().map(move |&n| (measure, n, rounds)));
    for (measure, n, rounds) in cells {
        for &threads in &thread_grid {
            let row = rayon::with_thread_cap(threads, || measure(n, rounds));
            println!(
                "  {:<14} n = {n:>5}, threads = {threads}: {:>9.1} rounds/s, \
                 {:>12.0} msgs/s, peak in-flight {:>8} msgs, VmHWM {} kB",
                row.workload,
                row.rounds_per_sec,
                row.messages_per_sec,
                row.peak_in_flight_messages,
                row.vm_hwm_kb,
            );
            if let (Some(eps), Some(ns), Some(depth)) =
                (row.events_per_sec, row.queue_op_ns, row.peak_queue_depth)
            {
                println!(
                    "  {:<14} {:>22} {eps:>12.0} events/s, queue op {ns:>6.1} ns, \
                     peak queue depth {depth}",
                    "", "",
                );
            }
            rows.push(row);
        }
    }

    let doc = PerfDoc {
        exp,
        smoke,
        machine_threads,
        rows,
    };
    // A timing-only artifact: nothing in it is byte-stable, so the gate is
    // the throughput band against the committed rows, handed in as the
    // verdict; the fresh throughputs ride along as the trajectory metrics.
    let verdict = match committed_baseline(exp, &args) {
        Some(committed) => band_verdict(&committed, &doc),
        None => {
            if args.compare {
                println!("{exp}: no comparable committed artifact (baseline seeded)");
            }
            Ok(())
        }
    };
    let metrics = doc
        .rows
        .iter()
        .map(|r| tsa_dash::MetricPoint {
            name: format!("rounds_per_sec[{} n={} t={}]", r.workload, r.n, r.threads),
            value: r.rounds_per_sec,
        })
        .collect();
    publish(exp, &args, &doc, Compared::Nothing, metrics, verdict);
}

/// Relative tolerance on `rounds_per_sec` for the `--compare` band: wall
/// clocks are noisy even on one machine, so the band only catches collapses
/// (or implausible speedups), not jitter.
const PERF_BAND: f64 = 0.5;

/// Cells shorter than this on either side are skipped by the band: a
/// single-digit-millisecond cell flips 2× on cache state alone, so a band
/// there would gate on noise.
const PERF_BAND_MIN_WALL_MS: f64 = 100.0;

/// The `--compare` band of a timing-only artifact: every committed
/// `(workload, n, threads)` row's `rounds_per_sec` must land within
/// [`PERF_BAND`] of the fresh run's. Prints what it banded and what it
/// skipped; `Err` lists the violations.
fn band_verdict(committed: &str, doc: &PerfDoc) -> Result<(), String> {
    let committed = serde_json::parse_value(committed).ok();
    let rows = committed.as_ref().and_then(|v| v.get("rows")?.as_array());
    let mut violations = Vec::new();
    let mut skipped = Vec::new();
    let mut compared = 0usize;
    for row in rows.unwrap_or_default() {
        let num = |field: &str| row.get(field).and_then(|v| v.as_f64());
        let workload = row.get("workload").and_then(|v| v.as_str());
        let (Some(n), Some(threads), Some(was)) = (num("n"), num("threads"), num("rounds_per_sec"))
        else {
            continue;
        };
        let Some(fresh) = doc.rows.iter().find(|r| {
            Some(r.workload) == workload && r.n as f64 == n && r.threads as f64 == threads
        }) else {
            continue;
        };
        match tsa_bench::compare::check_band_floored(
            &format!("rounds_per_sec[{} n={n} t={threads}]", fresh.workload),
            was,
            fresh.rounds_per_sec,
            PERF_BAND,
            num("wall_ms").unwrap_or(0.0),
            fresh.wall_ms,
            PERF_BAND_MIN_WALL_MS,
        ) {
            BandOutcome::Within => compared += 1,
            BandOutcome::Violation(v) => {
                compared += 1;
                violations.push(v);
            }
            BandOutcome::Skipped(reason) => skipped.push(reason),
        }
    }
    // Skips are part of the gate's claim: say what was NOT banded and why,
    // so a green gate over a grid of sub-floor cells reads as exactly that.
    for reason in &skipped {
        println!("exp_perf: {reason}");
    }
    if violations.is_empty() {
        println!(
            "exp_perf: {compared} committed throughput row(s) within the ±{:.0}% band \
             ({} skipped under the {:.0} ms floor)",
            PERF_BAND * 100.0,
            skipped.len(),
            PERF_BAND_MIN_WALL_MS,
        );
        Ok(())
    } else {
        Err(format!(
            "throughput left the ±{:.0}% band:\n  {}",
            PERF_BAND * 100.0,
            violations.join("\n  ")
        ))
    }
}
