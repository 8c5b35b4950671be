//! Experiment PERF — the maintained overlay's round throughput over
//! `n × threads`, the one wall-clock grid nothing else has: the full
//! maintenance protocol under paper churn at `n ∈ {64, 128, 256}` ×
//! `threads ∈ {1, 2, machine budget}` on the lockstep engine (`benchmark/`
//! runs one `n` at thread cap 1 and carries every claim about speed; larger
//! `n` is a memory-bound sweep of its own at `Θ(n·λ³)` messages). Two
//! sections come out, as in `exp_net` and `exp_profile`:
//!
//! * **deterministic** — per `n`: warm-up rounds, measured rounds, messages
//!   sent in the measured window, peak in-flight messages. Pure functions of
//!   the seed: every thread count must report the same row (the binary exits
//!   non-zero otherwise) and `--compare` holds the section to the committed
//!   artifact byte for byte.
//! * **timing** — per `(n, threads)`: rounds/s, wall ms, peak RSS.
//!   Machine-dependent: plotted in the trajectory, never gated.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::Instant;

use serde::Serialize;
use tsa_bench::{experiment_scenario, list_grid, publish, Compared, ExpArgs, Extra};
use tsa_scenario::{AdversarySpec, ChurnSpec};

/// The one seed every cell of the grid shares.
const SEED: u64 = 29;

/// The machine-invariant half of one network size's result.
#[derive(Serialize, PartialEq)]
struct DetRow {
    n: usize,
    /// Bootstrap rounds, excluded from the measured window.
    warmup_rounds: u64,
    /// Measured rounds.
    rounds: u64,
    /// Protocol messages sent over the measured window.
    messages_sent: usize,
    /// Largest single-round in-flight message count of the whole run.
    peak_in_flight_messages: usize,
}

/// The wall-clock half of one `(n, threads)` cell (machine-dependent).
#[derive(Serialize)]
struct TimingRow {
    n: usize,
    /// Worker-thread budget in effect for the engine's compute phase.
    threads: usize,
    /// Wall clock of the measured rounds.
    wall_ms: f64,
    rounds_per_sec: f64,
    /// Linux `VmHWM` (peak resident set) in kB after this cell; 0 where
    /// `/proc/self/status` is unreadable. A process-level high-water mark,
    /// monotone across cells.
    vm_hwm_kb: u64,
}

#[derive(Serialize)]
struct DeterministicDoc {
    /// Every thread count of the grid reported the same row at every `n`.
    all_checks_pass: bool,
    rows: Vec<DetRow>,
}

#[derive(Serialize)]
struct TimingDoc {
    /// The worker-thread budget at launch (`TSA_THREADS` / cores, lowered by
    /// `--threads`).
    machine_threads: usize,
    rows: Vec<TimingRow>,
}

/// The `BENCH_exp_perf.json` document.
#[derive(Serialize)]
struct PerfDoc {
    exp: &'static str,
    smoke: bool,
    deterministic: DeterministicDoc,
    timing: TimingDoc,
}

/// Linux peak-RSS high-water mark, in kB (0 where there is no procfs).
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Runs one cell under the ambient thread budget: bootstrap untimed, then
/// `rounds` timed rounds of the maintained overlay under paper churn.
fn measure(n: usize, rounds: u64) -> (DetRow, TimingRow) {
    let mut run = experiment_scenario(n)
        .churn(ChurnSpec::paper())
        .adversary(AdversarySpec::random(1, 13))
        .seed(SEED)
        .build();
    let warmup_rounds = run.params().bootstrap_rounds();
    run.run_bootstrap();
    let t0 = Instant::now();
    run.run(rounds);
    let wall_secs = t0.elapsed().as_secs_f64().max(1e-9);

    let history = run.metrics().rounds();
    let peak = history.iter().map(|m| m.messages_sent).max().unwrap_or(0);
    let det = DetRow {
        n,
        warmup_rounds,
        rounds,
        messages_sent: history[warmup_rounds as usize..]
            .iter()
            .map(|m| m.messages_sent)
            .sum(),
        peak_in_flight_messages: peak,
    };
    let timing = TimingRow {
        n,
        threads: rayon::current_num_threads(),
        wall_ms: wall_secs * 1e3,
        rounds_per_sec: rounds as f64 / wall_secs,
        vm_hwm_kb: vm_hwm_kb(),
    };
    (det, timing)
}

fn main() {
    let exp = "exp_perf";
    let args = ExpArgs::parse(
        exp,
        "maintained-overlay round throughput across n × threads: exact message \
         counts (compared) plus rounds/s and peak memory (wall clock)",
        &[
            Extra::Smoke("CI-sized grid (a few seconds end to end)"),
            Extra::Threads,
        ],
    );
    let (sizes, rounds): (&[usize], u64) = if args.smoke {
        (&[48, 64], 3)
    } else {
        (&[64, 128, 256], 10)
    };
    // A cell's `with_thread_cap` cannot exceed the ambient TSA_THREADS/cores
    // budget: grid points above the ceiling are dropped, not run mislabeled.
    let ambient = rayon::current_num_threads();
    let machine_threads = args.threads.map_or(ambient, |t| t.min(ambient));
    let mut thread_grid = vec![1, machine_threads.min(2)];
    if !args.smoke {
        thread_grid.push(machine_threads);
    }
    thread_grid.dedup();
    if args.list {
        let cells: Vec<String> = sizes
            .iter()
            .flat_map(|n| thread_grid.iter().map(move |t| (n, t)))
            .map(|(n, t)| format!("maintained_lds n={n} threads={t} seed={SEED} rounds={rounds}"))
            .collect();
        println!("{}", list_grid(exp, &cells));
        return;
    }

    let mut deterministic = Vec::new();
    let mut timing = Vec::new();
    let mut all_checks_pass = true;
    println!("{exp}: maintained_lds n ∈ {sizes:?} × threads ∈ {thread_grid:?}, {rounds} rounds");
    for &n in sizes {
        let mut at_n: Option<DetRow> = None;
        for &threads in &thread_grid {
            let (det, t) = rayon::with_thread_cap(threads, || measure(n, rounds));
            println!(
                "  n = {n:>3}, threads = {}: {:>7.1} rounds/s, {:>8} msgs sent, \
                 peak in-flight {:>8} msgs, VmHWM {} kB",
                t.threads,
                t.rounds_per_sec,
                det.messages_sent,
                det.peak_in_flight_messages,
                t.vm_hwm_kb,
            );
            timing.push(t);
            match &at_n {
                Some(first) => all_checks_pass &= *first == det,
                None => at_n = Some(det),
            }
        }
        deterministic.extend(at_n);
    }

    let doc = PerfDoc {
        exp,
        smoke: args.smoke,
        deterministic: DeterministicDoc {
            all_checks_pass,
            rows: deterministic,
        },
        timing: TimingDoc {
            machine_threads,
            rows: timing,
        },
    };
    let verdict = all_checks_pass
        .then_some(())
        .ok_or_else(|| "message counts differ across the threads axis".to_string());
    publish(
        exp,
        &args,
        &doc,
        Compared::Section("deterministic"),
        verdict,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rows_are_byte_equal_across_thread_caps() {
        let [one, two] = [1, 2].map(|cap| {
            let (det, _) = rayon::with_thread_cap(cap, || measure(48, 2));
            serde_json::to_string(&det).expect("rows serialize")
        });
        assert_eq!(one, two);
    }
}
