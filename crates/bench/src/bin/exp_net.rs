//! Experiment NET — the overlay on a real transport, twinned with the model.
//!
//! Every other experiment runs the protocol inside a simulator. This one
//! runs it over loopback TCP: each node owns a real socket, every protocol
//! message travels as a length-prefixed frame, and rounds are wall-clock
//! intervals (`tsa-net`'s `NetRunner`). Two families of results come out:
//!
//! * **deterministic** — the twin contract. The transport records every
//!   message's fate in a `MessageTrace`; replaying that trace through the
//!   event engine must reproduce the transport run's protocol state exactly
//!   (report, membership, per-node snapshots), and the twin's `NetStats`
//!   must account the same message count. These booleans are invariant
//!   across machines and load — a slow CI records different fates, but the
//!   replay still matches — so CI byte-compares this section against the
//!   committed artifact.
//! * **timing** — what the wall clock saw: rounds/s, loopback frames/s,
//!   bytes on the wire, and the frames the deadline scheduler lost. These
//!   fields depend on the machine and are *excluded* from byte-identity
//!   checks.
//!
//! `--smoke` shrinks the grid to the CI-sized run whose deterministic
//! section is the committed `BENCH_exp_net.json`.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::{Duration, Instant};

use serde::Serialize;
use tsa_adversary::{RandomChurnAdversary, TargetedSwarmAdversary};
use tsa_analysis::{fmt_bool, fmt_f, Table};
use tsa_bench::{experiment_params, list_grid, publish, Compared, ExpArgs, Extra};
use tsa_core::NetMaintenanceHarness;
use tsa_sim::{Adversary, NullAdversary};

/// One cell of the grid: an adversary regime at a network size and seed.
#[derive(Clone, Copy)]
struct NetCell {
    label: &'static str,
    adversary: AdvKind,
    n: usize,
    /// The milliseconds of wall clock one protocol round occupies: a round
    /// the receiving side can hold at this `n` (the poller decodes every
    /// frame of a round before the next boundary), so that the run is
    /// mostly-delivered without depending on it.
    round_ms: u64,
    rounds: u64,
    seed: u64,
}

/// The adversary regimes the transport is exercised under.
#[derive(Clone, Copy)]
enum AdvKind {
    Null,
    Random(usize),
    Targeted(usize),
}

/// The machine-invariant half of one cell's result (see the module docs).
#[derive(Serialize)]
struct DeterministicCell {
    label: String,
    n: usize,
    rounds: u64,
    seed: u64,
    round_ms: u64,
    /// Replaying the recorded trace reproduced the transport's report,
    /// membership and every node snapshot.
    outcome_match: bool,
    /// The trace holds exactly one fate per message the transport sent.
    trace_complete: bool,
    /// The replay's `NetStats.sent` equals the transport's — the simulator
    /// predicts the on-wire message count exactly.
    sent_matches_twin: bool,
}

/// The wall-clock half of one cell's result (machine-dependent).
#[derive(Serialize)]
struct TimingCell {
    label: String,
    n: usize,
    routable: bool,
    /// Rounds whose deliver, compute and sends used up the whole round
    /// duration, leaving the poller no barrier to read their frames in.
    overrun_rounds: u64,
    /// Frames read two or more boundaries after their send round: a whole
    /// barrier or more too late for the synchronous model.
    late_frames: u64,
    elapsed_ms: u64,
    rounds_per_sec: f64,
    msgs_per_sec: f64,
    /// Protocol messages handed to the transport.
    sent: u64,
    /// Messages that missed their round deadline (or a closed socket).
    lost: u64,
    /// Frames actually written to loopback sockets.
    frames_sent: u64,
    /// Bytes actually written to loopback sockets.
    bytes_sent: u64,
    /// Mean frame size, header included.
    bytes_per_frame: f64,
}

/// The `BENCH_exp_net.json` document.
#[derive(Serialize)]
struct NetDoc {
    exp: String,
    smoke: bool,
    deterministic: DeterministicDoc,
    timing: TimingDoc,
}

#[derive(Serialize)]
struct DeterministicDoc {
    all_match: bool,
    cells: Vec<DeterministicCell>,
}

#[derive(Serialize)]
struct TimingDoc {
    cells: Vec<TimingCell>,
}

/// The grid; `--smoke` runs its first three cells (`n = 16`).
fn grid(smoke: bool) -> Vec<NetCell> {
    let cell = |label, adversary, n, round_ms, rounds, seed| NetCell {
        label,
        adversary,
        n,
        round_ms,
        rounds,
        seed,
    };
    let mut cells = vec![
        cell("null", AdvKind::Null, 16, 15, 4, 17),
        cell("random-churn", AdvKind::Random(2), 16, 15, 6, 5),
        cell("targeted-swarm", AdvKind::Targeted(2), 16, 15, 6, 7),
        cell("null", AdvKind::Null, 32, 100, 6, 17),
        cell("random-churn", AdvKind::Random(3), 32, 100, 8, 42),
        cell("targeted-swarm", AdvKind::Targeted(2), 32, 100, 8, 31),
    ];
    if smoke {
        cells.truncate(3);
    }
    cells
}

/// Runs one cell on the transport, replays its trace through the event
/// engine, and reports both halves of the comparison.
fn run_cell<A: Adversary>(
    cell: &NetCell,
    make_adversary: impl Fn() -> A,
) -> (DeterministicCell, TimingCell) {
    let params = experiment_params(cell.n);
    let total_rounds = params.bootstrap_rounds() + cell.rounds;
    let mut real = NetMaintenanceHarness::assemble(
        params,
        make_adversary(),
        cell.seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(cell.round_ms),
    );
    let start = Instant::now();
    real.run(total_rounds);
    let elapsed = start.elapsed();

    let stats = real.net_stats();
    let wire = real.wire_stats();
    let trace_complete = real.trace().len() as u64 == stats.sent;

    let mut twin = real.twin(make_adversary());
    twin.run(total_rounds);
    let outcome_match =
        real.member_ids() == twin.member_ids() && real.fingerprint() == twin.fingerprint();
    let sent_matches_twin = twin.net_stats().sent == stats.sent;

    let secs = elapsed.as_secs_f64().max(1e-9);
    (
        DeterministicCell {
            label: cell.label.to_string(),
            n: cell.n,
            rounds: total_rounds,
            seed: cell.seed,
            round_ms: cell.round_ms,
            outcome_match,
            trace_complete,
            sent_matches_twin,
        },
        TimingCell {
            label: cell.label.to_string(),
            n: cell.n,
            routable: real.report().is_routable(),
            overrun_rounds: real.overrun_rounds(),
            late_frames: real.late_frames(),
            elapsed_ms: elapsed.as_millis() as u64,
            rounds_per_sec: total_rounds as f64 / secs,
            msgs_per_sec: wire.frames_sent as f64 / secs,
            sent: stats.sent,
            lost: stats.lost,
            frames_sent: wire.frames_sent,
            bytes_sent: wire.bytes_sent,
            bytes_per_frame: if wire.frames_sent == 0 {
                0.0
            } else {
                wire.bytes_sent as f64 / wire.frames_sent as f64
            },
        },
    )
}

fn main() {
    let exp = "exp_net";
    let args = ExpArgs::parse(
        exp,
        "the maintained overlay over loopback TCP: wall-clock throughput, bytes \
         on the wire, and the deterministic-twin replay check",
        &[Extra::Smoke("CI-sized grid (a few seconds end to end)")],
    );

    let cells = grid(args.smoke);
    if args.list {
        let labels: Vec<String> = cells
            .iter()
            .map(|cell| {
                let rounds = experiment_params(cell.n).bootstrap_rounds() + cell.rounds;
                format!(
                    "net n={} adv={} seed={} rounds={rounds} round_ms={}",
                    cell.n, cell.label, cell.seed, cell.round_ms
                )
            })
            .collect();
        println!("{}", list_grid(exp, &labels));
        return;
    }

    let mut deterministic = Vec::new();
    let mut timing = Vec::new();
    for cell in &cells {
        let (d, t) = match cell.adversary {
            AdvKind::Null => run_cell(cell, || NullAdversary),
            AdvKind::Random(k) => run_cell(cell, || RandomChurnAdversary::new(k, cell.seed)),
            AdvKind::Targeted(k) => run_cell(cell, || TargetedSwarmAdversary::new(k, cell.seed)),
        };
        deterministic.push(d);
        timing.push(t);
    }

    let mut table = Table::new(
        "Loopback transport vs its deterministic twin",
        &[
            "n",
            "adversary",
            "twin match",
            "routable",
            "overruns",
            "late frames",
            "rounds/s",
            "msgs/s",
            "wire bytes",
            "lost",
        ],
    );
    for (d, t) in deterministic.iter().zip(&timing) {
        table.row(vec![
            t.n.to_string(),
            t.label.clone(),
            fmt_bool(d.outcome_match && d.trace_complete && d.sent_matches_twin),
            fmt_bool(t.routable),
            t.overrun_rounds.to_string(),
            t.late_frames.to_string(),
            fmt_f(t.rounds_per_sec),
            fmt_f(t.msgs_per_sec),
            t.bytes_sent.to_string(),
            t.lost.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "The twin-match column is the transport's correctness contract: the recorded\n\
         fates, replayed through the event engine, reproduce the loopback run's protocol\n\
         state exactly. Timing columns are machine-dependent and excluded from CI's\n\
         byte-identity checks."
    );

    let all_match = deterministic
        .iter()
        .all(|d| d.outcome_match && d.trace_complete && d.sent_matches_twin);
    let doc = NetDoc {
        exp: exp.to_string(),
        smoke: args.smoke,
        deterministic: DeterministicDoc {
            all_match,
            cells: deterministic,
        },
        timing: TimingDoc { cells: timing },
    };
    let verdict = all_match
        .then_some(())
        .ok_or_else(|| "a transport run diverged from its deterministic twin".to_string());
    publish(
        exp,
        &args,
        &doc,
        Compared::Section("deterministic"),
        verdict,
    );
}
