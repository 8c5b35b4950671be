//! Experiment PROFILE — the `tsa-obs` observability layer, exercised and
//! pinned across all three schedulers.
//!
//! One maintained run per scheduler — the synchronous round engine, the
//! virtual-time event engine under a sub-round constant latency, and the
//! loopback-TCP transport — each under seeded random churn with a
//! flight-recorder [`JournalRecorder`] attached, plus a fourth run of the
//! event engine under a mixed fault plan so the gated `proto.fault_*`
//! counters land in the byte-compared section. Two families of results come
//! out, mirroring `exp_net`:
//!
//! * **deterministic** — the protocol-derived counters and power-of-two
//!   histograms (`proto.*`, plus each simulator's own counters) of the round
//!   and event engines, faulted and clean. These are pure functions of
//!   `(seed, protocol)`: byte-identical across machines, thread caps and
//!   `TSA_THREADS` settings, so CI runs this binary twice at different
//!   thread counts and byte-compares the section. The section also carries
//!   the cross-checks: thread-cap invariance of the round engine (snapshot
//!   AND the ordered journal stream), `proto.*` identity between the round
//!   engine and a sub-round-latency event run, the transport's twin-counter
//!   pin (now over a faulted run, so `proto.fault_*` is inside the pin),
//!   journal-fold identity with the live snapshots, presence of nonzero
//!   fault counters, and the streaming-vs-full metrics digest pin.
//! * **timing** — the *transport's* counter snapshot: wall-clock scheduling
//!   makes its protocol trace run-dependent (a frame that lands just before a
//!   round boundary in one run lands just after it in the next), so its raw
//!   counters can never be byte-compared. Its deterministic claim is the
//!   twin pin instead — replaying the recorded message fates through the
//!   event engine (with the same fault plan) must reproduce the transport's
//!   `proto.*` counters and histograms, whatever those fates were
//!   (`proto.dropped` excluded: the replay attributes every undelivered
//!   fate as a drop, the transport only the frames it actively lost).
//!
//! `--smoke` shrinks the grid to a seconds-long CI-sized run.
//! `--journal <dir>` additionally writes the deterministic journal streams
//! (`journal.round.jsonl`, `journal.event.jsonl`,
//! `journal.event_faulted.jsonl` — the transport's journal is wall-clock
//! dependent and stays out) and a Chrome-trace `trace.json` with the phase
//! spans of all three engines, ready for Perfetto. Phase-span *medians* are
//! the traced pass of `benchmark/`, not this artifact.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use tsa_adversary::RandomChurnAdversary;
use tsa_analysis::{fmt_bool, Table};
use tsa_bench::{
    experiment_params, experiment_scenario, list_grid, publish, Compared, ExpArgs, Extra,
};
use tsa_core::{AsyncMaintenanceHarness, MaintenanceHarness, NetMaintenanceHarness};
use tsa_dash::{JournalRecorder, RunJournal, SpanSlice, TraceBuilder};
use tsa_obs::{DetSnapshot, ObsHandle};
use tsa_scenario::{AdversarySpec, FaultPlan, LatencyModel, MetricsMode, NetModel};

/// The milliseconds of wall clock one transport round occupies. Generous for
/// loopback, so the runs stay meaningful (mostly-delivered) without the
/// checks depending on it — the twin pin holds whatever the deadlines did.
const ROUND_MS: u64 = 25;

/// Departures per round the seeded churn adversary injects — enough to keep
/// neighbor repair (and its sampling-age probe) busy every round.
const CHURN_PER_ROUND: usize = 2;

/// The transport's network size: smaller than the engines' (wall-clock
/// bound), at either grid shape.
const NET_N: usize = 16;

/// The one seed every run of the grid shares.
const SEED: u64 = 29;

/// The grid: `(n, measured rounds)` of the round + event engines and the
/// transport's measured rounds.
fn grid(smoke: bool) -> (usize, u64, u64) {
    if smoke {
        (48, 4, 4)
    } else {
        (64, 8, 6)
    }
}

/// One scheduler's deterministic observability state.
#[derive(Serialize)]
struct EngineDet {
    engine: String,
    n: usize,
    seed: u64,
    /// Total rounds executed (bootstrap included).
    rounds: u64,
    snapshot: DetSnapshot,
}

/// The cross-checks pinned by this experiment (all must hold).
#[derive(Serialize)]
struct Checks {
    /// The round engine's deterministic state is byte-identical under
    /// thread caps 1 and 2 (counter/histogram updates are commutative).
    thread_caps_identical: bool,
    /// The round engine's ordered journal *stream* (not just the folded
    /// totals) is byte-identical under thread caps 1 and 2: deterministic
    /// events are only ever recorded from sequential sections.
    journal_identical_across_caps: bool,
    /// Folding each flight-recorder journal reproduces the live
    /// `DetSnapshot` byte-for-byte, on every engine including the transport.
    journal_fold_matches_snapshot: bool,
    /// `proto.*` state of a sub-round-latency event run is byte-identical
    /// to the round engine's.
    event_matches_round: bool,
    /// Replaying the transport's recorded message fates through the event
    /// engine — both sides under the same fault plan — reproduces the
    /// transport's `proto.*` state exactly, `proto.fault_*` included
    /// (`proto.dropped` excluded — drop *attribution* differs by design).
    net_twin_counters_match: bool,
    /// The faulted runs actually recorded nonzero `proto.fault_*` counters
    /// (the plan bit, the gate opened).
    fault_counters_recorded: bool,
    /// `MetricsMode::Streaming` folds to the exact `MetricsSummary` of
    /// `MetricsMode::Full`.
    streaming_digest_matches_full: bool,
}

/// The machine-invariant half of `BENCH_exp_profile.json`.
#[derive(Serialize)]
struct DeterministicDoc {
    all_checks_pass: bool,
    checks: Checks,
    round: EngineDet,
    event: EngineDet,
    /// The event engine under the mixed fault plan: same determinism
    /// contract as the clean run, with the gated `proto.fault_*` counters
    /// present and byte-compared.
    event_faulted: EngineDet,
}

/// The wall-clock half of `BENCH_exp_profile.json`.
#[derive(Serialize)]
struct TimingDoc {
    /// The transport's counters/histograms: run-dependent (see the module
    /// docs), so they live here, outside the byte-compared section. The
    /// twin pin in `deterministic.checks` is their correctness contract.
    net: EngineDet,
}

/// The `BENCH_exp_profile.json` document.
#[derive(Serialize)]
struct ProfileDoc {
    exp: String,
    smoke: bool,
    deterministic: DeterministicDoc,
    timing: TimingDoc,
}

/// Everything one flight-recorded run yields.
struct RunOut {
    det: DetSnapshot,
    journal: RunJournal,
    slices: Vec<SpanSlice>,
    /// Folding the journal reproduced `det` byte-for-byte.
    fold_ok: bool,
}

/// Drains one [`JournalRecorder`] into a [`RunOut`].
fn collect(rec: &JournalRecorder) -> RunOut {
    let det = rec.det_snapshot();
    let journal = rec.journal();
    let fold_ok = bytes_eq(&journal.fold(), &det);
    RunOut {
        slices: rec.slices(),
        journal,
        det,
        fold_ok,
    }
}

/// Runs the round engine with a [`JournalRecorder`] under a rayon thread cap.
fn round_run(n: usize, seed: u64, rounds: u64, cap: usize) -> RunOut {
    rayon::with_thread_cap(cap, || {
        let params = experiment_params(n);
        let mut h = MaintenanceHarness::assemble(
            params,
            RandomChurnAdversary::new(CHURN_PER_ROUND, seed),
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
        );
        let rec = Arc::new(JournalRecorder::new());
        h.set_obs(ObsHandle::new(rec.clone()));
        h.run_bootstrap();
        h.run(rounds);
        collect(&rec)
    })
}

/// Runs the event engine under a sub-round constant latency (0.5 rounds):
/// every message still lands by its next boundary, so with no faults the
/// protocol trace — and therefore every `proto.*` counter — must match the
/// round engine's. With a fault plan the gated `proto.fault_*` counters
/// appear, still a pure function of the seed.
fn event_run(n: usize, seed: u64, rounds: u64, faults: Option<FaultPlan>) -> RunOut {
    let params = experiment_params(n);
    let mut h = AsyncMaintenanceHarness::assemble(
        params,
        RandomChurnAdversary::new(CHURN_PER_ROUND, seed),
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        NetModel::new(LatencyModel::constant(500)),
    );
    if let Some(plan) = faults {
        h.set_faults(plan);
    }
    let rec = Arc::new(JournalRecorder::new());
    h.set_obs(ObsHandle::new(rec.clone()));
    h.run_bootstrap();
    h.run(rounds);
    collect(&rec)
}

/// Runs the loopback transport under the mixed fault plan (every action
/// kind at low probability; decisions are a pure function of `(seed, frame
/// sequence)`, so the `proto.fault_*` counters are deterministic on the
/// event engine and twin-pinned on the transport) with a
/// [`JournalRecorder`], then replays its recorded trace through the
/// event-engine twin (same plan) with its own recorder. Returns the
/// transport's run plus the twin's deterministic snapshot.
fn net_run(n: usize, seed: u64, rounds: u64) -> (RunOut, DetSnapshot) {
    let params = experiment_params(n);
    let total = params.bootstrap_rounds() + rounds;
    let mut real = NetMaintenanceHarness::assemble(
        params,
        RandomChurnAdversary::new(CHURN_PER_ROUND, seed),
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(ROUND_MS),
    );
    real.set_faults(FaultPlan::mixed());
    let rec = Arc::new(JournalRecorder::new());
    real.set_obs(ObsHandle::new(rec.clone()));
    real.run(total);

    let mut twin = real.twin(RandomChurnAdversary::new(CHURN_PER_ROUND, seed));
    let twin_rec = Arc::new(JournalRecorder::new());
    twin.set_obs(ObsHandle::new(twin_rec.clone()));
    twin.run(total);

    (collect(&rec), twin_rec.det_snapshot())
}

/// Removes one counter from a snapshot before comparison.
fn without_counter(mut snap: DetSnapshot, name: &str) -> DetSnapshot {
    snap.counters.retain(|c| c.name != name);
    snap
}

/// The sum of the gated fault counters in a snapshot.
fn fault_total(snap: &DetSnapshot) -> u64 {
    ["dropped", "delayed", "duplicated", "mutated"]
        .iter()
        .map(|kind| snap.counter(&format!("proto.fault_{kind}")))
        .sum()
}

/// Byte equality of two serializable snapshots.
fn bytes_eq<T: Serialize>(a: &T, b: &T) -> bool {
    serde_json::to_string(a).expect("snapshots serialize")
        == serde_json::to_string(b).expect("snapshots serialize")
}

/// Writes the journal streams and the phase-span trace under `dir`.
fn write_journals(dir: &PathBuf, runs: &[(&str, &RunOut)]) {
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let mut trace = TraceBuilder::new();
    for (i, (engine, run)) in runs.iter().enumerate() {
        let pid = i as u64 + 1;
        trace.process_name(pid, engine);
        trace.thread_name(pid, 1, "phases");
        trace.slices_from(pid, 1, &run.slices);
        // The transport's journal stream is wall-clock dependent; only the
        // deterministic engines export one.
        if *engine == "net" {
            continue;
        }
        let path = dir.join(format!("journal.{engine}.jsonl"));
        if let Err(err) = std::fs::write(&path, run.journal.to_jsonl()) {
            eprintln!("warning: could not write {}: {err}", path.display());
        }
    }
    let path = dir.join("trace.json");
    if let Err(err) = std::fs::write(&path, trace.to_json()) {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
}

fn main() {
    let exp = "exp_profile";
    let args = ExpArgs::parse(
        exp,
        "the tsa-obs observability layer across all three schedulers: \
         deterministic counters/histograms (CI byte-compares them), the \
         flight-recorder journal, fault counters and the transport's \
         twin-counter pin",
        &[
            Extra::Smoke("CI-sized run (a few seconds end to end)"),
            Extra::Journal,
        ],
    );

    let (n, rounds, net_rounds) = grid(args.smoke);
    let seed = SEED;
    let round_total = experiment_params(n).bootstrap_rounds() + rounds;
    let net_total = experiment_params(NET_N).bootstrap_rounds() + net_rounds;
    if args.list {
        let cells = [
            format!("round n={n} seed={seed} rounds={round_total} churn={CHURN_PER_ROUND}"),
            format!(
                "event n={n} seed={seed} rounds={round_total} churn={CHURN_PER_ROUND} latency=500t"
            ),
            format!(
                "event n={n} seed={seed} rounds={round_total} churn={CHURN_PER_ROUND} latency=500t faults=mixed"
            ),
            format!(
                "net n={NET_N} seed={seed} rounds={net_total} churn={CHURN_PER_ROUND} round_ms={ROUND_MS} faults=mixed"
            ),
        ];
        println!("{}", list_grid(exp, &cells));
        return;
    }
    let reporter = args.reporter();

    // Round engine, twice: the thread-cap invariance check is the first
    // deterministic claim of the obs layer. Cap 1 is the canonical run. The
    // journal stream — event ORDER, not just folded totals — must also be
    // cap-invariant, because deterministic events only ever originate from
    // the engines' sequential sections.
    reporter.note(&format!(
        "[{exp}] round engine n={n} ({round_total} rounds, thread caps 1 and 2)"
    ));
    let round = round_run(n, seed, rounds, 1);
    let round_cap2 = round_run(n, seed, rounds, 2);

    reporter.note(&format!(
        "[{exp}] event engine n={n} (sub-round latency twin, clean + faulted)"
    ));
    let event = event_run(n, seed, rounds, None);
    let event_faulted = event_run(n, seed, rounds, Some(FaultPlan::mixed()));

    reporter.note(&format!(
        "[{exp}] loopback transport n={NET_N} ({net_total} wall-clock rounds, faulted) + twin replay"
    ));
    let (net, twin_det) = net_run(NET_N, seed, net_rounds);

    // The metrics-mode pin: a streaming run's digest must equal the exact
    // digest of a full run, which keeps its per-round history.
    reporter.note(&format!("[{exp}] streaming-vs-full metrics digest"));
    let scenario = || {
        experiment_scenario(n)
            .adversary(AdversarySpec::random(CHURN_PER_ROUND, seed))
            .seed(seed)
    };
    let full = scenario().run(rounds);
    let streaming = scenario().metrics_mode(MetricsMode::Streaming).run(rounds);
    let fm = full.maintenance.as_ref().expect("maintained outcome");
    let sm = streaming.maintenance.as_ref().expect("maintained outcome");

    let checks = Checks {
        thread_caps_identical: bytes_eq(&round.det, &round_cap2.det),
        journal_identical_across_caps: round.journal.to_jsonl() == round_cap2.journal.to_jsonl(),
        journal_fold_matches_snapshot: [&round, &round_cap2, &event, &event_faulted, &net]
            .iter()
            .all(|run| run.fold_ok),
        event_matches_round: bytes_eq(&round.det.filtered("proto."), &event.det.filtered("proto.")),
        // Drop attribution differs by design: the replay accounts every
        // undelivered fate as dropped at the boundary it missed, while the
        // transport counts only frames it actively lost — end-of-run
        // in-flight frames are neither. The twin contract (like `exp_net`'s)
        // pins everything else: sent, delivered, every histogram, and — both
        // sides running the same fault plan — every `proto.fault_*` counter.
        net_twin_counters_match: bytes_eq(
            &without_counter(net.det.filtered("proto."), "proto.dropped"),
            &without_counter(twin_det.filtered("proto."), "proto.dropped"),
        ),
        fault_counters_recorded: fault_total(&event_faulted.det) > 0 && fault_total(&net.det) > 0,
        streaming_digest_matches_full: fm.metrics_summary == sm.metrics_summary
            && sm.metrics.is_none(),
    };
    let pins = [
        (
            "round engine byte-identical at thread caps 1/2",
            checks.thread_caps_identical,
        ),
        (
            "journal stream byte-identical at thread caps 1/2",
            checks.journal_identical_across_caps,
        ),
        (
            "journal folds to the live snapshot (all engines)",
            checks.journal_fold_matches_snapshot,
        ),
        (
            "proto.* identical: round vs sub-round event",
            checks.event_matches_round,
        ),
        (
            "proto.* identical: faulted transport vs its twin replay",
            checks.net_twin_counters_match,
        ),
        (
            "gated proto.fault_* counters recorded",
            checks.fault_counters_recorded,
        ),
        (
            "streaming metrics fold to the full digest",
            checks.streaming_digest_matches_full,
        ),
    ];
    let all_checks_pass = pins.iter().all(|&(_, holds)| holds);

    // The four runs: (engine name in the artifact, table label, n, total
    // rounds, the run).
    let engines = [
        ("round", "round", n, round_total, &round),
        ("event", "event", n, round_total, &event),
        (
            "event_faulted",
            "event+faults",
            n,
            round_total,
            &event_faulted,
        ),
        ("net", "net+faults", NET_N, net_total, &net),
    ];

    let mut table = Table::new(
        "Observability across the three schedulers (net columns are run-dependent)",
        &[
            "engine",
            "n",
            "rounds",
            "proto.sent",
            "proto.delivered",
            "faults",
            "inbox max",
            "journal events",
        ],
    );
    for (_, label, n, _, run) in engines {
        let inbox_max = run
            .det
            .histogram("proto.inbox_len")
            .map(|h| h.max)
            .unwrap_or(0);
        table.row(vec![
            label.to_string(),
            n.to_string(),
            run.det.counter("proto.rounds").to_string(),
            run.det.counter("proto.sent").to_string(),
            run.det.counter("proto.delivered").to_string(),
            fault_total(&run.det).to_string(),
            inbox_max.to_string(),
            run.journal.len().to_string(),
        ]);
    }
    println!("{}", table.to_markdown());

    let mut check_table = Table::new("Observability pins", &["check", "holds"]);
    for (check, holds) in pins {
        check_table.row(vec![check.to_string(), fmt_bool(holds)]);
    }
    println!("{}", check_table.to_markdown());
    println!(
        "The deterministic section (round + event + faulted-event snapshots, all seven\n\
         pins) is a pure function of (seed, protocol): CI runs this binary twice at\n\
         different TSA_THREADS and byte-compares it, journal streams included. The\n\
         timing section — the transport's wall-clock-dependent counters — is excluded;\n\
         the transport's contract is the twin pin, not byte identity."
    );

    if let Some(dir) = &args.journal {
        write_journals(dir, &engines.map(|(engine, _, _, _, run)| (engine, run)));
        reporter.note(&format!(
            "[{exp}] journal streams + trace.json written under {}",
            dir.display()
        ));
    }

    let [round_det, event_det, event_faulted_det, net_det] =
        engines.map(|(engine, _, n, rounds, run)| EngineDet {
            engine: engine.to_string(),
            n,
            seed,
            rounds,
            snapshot: run.det.clone(),
        });
    let doc = ProfileDoc {
        exp: exp.to_string(),
        smoke: args.smoke,
        deterministic: DeterministicDoc {
            all_checks_pass,
            checks,
            round: round_det,
            event: event_det,
            event_faulted: event_faulted_det,
        },
        timing: TimingDoc { net: net_det },
    };
    // Only the deterministic section is byte-compared — the timing section
    // depends on the wall clock and is never byte-stable.
    let verdict = all_checks_pass
        .then_some(())
        .ok_or_else(|| "an observability pin failed".to_string());
    publish(
        exp,
        &args,
        &doc,
        Compared::Section("deterministic"),
        verdict,
    );
}
