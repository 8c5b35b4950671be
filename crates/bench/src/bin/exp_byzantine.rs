//! Experiment BYZANTINE — misbehaving nodes and injected faults.
//!
//! The paper's adversary controls *churn*: it may remove and insert nodes,
//! but every node that is in the network follows the protocol. This
//! experiment measures what happens when that assumption is dropped. A
//! [`ByzantineSpec`] marks an id slice as misbehaving (stale position
//! claims, forged positions, selective forwarding, bogus replies) and a
//! [`FaultPlan`] injects message-level faults (drop / delay / duplicate /
//! mutate) at the engines' delivery boundary. Three families of results:
//!
//! * **anchors** — the zero-fraction contract. Byzantine fraction 0 and the
//!   empty fault plan must reproduce the fault-free baselines byte for byte
//!   (report and snapshots on the round engine, report and zero fault
//!   counters on the event engine).
//! * **breaking points** — for each misbehavior kind, a sweep over the
//!   byzantine fraction on the round engine: the smallest fraction at which
//!   the swarm property ([`is_routable`](tsa_core::MaintenanceReport::is_routable)) fails. This is
//!   the measured analogue of the paper's all-honest assumption.
//! * **twins** — the cross-engine contract under faults. A loopback-TCP run
//!   with a non-empty fault plan and byzantine nodes, trace-replayed through
//!   the event engine under the *same* plan, must reproduce the transport's
//!   protocol state exactly — fault decisions are a pure function of
//!   `(seed, seq)`, so both engines take them byte-identically.
//!
//! Every field written to `BENCH_exp_byzantine.json` is machine-invariant (a
//! pure function of the seeds; the twin booleans hold regardless of recorded
//! fates), so CI byte-compares the artifact. Wall-clock numbers go to stdout
//! only. `--smoke` shrinks the grid to the CI-sized run whose output is the
//! committed artifact.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::{Duration, Instant};

use serde::Serialize;
use tsa_analysis::{fmt_bool, fmt_f, Table};
use tsa_bench::{experiment_params, list_grid, publish, Compared, ExpArgs, Extra};
use tsa_core::{
    AsyncMaintenanceHarness, ByzantineSpec, MaintenanceHarness, MaintenanceParams, MisbehaviorKind,
    NetMaintenanceHarness,
};
use tsa_scenario::{FaultPlan, LatencyModel, NetModel};
use tsa_sim::NullAdversary;

/// The milliseconds of wall clock one protocol round occupies on the
/// loopback transport (same choice as `exp_net`).
const ROUND_MS: u64 = 15;

/// A byzantine fraction `num/den`, kept exact for byte-stable JSON.
#[derive(Clone, Copy, Serialize)]
struct Fraction {
    num: u64,
    den: u64,
}

/// One fraction of one misbehavior kind's breaking-point sweep.
#[derive(Serialize)]
struct BreakingCell {
    num: u64,
    den: u64,
    routable: bool,
    participation_rate: f64,
    largest_component_fraction: f64,
    min_swarm_size: usize,
}

/// The breaking-point sweep of one misbehavior kind.
#[derive(Serialize)]
struct BreakingRow {
    kind: String,
    n: usize,
    rounds: u64,
    seed: u64,
    cells: Vec<BreakingCell>,
    /// Smallest swept fraction at which the swarm property fails, `null`
    /// when every swept fraction stays routable.
    breaking_point: Option<Fraction>,
}

/// The zero-fraction / empty-plan anchors (see the module docs).
#[derive(Serialize)]
struct AnchorDoc {
    /// Fraction `0/den` of every misbehavior kind reproduces the honest
    /// round-engine run byte for byte (report and snapshots).
    rounds_fraction_zero_matches_honest: bool,
    /// A zero-delay event run under `FaultPlan::default()` reproduces the
    /// honest round-engine report byte for byte.
    event_empty_plan_matches_honest: bool,
    /// Fraction `0/den` on the zero-delay event engine reproduces the honest
    /// round-engine report byte for byte.
    event_fraction_zero_matches_honest: bool,
    /// The empty plan fired no fault at all.
    empty_plan_injects_nothing: bool,
}

/// One transport-vs-twin cell under a non-empty fault plan.
#[derive(Serialize)]
struct TwinCell {
    kind: String,
    n: usize,
    rounds: u64,
    seed: u64,
    plan: String,
    /// Replaying the recorded trace under the same plan reproduced the
    /// transport's report, membership and every node snapshot.
    outcome_match: bool,
    /// The trace holds exactly one fate per message the transport sent
    /// (duplicates included).
    trace_complete: bool,
    /// Both engines took byte-identical fault decisions.
    fault_stats_match: bool,
}

/// The machine-invariant document CI byte-compares.
#[derive(Serialize)]
struct DeterministicDoc {
    all_match: bool,
    anchors: AnchorDoc,
    breaking: Vec<BreakingRow>,
    twins: Vec<TwinCell>,
}

/// The `BENCH_exp_byzantine.json` document.
#[derive(Serialize)]
struct ByzantineDoc {
    exp: String,
    smoke: bool,
    deterministic: DeterministicDoc,
}

/// The swept byzantine fractions (numerators over [`DEN`]).
const DEN: u64 = 16;

fn fraction_nums(smoke: bool) -> Vec<u64> {
    if smoke {
        vec![0, 1, 4, 8]
    } else {
        vec![0, 1, 2, 4, 8, 12]
    }
}

fn breaking_n(smoke: bool) -> usize {
    if smoke {
        48
    } else {
        64
    }
}

/// Runs a round-engine maintained scenario and returns the harness.
fn run_rounds(
    params: MaintenanceParams,
    seed: u64,
    rounds: u64,
) -> MaintenanceHarness<NullAdversary> {
    let mut h = MaintenanceHarness::assemble(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
    );
    h.run_bootstrap();
    h.run(rounds);
    h
}

fn run_anchors(smoke: bool, seed: u64) -> AnchorDoc {
    let n = breaking_n(smoke);
    let rounds = 6;
    let params = experiment_params(n);
    let honest = run_rounds(params, seed, rounds);
    let honest_print = honest.fingerprint();

    let rounds_fraction_zero_matches_honest = MisbehaviorKind::ALL.iter().all(|&kind| {
        let byz = run_rounds(
            params.with_byzantine(ByzantineSpec::fraction(0, DEN, kind)),
            seed,
            rounds,
        );
        byz.fingerprint() == honest_print
    });

    // The event-engine anchors: zero delay is the round engine bit for bit,
    // so the empty plan / zero fraction must land exactly on the honest
    // report.
    let run_event = |params: MaintenanceParams, plan: Option<FaultPlan>| {
        let mut h = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
            NetModel::new(LatencyModel::constant(0)),
        );
        if let Some(plan) = plan {
            h.set_faults(plan);
        }
        h.run_bootstrap();
        h.run(rounds);
        h
    };
    let empty_plan = run_event(params, Some(FaultPlan::default()));
    let event_empty_plan_matches_honest = empty_plan.fingerprint() == honest_print;
    let empty_plan_injects_nothing = empty_plan.fault_stats().total() == 0;

    let zero = ByzantineSpec::fraction(0, DEN, MisbehaviorKind::BogusReplies);
    let zero_fraction = run_event(params.with_byzantine(zero), None);
    let event_fraction_zero_matches_honest = zero_fraction.fingerprint() == honest_print;

    AnchorDoc {
        rounds_fraction_zero_matches_honest,
        event_empty_plan_matches_honest,
        event_fraction_zero_matches_honest,
        empty_plan_injects_nothing,
    }
}

fn run_breaking(smoke: bool, seed: u64) -> Vec<BreakingRow> {
    let n = breaking_n(smoke);
    let rounds = 8;
    let params = experiment_params(n);
    MisbehaviorKind::ALL
        .iter()
        .map(|&kind| {
            let mut cells = Vec::new();
            let mut breaking_point = None;
            for &num in &fraction_nums(smoke) {
                let spec = ByzantineSpec::fraction(num, DEN, kind);
                let h = run_rounds(params.with_byzantine(spec), seed, rounds);
                let report = h.report();
                let routable = report.is_routable();
                if !routable && breaking_point.is_none() {
                    breaking_point = Some(Fraction { num, den: DEN });
                }
                cells.push(BreakingCell {
                    num,
                    den: DEN,
                    routable,
                    participation_rate: report.participation_rate,
                    largest_component_fraction: report.largest_component_fraction,
                    min_swarm_size: report.min_swarm_size,
                });
            }
            BreakingRow {
                kind: kind.label().to_string(),
                n,
                rounds,
                seed,
                cells,
                breaking_point,
            }
        })
        .collect()
}

/// The `(misbehavior kind, seed)` cells of the transport-vs-twin check.
fn twin_kinds(smoke: bool) -> &'static [(MisbehaviorKind, u64)] {
    if smoke {
        &[
            (MisbehaviorKind::SelectiveForward, 17),
            (MisbehaviorKind::ForgedPosition, 23),
        ]
    } else {
        &[
            (MisbehaviorKind::StaleClaims, 11),
            (MisbehaviorKind::ForgedPosition, 23),
            (MisbehaviorKind::SelectiveForward, 17),
            (MisbehaviorKind::BogusReplies, 29),
        ]
    }
}

fn run_twins(smoke: bool) -> Vec<TwinCell> {
    let n = 16;
    let measured = 4;
    let params = experiment_params(n);
    // The mixed plan: every action kind fires, so the cross-engine pin
    // covers drop, delay, duplicate *and* mutate in one trace.
    let plan = FaultPlan::mixed();
    twin_kinds(smoke)
        .iter()
        .map(|&(kind, seed)| {
            let byz_params = params.with_byzantine(ByzantineSpec::fraction(1, 8, kind));
            let total_rounds = byz_params.bootstrap_rounds() + measured;
            let mut real = NetMaintenanceHarness::assemble(
                byz_params,
                NullAdversary,
                seed,
                byz_params.paper_churn_rules(),
                byz_params.paper_lateness(),
                Duration::from_millis(ROUND_MS),
            );
            real.set_faults(plan.clone());
            real.run(total_rounds);
            let trace_complete = real.trace().len() as u64 == real.net_stats().sent;

            let mut twin = real.twin(NullAdversary);
            twin.run(total_rounds);
            let outcome_match =
                real.member_ids() == twin.member_ids() && real.fingerprint() == twin.fingerprint();
            let fault_stats_match = real.fault_stats() == twin.fault_stats();
            TwinCell {
                kind: kind.label().to_string(),
                n,
                rounds: total_rounds,
                seed,
                plan: plan.label(),
                outcome_match,
                trace_complete,
                fault_stats_match,
            }
        })
        .collect()
}

fn main() {
    let exp = "exp_byzantine";
    let args = ExpArgs::parse(
        exp,
        "byzantine misbehavior and injected faults: zero-fraction anchors, \
         per-kind breaking points of the swarm property, and the cross-engine \
         fault twin",
        &[Extra::Smoke("CI-sized grid (under a minute end to end)")],
    );
    let smoke = args.smoke;

    if args.list {
        let breaking = MisbehaviorKind::ALL.iter().flat_map(|kind| {
            fraction_nums(smoke).into_iter().map(move |num| {
                format!(
                    "breaking n={} kind={} byz={num}/{DEN}",
                    breaking_n(smoke),
                    kind.label()
                )
            })
        });
        let twins = twin_kinds(smoke)
            .iter()
            .map(|(kind, seed)| format!("twin kind={} seed={seed}", kind.label()));
        println!(
            "{}",
            list_grid(exp, &breaking.chain(twins).collect::<Vec<_>>())
        );
        return;
    }

    let seed = 17;
    let start = Instant::now();
    let anchors = run_anchors(smoke, seed);
    let breaking = run_breaking(smoke, seed);
    let twins = run_twins(smoke);
    let elapsed = start.elapsed();

    let mut table = Table::new(
        "Breaking points of the swarm property per misbehavior kind",
        &["kind", "n", "fractions (routable?)", "breaking point"],
    );
    for row in &breaking {
        let sweep = row
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{}/{}:{}",
                    c.num,
                    c.den,
                    if c.routable { "ok" } else { "FAIL" }
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        table.row(vec![
            row.kind.clone(),
            row.n.to_string(),
            sweep,
            match row.breaking_point {
                Some(f) => format!("{}/{}", f.num, f.den),
                None => "none observed".to_string(),
            },
        ]);
    }
    println!("{}", table.to_markdown());

    let mut twin_table = Table::new(
        "Transport vs event twin under a mixed fault plan",
        &["kind", "plan", "twin match", "fault stats match"],
    );
    for t in &twins {
        twin_table.row(vec![
            t.kind.clone(),
            t.plan.clone(),
            fmt_bool(t.outcome_match && t.trace_complete),
            fmt_bool(t.fault_stats_match),
        ]);
    }
    println!("{}", twin_table.to_markdown());
    println!(
        "Anchors: rounds byz-0 {} | event empty-plan {} | event byz-0 {} | zero injected {}",
        fmt_bool(anchors.rounds_fraction_zero_matches_honest),
        fmt_bool(anchors.event_empty_plan_matches_honest),
        fmt_bool(anchors.event_fraction_zero_matches_honest),
        fmt_bool(anchors.empty_plan_injects_nothing),
    );
    println!(
        "Everything in BENCH_{exp}.json is machine-invariant (CI byte-compares it); \
         wall clock: {}",
        fmt_f(elapsed.as_secs_f64())
    );

    let all_match = anchors.rounds_fraction_zero_matches_honest
        && anchors.event_empty_plan_matches_honest
        && anchors.event_fraction_zero_matches_honest
        && anchors.empty_plan_injects_nothing
        && twins
            .iter()
            .all(|t| t.outcome_match && t.trace_complete && t.fault_stats_match);
    let doc = ByzantineDoc {
        exp: exp.to_string(),
        smoke,
        deterministic: DeterministicDoc {
            all_match,
            anchors,
            breaking,
            twins,
        },
    };
    // This artifact carries no timing section — it is machine-invariant in
    // full, so the compare gate is whole-file byte equality.
    let verdict = all_match
        .then_some(())
        .ok_or_else(|| "an anchor or twin check failed".to_string());
    publish(exp, &args, &doc, Compared::Whole, Vec::new(), verdict);
}
