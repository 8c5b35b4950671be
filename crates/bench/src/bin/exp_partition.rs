//! Experiment PARTITION — does the overlay heal a partial partition?
//!
//! The paper's "two steps ahead" maintenance is proved under a uniform
//! communication medium. This experiment splits the id space into two halves
//! joined by a slow, lossy *bridge* ([`Topology::Regions`] over
//! `RegionAssign::halves(n/2)`) and asks the next structural question: does
//! asymmetric delay starve the cross-boundary CREATE/CONNECT handshakes the
//! swarm property depends on, and after a *finite* partition, how fast does
//! the overlay re-knit across the boundary?
//!
//! Three parts, all deterministic (the event engine is sequential and every
//! message fate is a pure function of `(seed, seq)`):
//!
//! * `bridge`: a declarative sweep over bridge latency × bridge loss with
//!   the partition permanent from the end of bootstrap — survival,
//!   participation and swarm size against the intact baseline;
//! * `healing`: a sweep over partition *duration* (a
//!   [`PartitionSchedule`] window that heals at round R) under `n/4`
//!   random churn — does routability come back once the bridge does?
//! * a round-by-round probe (the `extra` payload): for each bridge severity
//!   × duration, step the async harness one boundary at a time and record
//!   when the overlay is routable again and how many cross-region
//!   communication edges exist — `rounds_to_reconnect` against the
//!   two-round rebuild-cadence prediction (the overlay two epochs after the
//!   heal is built entirely from post-heal messages, so reconnection should
//!   take O(1) cadences: ≲ 2·2 rounds + one round of message delay).
//!
//! `--smoke` shrinks every part to a seconds-long CI-sized run whose
//! `BENCH_exp_partition.json` is byte-reproducible — CI runs it twice and
//! diffs.

// Binaries own their stdout/stderr: it IS their interface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::Arc;

use serde::Serialize;
use tsa_analysis::{fmt_bool, Table};
use tsa_bench::{experiment_params, experiment_spec, finish, run_sweeps, ExpArgs, Extra};
use tsa_core::AsyncMaintenanceHarness;
use tsa_obs::{ObsHandle, ObsRecorder};
use tsa_scenario::{
    AdversarySpec, ChurnSpec, LatencyModel, NetModel, PartitionSchedule, RegionAssign, Topology,
};
use tsa_sim::NullAdversary;
use tsa_sweep::{RoundsSpec, SweepSpec};

/// The benign intra-region model: a 0.1-round constant delay (sub-round, so
/// the intact network is provably the synchronous engine).
fn intra() -> NetModel {
    NetModel::new(LatencyModel::constant(100))
}

/// A bridge model: constant `ticks` latency plus drop probability `loss`.
fn bridge(ticks: u64, loss: f64) -> NetModel {
    NetModel {
        latency: LatencyModel::constant(ticks),
        jitter: 0,
        loss,
    }
}

/// The two-halves assignment for `n` initial nodes (joiners land right).
fn halves(n: usize) -> RegionAssign {
    RegionAssign::halves(n as u64 / 2)
}

/// One row of the machine-readable probe results stored in the BENCH
/// document's `extra` field.
#[derive(Serialize)]
struct ProbeRow {
    /// Network size.
    n: usize,
    /// Bridge severity label (`cut`, `slow`, ...).
    bridge: String,
    /// Partition length in rounds (`u64::MAX` = never heals).
    duration: u64,
    /// First degraded round (== end of bootstrap).
    partition_from: u64,
    /// First healed round.
    heal_at: u64,
    /// Whether the final report is routable.
    routable_end: bool,
    /// Routable in the last partitioned round? (For a permanent partition
    /// the sample point is the final round, which is still partitioned.)
    routable_during: bool,
    /// Cross-region communication edges in the last partitioned round
    /// (sampled like `routable_during`).
    cross_edges_during: usize,
    /// Cross-region communication edges in the final round.
    cross_edges_end: usize,
    /// Rounds after `heal_at` until the overlay was routable *and* talking
    /// across the boundary again (`None` = never within the run).
    rounds_to_reconnect: Option<u64>,
    /// The two-round-cadence prediction the observation is compared to.
    predicted_max: u64,
    /// Age distribution (in maturity ages) of the nodes surfaced by
    /// neighbour repair over the whole run, keyed by the sampled node's
    /// region — the `tsa-obs` per-region probe. A starved bridge shows up
    /// here before it shows up in routability: repair keeps resurfacing the
    /// same old cohort on the far side.
    repair_sample_ages: Vec<RegionAges>,
}

/// Per-region rollup of the `proto.repair_sample_age` histogram.
#[derive(Serialize)]
struct RegionAges {
    /// The region of the sampled (surfaced) node.
    region: u32,
    /// Samples surfaced from this region.
    samples: u64,
    /// Mean age of those samples, in maturity ages.
    mean_age: f64,
    /// Oldest sample, in maturity ages.
    max_age: u64,
}

/// The `extra` payload of `BENCH_exp_partition.json`.
#[derive(Serialize)]
struct PartitionExtra {
    /// One row per probed (bridge, duration) pair.
    probes: Vec<ProbeRow>,
}

/// Steps an async harness round by round through a scheduled partition and
/// measures when the overlay reconnects across the boundary.
fn probe(n: usize, seed: u64, label: &str, net: NetModel, duration: u64) -> ProbeRow {
    let params = experiment_params(n);
    let boot = params.bootstrap_rounds();
    let heal_at = boot.saturating_add(duration);
    let schedule = if duration == u64::MAX {
        PartitionSchedule::starting_at(boot)
    } else {
        PartitionSchedule::window(boot, heal_at)
    };
    let topology = Topology::regions_with_schedule(halves(n), intra(), net, schedule);
    let mut harness = AsyncMaintenanceHarness::assemble_with_topology(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        topology,
    );
    // The per-region sampling-age probe: deterministic (the event engine is
    // sequential), so its rows are part of the byte-reproducible artifact.
    let recorder = Arc::new(ObsRecorder::new());
    harness.set_obs(ObsHandle::new(recorder.clone()));
    harness.run_bootstrap();

    // The cadence prediction: the epoch current two epochs after the heal is
    // built entirely from post-heal messages (the protocol maintains epoch
    // e+2 during epoch e), so the overlay should re-knit within two 2-round
    // rebuild cadences plus one round of message delay.
    let predicted_max = 2 * 2 + 1;
    let recovery_window = 3 * params.maturity_age();
    let mut routable_during = false;
    let mut cross_edges_during = 0usize;
    let mut rounds_to_reconnect = None;
    let last_round = if duration == u64::MAX {
        boot + recovery_window
    } else {
        heal_at + recovery_window
    };
    while harness.round() < last_round {
        harness.step();
        let completed = harness.round() - 1;
        if duration != u64::MAX && completed + 1 == heal_at {
            // The last boundary whose sends still crossed a degraded bridge.
            let report = harness.report();
            routable_during = report.is_routable();
            cross_edges_during = harness.cross_region_edges();
        }
        if completed >= heal_at && rounds_to_reconnect.is_none() {
            let report = harness.report();
            if report.is_routable() && harness.cross_region_edges() > 0 {
                rounds_to_reconnect = Some(completed - heal_at);
            }
        }
    }
    let report = harness.report();
    if duration == u64::MAX {
        // A permanent partition never reaches a heal boundary; its "during"
        // sample is the final round, which is still partitioned.
        routable_during = report.is_routable();
        cross_edges_during = harness.cross_region_edges();
    }
    let repair_sample_ages = recorder
        .det_snapshot()
        .region_histograms
        .iter()
        .filter(|r| r.histogram.name == "proto.repair_sample_age")
        .map(|r| RegionAges {
            region: r.region,
            samples: r.histogram.count,
            mean_age: if r.histogram.count == 0 {
                0.0
            } else {
                r.histogram.sum as f64 / r.histogram.count as f64
            },
            max_age: r.histogram.max,
        })
        .collect();
    ProbeRow {
        n,
        bridge: label.to_string(),
        duration,
        partition_from: boot,
        heal_at,
        routable_end: report.is_routable(),
        routable_during,
        cross_edges_during,
        cross_edges_end: harness.cross_region_edges(),
        rounds_to_reconnect,
        predicted_max,
        repair_sample_ages,
    }
}

fn main() {
    let exp = "exp_partition";
    let args = ExpArgs::parse(
        exp,
        "overlay survival and healing across a partial partition: two halves of \
         the id space joined by a slow, lossy, scheduled bridge",
        &[Extra::Smoke("CI-sized grid (a few seconds end to end)")],
    );
    let smoke = args.smoke;

    let n = 48usize;
    let boot = experiment_params(n).bootstrap_rounds();
    let regions = |net: NetModel, schedule: PartitionSchedule| {
        Topology::regions_with_schedule(halves(n), intra(), net, schedule)
    };
    let permanent = PartitionSchedule::starting_at(boot);

    // Part 1 — the bridge grid: intact baseline + bridge latency × loss,
    // partition permanent from the end of bootstrap.
    let (latencies, losses, seeds, rounds): (&[u64], &[f64], u64, RoundsSpec) = if smoke {
        (&[2500], &[0.0, 0.75], 1, RoundsSpec::MaturityAges(1))
    } else {
        (
            &[1000, 2500, 5000],
            &[0.0, 0.25, 0.75],
            2,
            RoundsSpec::MaturityAges(2),
        )
    };
    let mut bridge_topologies = vec![Topology::global(intra())];
    for &ticks in latencies {
        for &loss in losses {
            bridge_topologies.push(regions(bridge(ticks, loss), permanent));
        }
    }
    let bridge_sweep = SweepSpec::new("bridge", experiment_spec(n))
        .over_churn([ChurnSpec::none()])
        .over_topology(bridge_topologies)
        .rounds(rounds)
        .seeds(101, seeds);

    // Part 2 — healing: a severe bridge for a finite window under `n/4`
    // random churn; the duration axis is encoded in the schedule.
    let durations: &[u64] = if smoke { &[2, 6] } else { &[2, 6, 12] };
    let severe = bridge(2500, 0.5);
    let mut healing_topologies: Vec<Topology> = durations
        .iter()
        .map(|&d| regions(severe, PartitionSchedule::window(boot, boot + d)))
        .collect();
    healing_topologies.push(regions(severe, permanent));
    let healing_sweep = SweepSpec::new("healing", experiment_spec(n))
        .over_churn([ChurnSpec::fraction(1, 4)])
        .over_adversaries([AdversarySpec::random(1, 223)])
        .over_topology(healing_topologies)
        .rounds(rounds)
        .seeds(103, seeds);

    let runs = run_sweeps(exp, &args, vec![bridge_sweep, healing_sweep]);

    // Part 3 — the round-by-round reconnection probe.
    let severities = [("cut", bridge(1000, 1.0)), ("slow", bridge(2500, 0.5))];
    let severities = &severities[..if smoke { 1 } else { 2 }];
    let probe_durations: &[u64] = if smoke {
        &[2, 6]
    } else {
        &[2, 6, 12, u64::MAX]
    };
    let mut probes = Vec::new();
    let mut table = Table::new(
        "Reconnection after a finite partition (probe, no churn)",
        &[
            "bridge",
            "duration",
            "heal at",
            "routable during",
            "x-edges during",
            "reconnect (rounds)",
            "predicted ≤",
            "x-edges end",
            "routable end",
            "repair age μ (per region)",
        ],
    );
    for &(label, net) in severities {
        for &duration in probe_durations {
            let row = probe(n, 41, label, net, duration);
            table.row(vec![
                row.bridge.clone(),
                if duration == u64::MAX {
                    "∞".to_string()
                } else {
                    duration.to_string()
                },
                if duration == u64::MAX {
                    "-".to_string()
                } else {
                    row.heal_at.to_string()
                },
                fmt_bool(row.routable_during),
                row.cross_edges_during.to_string(),
                row.rounds_to_reconnect
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "never".to_string()),
                row.predicted_max.to_string(),
                row.cross_edges_end.to_string(),
                fmt_bool(row.routable_end),
                row.repair_sample_ages
                    .iter()
                    .map(|r| format!("r{}:{:.2}", r.region, r.mean_age))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]);
            probes.push(row);
        }
    }
    println!("{}", table.to_markdown());
    println!(
        "The two-steps-ahead cadence predicts reconnection within two 2-round rebuild\n\
         cycles (+1 round of delay) once the bridge heals: the epoch current two epochs\n\
         after the heal is built entirely from post-heal CREATE/CONNECT messages. The\n\
         probe measures the observed bound; the healing sweep shows the same recovery\n\
         holds under n/4 random churn."
    );

    let extra = PartitionExtra { probes };
    finish(exp, &args, &runs, serde::Serialize::to_value(&extra));
}
