//! `sweep_cells`: the same `core`/`sim` layers used the other way — many
//! short cold runs through `SweepRunner`, where `build`, bootstrap,
//! `report()`, outcome building and shard serde dominate instead of the warm
//! steady state. An optimisation that buys steady-state speed with per-run
//! set-up shows its cost here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tsa_bench::experiment_scenario;
use tsa_obs::ObsHandle;
use tsa_scenario::{AdversarySpec, MetricsMode, Scenario};
use tsa_sweep::{aggregate, CellRecord, RoundsSpec, SweepCell, SweepRun, SweepRunner, SweepSpec};

use crate::layers::{mean_span_ms, overhead_share, span_metrics, Tally};
use crate::procfs::{peak_rss_kb, thread_cpu_ns};
use crate::run::{fnv1a, step_tail_note, RunError, RunOpts, RunOutput};
use crate::spans::{totals_by_name, write_trace, SpanLog};
use crate::stats::{median, percentile};

/// Nodes per cell: small, so a cell is set-up and tear-down around a few
/// rounds.
const CELL_NODES: usize = 32;
/// Measured rounds per cell, after its bootstrap.
const CELL_ROUNDS: u64 = 4;
/// Seed replicates per batch; with the three adversaries a batch is 12
/// cells, about two seconds on the reference host.
const BATCH_SEEDS: u64 = 4;
/// Cells per block of the traced pass's obs-on / obs-off alternation.
const BLOCK_CELLS: usize = 3;

/// The name `batch_spec` gives batch 0, under which its records aggregate.
const FIRST_BATCH: &str = "sweep_cells.0";

const ADVERSARY_TAG: u64 = 1;
const SEEDS_TAG: u64 = 2;
const WARMUP_TAG: u64 = 3;

/// One sweep over the three adversaries × `seeds` replicates starting at
/// `first_seed`.
fn sweep_spec(opts: &RunOpts, name: &str, first_seed: u64, seeds: u64) -> SweepSpec {
    let adversary_seed = opts.derived_seed(ADVERSARY_TAG);
    let base = experiment_scenario(CELL_NODES)
        .metrics_mode(MetricsMode::Streaming)
        .spec()
        .clone();
    SweepSpec::new(name, base)
        .over_adversaries([
            AdversarySpec::null(),
            AdversarySpec::random(1, adversary_seed),
            AdversarySpec::targeted(1, adversary_seed),
        ])
        .seeds(first_seed, seeds)
        .rounds(RoundsSpec::Fixed(CELL_ROUNDS))
}

/// The `batch`-th timed batch: its own contiguous seed range.
fn batch_spec(opts: &RunOpts, batch: u64) -> SweepSpec {
    let first_seed = opts
        .derived_seed(SEEDS_TAG)
        .wrapping_add(batch * BATCH_SEEDS);
    sweep_spec(
        opts,
        &format!("sweep_cells.{batch}"),
        first_seed,
        BATCH_SEEDS,
    )
}

fn runner(spec: SweepSpec, shard: &Path) -> SweepRunner {
    SweepRunner::new(spec).threads(1).shard_path(shard)
}

/// Protocol rounds one cell executes: its bootstrap plus the measured ones.
fn rounds_per_cell() -> u64 {
    tsa_bench::experiment_params(CELL_NODES).bootstrap_rounds() + CELL_ROUNDS
}

/// A scratch directory beside the benchmark executable (inside the build
/// directory, so inside the checkout), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Result<Self, RunError> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("sweep-{label}-{}", std::process::id()));
        // A previous run with this pid may have been killed mid-way.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn aggregate_json(name: &str, records: &[CellRecord]) -> String {
    aggregate(name, records).to_json()
}

fn non_routable(records: &[CellRecord]) -> u64 {
    records.iter().filter(|r| !r.outcome.is_routable()).count() as u64
}

fn msgs_sent(records: &[CellRecord]) -> u64 {
    records
        .iter()
        .filter_map(|r| r.outcome.maintenance.as_ref())
        .map(|m| m.metrics_summary.total_messages_sent as u64)
        .sum()
}

/// The seed-determined outputs of the first timed batch: the digest of its
/// aggregate JSON and its exact counts.
fn digest_first_batch(run: &SweepRun, shard: &Path, out: &mut RunOutput) -> Result<(), RunError> {
    out.det_digest = fnv1a(aggregate_json(FIRST_BATCH, &run.records).as_bytes());
    out.exact = vec![
        ("cells", run.records.len() as u64),
        ("msgs_sent", msgs_sent(&run.records)),
        ("shard_bytes", std::fs::metadata(shard)?.len()),
    ];
    Ok(())
}

/// Whether `resumed` — the first batch run again on the finished shard file
/// of `fresh` — read every cell back, executed none, and aggregates to the same
/// bytes.
fn resume_matches(resumed: &SweepRun, fresh: &SweepRun) -> bool {
    resumed.executed == 0
        && resumed.resumed == fresh.records.len()
        && aggregate_json(FIRST_BATCH, &resumed.records)
            == aggregate_json(FIRST_BATCH, &fresh.records)
}

/// The plain pass: batches of cells through `SweepRunner` until the window's
/// time is up.
pub fn run_plain(opts: &RunOpts) -> Result<RunOutput, RunError> {
    let mut out = RunOutput::default();

    // Set-up is everything before the first timed cell: the scratch
    // directory, spec enumeration, shard open, and one warm-up cell per
    // adversary so the first timed cell does not pay first-touch costs.
    let mut setup_secs = Vec::new();
    let mut warmup_jsons = Vec::new();
    let mut scratch = None;
    for repeat in 0..opts.worlds() {
        drop(scratch.take());
        let started = Instant::now();
        let dir = Scratch::new(&format!("plain{repeat}"))?;
        let spec = sweep_spec(opts, "sweep_cells.warmup", opts.derived_seed(WARMUP_TAG), 1);
        let warm = runner(spec, &dir.0.join("warmup.jsonl")).run();
        setup_secs.push(started.elapsed().as_secs_f64());
        warmup_jsons.push(aggregate_json("sweep_cells.warmup", &warm.records));
        scratch = Some(dir);
    }
    let scratch = scratch.expect("at least one set-up");
    let setups_identical = warmup_jsons.windows(2).all(|pair| pair[0] == pair[1]);
    if !setups_identical {
        out.note("WARNING: repeated warm-up sweeps of one seed differ".to_string());
    }

    // A batch is one sweep the way an experiment runs it: `run()` on a
    // shard file, then the aggregate of its records as JSON. The run's rates
    // are medians over the batches, so a slow spell of the host costs a
    // batch, not the run.
    let mut step_ms = Vec::new();
    let (mut rounds_per_s, mut busy_ms_per_round) = (Vec::new(), Vec::new());
    let mut first: Option<SweepRun> = None;
    let shard = |batch: u64| scratch.0.join(format!("batch-{batch}.jsonl"));
    let started = Instant::now();
    for batch in 0u64.. {
        let cpu_before = thread_cpu_ns()?;
        let batch_started = Instant::now();
        let spec = batch_spec(opts, batch);
        let run = runner(spec.clone(), &shard(batch)).run();
        std::hint::black_box(aggregate_json(&spec.name, &run.records));
        let rounds = run.records.len() as u64 * rounds_per_cell();
        rounds_per_s.push(rounds as f64 / batch_started.elapsed().as_secs_f64());
        busy_ms_per_round.push((thread_cpu_ns()? - cpu_before) as f64 / 1e6 / rounds as f64);
        step_ms.extend(run.cell_timings.iter().map(|t| t.dur_us as f64 / 1e3));
        out.failed += non_routable(&run.records);
        if batch == 0 {
            digest_first_batch(&run, &shard(0), &mut out)?;
            first = Some(run);
        }
        if started.elapsed().as_secs_f64() >= opts.window_secs() {
            break;
        }
    }

    let first = first.expect("at least one batch");
    let resumed = runner(batch_spec(opts, 0), &shard(0)).run();
    let resumes = resume_matches(&resumed, &first);
    if !resumes {
        out.note("WARNING: the first batch did not resume byte-identically".to_string());
    }
    out.attempted = step_ms.len() as u64;
    out.strict_failed = out.failed;
    out.correct = setups_identical && resumes && out.failed == 0;

    let mid = |values: &[f64]| median(values).expect("at least one batch");
    out.set("rounds_per_s", mid(&rounds_per_s));
    out.set("step_ms_p50", mid(&step_ms));
    // The first quartile over the batches, as on the maintained workloads:
    // interference only adds on-CPU time.
    out.set(
        "busy_ms_per_round",
        percentile(&busy_ms_per_round, 25.0).expect("at least one batch"),
    );
    out.set("setup_s", mid(&setup_secs));
    out.set("peak_rss_mb", peak_rss_kb()? as f64 / 1024.0);
    out.note(format!(
        "{} in {} batches",
        step_tail_note(&step_ms, "cell"),
        rounds_per_s.len()
    ));
    Ok(out)
}

/// One cell replayed by hand the way the executor runs it (`SweepRunner`
/// owns its cells), with a span around every public call when `log` is
/// given.
fn replay_cell(cell: &SweepCell, traced: Option<(&SpanLog, &ObsHandle)>) -> CellRecord {
    let Some((log, obs)) = traced else {
        let outcome = Scenario::from_spec(cell.spec.clone()).run(cell.rounds);
        let record = CellRecord {
            cell: cell.index,
            rounds: cell.rounds,
            outcome,
        };
        std::hint::black_box(record.to_jsonl());
        return record;
    };
    log.time("step", || {
        let mut run = log.time("scenario.build", || {
            Scenario::from_spec(cell.spec.clone()).build()
        });
        run.set_obs(obs.clone());
        log.time("core.bootstrap", || run.run_bootstrap());
        log.time("core.rounds", || run.run(cell.rounds));
        let outcome = log.time("scenario.outcome", || run.into_outcome());
        let record = CellRecord {
            cell: cell.index,
            rounds: cell.rounds,
            outcome,
        };
        std::hint::black_box(log.time("sweep.record_jsonl", || record.to_jsonl()));
        record
    })
}

/// The traced pass: one real batch through `SweepRunner` for the sweep
/// layer's own numbers, then cells replayed by hand, alternating blocks with
/// and without the obs sink.
pub fn run_traced(opts: &RunOpts) -> Result<RunOutput, RunError> {
    let mut out = RunOutput::default();
    let log = Arc::new(SpanLog::new());
    let obs = ObsHandle::new(log.clone());
    let scratch = Scratch::new("traced")?;
    let shard = scratch.0.join("batch-0.jsonl");

    let run_started = Instant::now();
    let first = log.time("sweep.run", || runner(batch_spec(opts, 0), &shard).run());
    let run_secs = run_started.elapsed().as_secs_f64();
    let cells_secs: f64 = first
        .cell_timings
        .iter()
        .map(|t| t.dur_us as f64 / 1e6)
        .sum();
    out.set("sweep.overhead_share", 1.0 - cells_secs / run_secs);
    digest_first_batch(&first, &shard, &mut out)?;
    let cells = first.records.len() as u64;
    out.set(
        "sweep.shard_bytes_per_cell",
        std::fs::metadata(&shard)?.len() as f64 / cells as f64,
    );
    out.set(
        "core.msgs_per_round",
        msgs_sent(&first.records) as f64 / (cells * rounds_per_cell()) as f64,
    );
    std::hint::black_box(log.time("sweep.aggregate", || {
        aggregate_json(FIRST_BATCH, &first.records)
    }));
    let resumed = log.time("sweep.resume", || runner(batch_spec(opts, 0), &shard).run());
    let resumes = resume_matches(&resumed, &first);
    if !resumes {
        out.note("WARNING: the first batch did not resume byte-identically".to_string());
    }
    out.failed += non_routable(&first.records);
    out.attempted = cells;

    let (mut on, mut off) = (Tally::default(), Tally::default());
    let started = Instant::now();
    let mut replayed = 0usize;
    'window: for batch in 1u64.. {
        for cell in batch_spec(opts, batch).enumerate() {
            let traced = (replayed / BLOCK_CELLS).is_multiple_of(2);
            log.set_step(replayed as u64);
            let cpu_before = thread_cpu_ns()?;
            let record = replay_cell(&cell, traced.then_some((&*log, &obs)));
            let tally = if traced { &mut on } else { &mut off };
            tally.busy_ns += thread_cpu_ns()? - cpu_before;
            tally.units += 1;
            out.failed += u64::from(!record.outcome.is_routable());
            replayed += 1;
            if replayed == BLOCK_CELLS {
                // The first block is always traced, so this peak covers the
                // same cells on every machine.
                out.set(
                    "sim.peak_in_flight_msgs",
                    log.det_snapshot()
                        .histogram("proto.round_sent")
                        .map_or(0, |h| h.max) as f64,
                );
            }
            if replayed >= BLOCK_CELLS && started.elapsed().as_secs_f64() >= opts.window_secs() {
                break 'window;
            }
        }
    }
    out.attempted += replayed as u64;
    out.strict_failed = out.failed;
    out.correct = resumes && out.failed == 0;

    // `report()` and `snapshots()` on a finished cell: what `into_outcome`
    // spends most of its time in.
    let cell = &batch_spec(opts, 0).enumerate()[0];
    let mut run = Scenario::from_spec(cell.spec.clone()).build();
    run.run_bootstrap();
    run.run(cell.rounds);
    for _ in 0..3 {
        std::hint::black_box(log.time("core.report", || run.report()));
        std::hint::black_box(log.time("core.snapshots", || run.snapshots()));
    }

    let spans = log.finish();
    let det = log.det_snapshot();
    span_metrics(
        &spans,
        on.units * rounds_per_cell(),
        det.counter("proto.delivered"),
        det.counter("proto.sent"),
        &mut out,
    );
    overhead_share(&on, &off, "cell", &mut out);
    let all = totals_by_name(&spans);
    out.set(
        "sweep.record_jsonl_us_per_cell",
        mean_span_ms(&all, "sweep.record_jsonl") * 1e3,
    );
    out.set("sweep.aggregate_ms", mean_span_ms(&all, "sweep.aggregate"));
    out.set("sweep.resume_ms", mean_span_ms(&all, "sweep.resume"));
    // No transport (so no second thread) and no event queue on this path.
    for metric in [
        "net.frames_per_round",
        "net.bytes_per_frame",
        "net.poller_cpu_ms_per_round",
        "event.peak_queue_depth",
    ] {
        out.set(metric, 0.0);
    }

    write_trace(opts, "sweep_cells", &spans, &mut out)?;
    Ok(out)
}
