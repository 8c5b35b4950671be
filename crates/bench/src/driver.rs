//! The shared experiment driver. A sweep-driven `exp_*` binary is a list of
//! [`SweepSpec`]s handed to [`run_sweeps`] (shard checkpointing, aggregate
//! tables) and [`finish`]; a binary with a grid of its own builds its
//! document itself. Either way the run ends in [`publish`], the one place
//! that writes `BENCH_<exp>.json`, holds it against the committed artifact
//! under `--compare`, and decides the exit code.

use std::borrow::Cow;
use std::path::{Path, PathBuf};

use serde::Serialize;
use serde_json::Value;
use tsa_dash::TraceBuilder;
use tsa_sweep::{aggregate, CellRecord, SweepAggregate, SweepRun, SweepRunner, SweepSpec};

use crate::cli::ExpArgs;
use crate::compare::compare_artifact;

/// The machine-readable artifact an experiment writes as `BENCH_<exp>.json`:
/// per-axis aggregates plus per-cell records — compacted to their
/// [`MetricsSummary`](tsa_sim::MetricsSummary) digests by default, with the
/// raw per-round metrics histories behind `--full` — plus any
/// experiment-specific extras.
#[derive(Clone, Debug, Serialize)]
pub struct BenchDoc {
    /// The experiment's name.
    pub exp: String,
    /// Whether the cell records keep their full metrics histories.
    pub full: bool,
    /// Aggregated sweep summaries (always present).
    pub aggregates: Vec<SweepAggregate>,
    /// Per-cell records, in sweep and enumeration order.
    pub cells: Vec<CellRecord>,
    /// Experiment-specific extra results (e.g. the Lemma 12 crossing counts),
    /// `Value::Null` when unused.
    pub extra: Value,
}

/// Where a sweep's shard file lives: `<out>/<exp>.<sweep>.jsonl` under
/// `--out`, otherwise `target/sweeps/<exp>.<sweep>.jsonl` (checkpoints are
/// build artifacts by default).
pub fn shard_path(exp: &str, sweep: &str, args: &ExpArgs) -> PathBuf {
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target").join("sweeps"));
    dir.join(format!("{exp}.{sweep}.jsonl"))
}

/// Where the `BENCH_<exp>.json` artifact lands for this invocation
/// (honouring `--out`).
pub fn bench_artifact_path(exp: &str, args: &ExpArgs) -> PathBuf {
    match &args.out {
        Some(dir) => dir.join(format!("BENCH_{exp}.json")),
        None => PathBuf::from(format!("BENCH_{exp}.json")),
    }
}

/// Renders the sweeps' enumerated cells — one line per cell with its stable
/// index, axis label, seed and measured rounds — without running anything.
/// This is what `--list` prints: the exact grid (and enumeration order, which
/// is the shard checkpoint key) a run would execute.
pub fn list_cells(exp: &str, sweeps: &[SweepSpec]) -> String {
    let mut out = String::new();
    let total: usize = sweeps.iter().map(|s| s.enumerate().len()).sum();
    out.push_str(&format!(
        "{exp}: {} sweep(s), {total} cell(s)\n",
        sweeps.len()
    ));
    for sweep in sweeps {
        let cells = sweep.enumerate();
        out.push_str(&format!(
            "\n{}.{} — {} cell(s)\n",
            exp,
            sweep.name,
            cells.len()
        ));
        for cell in cells {
            out.push_str(&format!(
                "  [{:>3}] {} seed={} rounds={}\n",
                cell.index,
                cell.spec.axis_label(),
                cell.spec.seed,
                cell.rounds,
            ));
        }
    }
    out
}

/// [`list_cells`] for a binary that is not sweep-driven: its one grid, one
/// `[idx] label` line per cell.
pub fn list_grid(exp: &str, cells: &[String]) -> String {
    let mut out = format!("{exp}: 1 grid, {} cell(s)", cells.len());
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!("\n  [{i:>3}] {cell}"));
    }
    out
}

/// Opens every sweep's shard file for append (creating its directory), so
/// an unwritable `--out` is a one-line error before any cell runs rather
/// than a panic inside [`SweepRunner::run`].
fn probe_shards(exp: &str, args: &ExpArgs, sweeps: &[SweepSpec]) -> Result<(), String> {
    for sweep in sweeps {
        let path = shard_path(exp, &sweep.name, args);
        tsa_sweep::shard::open_shard_for_append(&path)
            .map_err(|err| format!("could not open shard file {}: {err}", path.display()))?;
    }
    Ok(())
}

/// Runs each sweep (resuming from existing shards), prints its aggregate
/// table, and returns the runs in order. Under `--list` the cells are
/// printed instead and the process exits without executing any; shard files
/// that cannot be opened exit with status 1. Progress — the executor's
/// resume summary and per-cell lines — streams to stderr unless `--quiet`;
/// the tables are results and always print on stdout.
pub fn run_sweeps(exp: &str, args: &ExpArgs, sweeps: Vec<SweepSpec>) -> Vec<SweepRun> {
    let reporter = args.reporter();
    if args.list {
        reporter.result(list_cells(exp, &sweeps).trim_end());
        std::process::exit(0);
    }
    if let Err(reason) = probe_shards(exp, args, &sweeps) {
        reporter.error(&format!("{exp}: {reason}"));
        std::process::exit(1);
    }
    sweeps
        .into_iter()
        .map(|sweep| {
            let mut runner = SweepRunner::new(sweep.clone())
                .shard_path(shard_path(exp, &sweep.name, args))
                .reporter(reporter);
            if let Some(threads) = args.threads {
                runner = runner.threads(threads);
            }
            let run = runner.run();
            reporter.result(
                &aggregate(&sweep.name, &run.records)
                    .to_table()
                    .to_markdown(),
            );
            run
        })
        .collect()
}

/// Folds completed runs into the `BENCH_<exp>.json` document. With `--full`
/// the raw records ride along verbatim; otherwise each outcome is compacted
/// to its metrics digest (this is what shrinks `BENCH_exp_maintenance.json`
/// from thousands of per-round rows to a summary).
pub fn bench_doc(exp: &str, args: &ExpArgs, runs: &[SweepRun], extra: Value) -> BenchDoc {
    BenchDoc {
        exp: exp.to_string(),
        full: args.full,
        aggregates: runs
            .iter()
            .map(|run| aggregate(&run.spec.name, &run.records))
            .collect(),
        cells: runs
            .iter()
            .flat_map(|run| run.records.iter())
            .map(|record| CellRecord {
                cell: record.cell,
                rounds: record.rounds,
                outcome: if args.full {
                    record.outcome.clone()
                } else {
                    record.outcome.to_compact()
                },
            })
            .collect(),
        extra,
    }
}

/// Which part of the artifact is machine-invariant, and therefore
/// byte-compared against the committed one under `--compare`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compared {
    /// The whole file.
    Whole,
    /// One named top-level section; the rest is wall clock.
    Section(&'static str),
}

/// The committed `BENCH_<exp>.json` this invocation is held against: `None`
/// without `--compare`, when there is none yet, or when the committed
/// artifact's `smoke` marker names the other grid shape (a full grid is no
/// baseline for a `--smoke` run, nor the reverse).
fn committed_baseline(exp: &str, args: &ExpArgs) -> Option<String> {
    if !args.compare {
        return None;
    }
    let text = std::fs::read_to_string(bench_artifact_path(exp, args)).ok()?;
    let other_shape = serde_json::parse_value(&text)
        .ok()
        .and_then(|doc| doc.get("smoke").and_then(Value::as_bool))
        .is_some_and(|smoke| smoke != args.smoke);
    (!other_shape).then_some(text)
}

/// The compared part of an artifact, as the bytes the gate holds equal.
fn compared_part(text: &str, compared: Compared) -> Option<Cow<'_, str>> {
    match compared {
        Compared::Whole => Some(Cow::Borrowed(text)),
        Compared::Section(name) => serde_json::parse_value(text)
            .ok()?
            .get(name)
            .map(|section| Cow::Owned(section.to_json_compact())),
    }
}

/// The tail of every experiment binary, as a value: writes `doc` to
/// `BENCH_<exp>.json` (creating `--out`) and, under `--compare`, holds its
/// `compared` part against the committed artifact — read *before* the write,
/// since both live at the same path. `verdict` is the binary's own
/// all-checks result. `Err` carries everything that must fail the run: an
/// artifact that could not be written, deterministic drift (with the
/// metric-level diff), a failed verdict.
pub fn try_publish<D: Serialize>(
    exp: &str,
    args: &ExpArgs,
    doc: &D,
    compared: Compared,
    verdict: Result<(), String>,
) -> Result<(), String> {
    let reporter = args.reporter();
    let artifact = bench_artifact_path(exp, args);
    let committed = committed_baseline(exp, args);
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)
            .map_err(|err| format!("could not create {}: {err}", dir.display()))?;
    }
    let fresh = serde_json::to_string_pretty(doc).expect("bench results serialize");
    std::fs::write(&artifact, &fresh)
        .map_err(|err| format!("could not write {}: {err}", artifact.display()))?;
    reporter.result(&format!(
        "\n[machine-readable results written to {}]",
        artifact.display()
    ));

    let mut failures = Vec::new();
    if args.compare {
        let fresh_part = compared_part(&fresh, compared)
            .expect("the document holds the section it declares compared");
        let committed_part = committed
            .as_deref()
            .and_then(|text| compared_part(text, compared));
        let report = compare_artifact(exp, committed_part.as_deref(), &fresh_part);
        if report.det_match {
            reporter.result(&report.render());
        } else {
            failures.push(report.render());
        }
    }
    failures.extend(verdict.err().map(|message| format!("{exp}: {message}")));
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// [`try_publish`], exiting with status 1 (and the reasons on stderr) when
/// the run must fail.
pub fn publish<D: Serialize>(
    exp: &str,
    args: &ExpArgs,
    doc: &D,
    compared: Compared,
    verdict: Result<(), String>,
) {
    if let Err(failures) = try_publish(exp, args, doc, compared, verdict) {
        tsa_obs::Reporter::default().error(&failures);
        std::process::exit(1);
    }
}

/// The standard tail of every sweep-driven experiment binary: aggregate,
/// export the run's worker trace under `--trace`, and [`publish`] the
/// document — machine-invariant in full, so the whole file is compared.
pub fn finish(exp: &str, args: &ExpArgs, runs: &[SweepRun], extra: Value) {
    let doc = bench_doc(exp, args, runs, extra);
    if let Some(path) = &args.trace {
        write_sweep_trace(exp, path, runs);
    }
    publish(exp, args, &doc, Compared::Whole, Ok(()));
}

/// Exports the sweeps' wall-clock placement as trace-event JSON: one
/// process per sweep, one track per executor worker, one slice per cell.
fn write_sweep_trace(exp: &str, path: &Path, runs: &[SweepRun]) {
    let mut trace = TraceBuilder::new();
    for (i, run) in runs.iter().enumerate() {
        let pid = i as u64 + 1;
        trace.process_name(pid, &format!("{exp}.{}", run.spec.name));
        let workers: std::collections::BTreeSet<u64> =
            run.cell_timings.iter().map(|t| t.worker).collect();
        for worker in workers {
            trace.thread_name(pid, worker + 1, &format!("worker {worker}"));
        }
        for t in &run.cell_timings {
            trace.slice(pid, t.worker + 1, &t.label, t.start_us, t.dur_us);
        }
    }
    let reporter = tsa_obs::Reporter::default();
    match std::fs::write(path, trace.to_json()) {
        Ok(()) => reporter.result(&format!("wrote {}", path.display())),
        Err(err) => reporter.error(&format!(
            "{exp}: could not write trace {}: {err}",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_scenario::{ScenarioKind, ScenarioSpec};

    /// A two-section artifact shaped like `exp_net`'s / `exp_profile`'s /
    /// `exp_perf`'s.
    #[derive(Serialize)]
    struct SplitDoc {
        smoke: bool,
        deterministic: Det,
        timing: u64,
    }

    #[derive(Serialize)]
    struct Det {
        messages_sent: u64,
    }

    const SECTION: Compared = Compared::Section("deterministic");

    /// `--compare --quiet --out <fresh temp dir>`, at the given grid shape.
    fn compare_args(test: &str, smoke: bool) -> ExpArgs {
        let dir = std::env::temp_dir().join(format!("tsa-publish-{test}"));
        let _ = std::fs::remove_dir_all(&dir);
        ExpArgs {
            out: Some(dir),
            compare: true,
            quiet: true,
            smoke,
            ..ExpArgs::default()
        }
    }

    /// Publishes a [`SplitDoc`] of `args`' grid shape through the tail.
    fn run(
        args: &ExpArgs,
        (messages_sent, timing): (u64, u64),
        compared: Compared,
        verdict: Result<(), String>,
    ) -> Result<(), String> {
        let doc = SplitDoc {
            smoke: args.smoke,
            deterministic: Det { messages_sent },
            timing,
        };
        try_publish("exp_x", args, &doc, compared, verdict)
    }

    #[test]
    fn a_compared_run_leaves_only_its_artifact_behind() {
        let args = compare_args("only", true);
        run(&args, (10, 1), SECTION, Ok(())).unwrap();
        run(&args, (10, 2), SECTION, Ok(())).unwrap();
        let names: Vec<String> = std::fs::read_dir(args.out.as_deref().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["BENCH_exp_x.json"]);
    }

    #[test]
    fn a_committed_artifact_of_the_other_grid_shape_is_no_baseline() {
        let full = compare_args("shape", false);
        run(&full, (10, 1), SECTION, Ok(())).unwrap();
        // Different deterministic content, but the committed file is the
        // full grid: nothing to hold a --smoke run against.
        let smoke = ExpArgs {
            smoke: true,
            ..full
        };
        assert_eq!(committed_baseline("exp_x", &smoke), None);
        run(&smoke, (99, 2), SECTION, Ok(())).unwrap();
        // The artifact now on disk is the smoke one, and is a baseline for
        // the next --smoke run.
        assert!(committed_baseline("exp_x", &smoke).is_some());
    }

    #[test]
    fn drift_inside_the_compared_section_fails_with_the_json_path() {
        // This is `exp_perf --smoke --compare`: a different wall clock is
        // not drift, a different message count is.
        let args = compare_args("drift", true);
        run(&args, (10, 1), SECTION, Ok(())).unwrap();
        run(&args, (10, 2), SECTION, Ok(())).unwrap();
        let err = run(&args, (11, 2), SECTION, Ok(())).unwrap_err();
        assert!(err.contains("$.messages_sent: 10 -> 11"), "{err}");
    }

    #[test]
    fn drift_outside_the_compared_section_is_not_drift() {
        let args = compare_args("timing", true);
        run(&args, (10, 1), SECTION, Ok(())).unwrap();
        run(&args, (10, 777), SECTION, Ok(())).unwrap();
        // The same change under a whole-file gate is drift.
        let err = run(&args, (10, 778), Compared::Whole, Ok(())).unwrap_err();
        assert!(err.contains("$.timing: 777 -> 778"), "{err}");
    }

    #[test]
    fn a_failed_verdict_fails_the_run_even_when_the_bytes_match() {
        let args = compare_args("verdict", true);
        run(&args, (10, 1), SECTION, Ok(())).unwrap();
        let err = run(&args, (10, 1), SECTION, Err("a twin diverged".into())).unwrap_err();
        assert_eq!(err, "exp_x: a twin diverged");
    }

    #[test]
    fn an_artifact_that_cannot_be_written_is_an_error_not_a_green_run() {
        // `--out` below a regular file: the directory cannot be created
        // (for root too, unlike a permission probe).
        let file = std::env::temp_dir().join("tsa-publish-file");
        std::fs::write(&file, "not a directory").unwrap();
        let args = ExpArgs {
            out: Some(file.join("sub")),
            quiet: true,
            ..ExpArgs::default()
        };
        let err = run(&args, (1, 1), Compared::Whole, Ok(())).unwrap_err();
        assert!(err.contains("could not create"), "{err}");
        // A sweep-driven binary meets the same `--out` first at its shards.
        let sweep = SweepSpec::new("grid", ScenarioSpec::new(ScenarioKind::MaintainedLds, 32));
        let err = probe_shards("exp_x", &args, &[sweep]).unwrap_err();
        assert!(err.contains("could not open shard file"), "{err}");
        assert!(err.contains("exp_x.grid.jsonl"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn grid_listings_share_the_cell_format() {
        let text = list_grid("exp_x", &["net n=16".to_string(), "net n=32".to_string()]);
        assert_eq!(
            text,
            "exp_x: 1 grid, 2 cell(s)\n  [  0] net n=16\n  [  1] net n=32"
        );
    }

    #[test]
    fn shard_paths_follow_the_out_flag() {
        let default = shard_path("exp_x", "grid", &ExpArgs::default());
        assert_eq!(default, PathBuf::from("target/sweeps/exp_x.grid.jsonl"));
        let out = ExpArgs {
            out: Some(PathBuf::from("results")),
            ..ExpArgs::default()
        };
        assert_eq!(
            shard_path("exp_x", "grid", &out),
            PathBuf::from("results/exp_x.grid.jsonl")
        );
    }

    #[test]
    fn listing_names_every_cell_without_running_any() {
        let mut base = ScenarioSpec::new(ScenarioKind::MaintainedLds, 32);
        base.c = Some(1.5);
        let sweep = SweepSpec::new("grid", base)
            .over_n([32usize, 64])
            .rounds(tsa_sweep::RoundsSpec::Fixed(3))
            .seeds(7, 2);
        let cells = sweep.enumerate();
        let text = list_cells("exp_x", std::slice::from_ref(&sweep));
        assert!(text.starts_with(&format!("exp_x: 1 sweep(s), {} cell(s)", cells.len())));
        assert!(text.contains("exp_x.grid"));
        for cell in &cells {
            assert!(
                text.contains(&format!("[{:>3}] {}", cell.index, cell.spec.axis_label())),
                "cell {} missing from listing:\n{text}",
                cell.index
            );
            assert!(text.contains(&format!("seed={}", cell.spec.seed)));
        }
        assert_eq!(text.lines().count(), cells.len() + 3);
    }

    #[test]
    fn bench_docs_compact_unless_full_is_requested() {
        // A maintained cell, so there is a metrics history to compact away.
        let mut base = ScenarioSpec::new(ScenarioKind::MaintainedLds, 48);
        base.c = Some(1.5);
        base.tau = Some(4);
        base.replication = Some(2);
        let sweep = SweepSpec::new("m", base).rounds(tsa_sweep::RoundsSpec::Fixed(3));
        let run = SweepRunner::new(sweep).threads(1).run();

        let compact = bench_doc(
            "exp_t",
            &ExpArgs::default(),
            std::slice::from_ref(&run),
            Value::Null,
        );
        assert_eq!(compact.aggregates.len(), 1);
        assert_eq!(compact.cells.len(), 1);
        let m = compact.cells[0].outcome.maintenance.as_ref().unwrap();
        assert!(m.metrics.is_none(), "history compacted away by default");
        assert!(m.metrics_summary.rounds > 0, "digest kept");

        let full_args = ExpArgs {
            full: true,
            ..ExpArgs::default()
        };
        let full = bench_doc("exp_t", &full_args, &[run], Value::Null);
        let m = full.cells[0].outcome.maintenance.as_ref().unwrap();
        assert!(m.metrics.is_some(), "--full keeps the raw history");
        // The document serializes (the artifact write path), and compacting
        // actually shrinks it.
        let full_json = serde_json::to_string(&full).unwrap();
        let compact_json = serde_json::to_string(&compact).unwrap();
        assert!(full_json.contains("aggregates"));
        assert!(compact_json.len() < full_json.len() / 2);
    }
}
