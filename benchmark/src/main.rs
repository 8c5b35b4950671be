//! `tsa-benchmark` — end-to-end and per-layer benchmark of the
//! two-steps-ahead reproduction. See `README.md` beside this package for
//! the workloads, every metric's definition and the layer → end-to-end map.
//!
//! ```text
//! tsa-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!               [--quick] [--out <trace.json>]
//!     one pass of one workload; the last line of stdout is the result object
//! tsa-benchmark [--seed <u64>] [--seconds <n>] [--workload <name>]...
//!               [--traced] [--quick] [--out <prefix>] [--write-baseline]
//!     the full set in child processes: 3 plain passes (median) + 1 traced,
//!     whose trace goes to <prefix>.<workload>.json
//! tsa-benchmark repeat-check [--seed <u64>] [--seconds <n>] [--workload <name>]...
//!     the plain passes of the full set twice, compared against the bounds
//! ```
//!
//! `--trace <0|1>` is the benchmark contract's spelling and selects a single
//! pass; `--traced` is ISSUE 11's and narrows the full set to its traced
//! passes.

mod catalog;
mod layers;
mod maintained;
mod micro;
mod pin;
mod procfs;
mod run;
mod spans;
mod stats;
mod suite;
mod sweep;

use std::path::PathBuf;

use catalog::{catalog, home_workload};
use maintained::{EventJitter, Maintained, NetLoopback, RoundMaintained};
use run::{print_run, RunError, RunOpts, RunOutput};
use suite::SuiteOpts;

/// The seed every number in `BASELINE.json` was measured with. A later claim
/// is confirmed on the held-out seed 1729, which nothing here was tuned on.
const DEFAULT_SEED: u64 = 29;

const USAGE: &str = "\
usage:
  tsa-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--out <trace.json>]
  tsa-benchmark [--seed <u64>] [--seconds <n>] [--workload <name>]... [--traced] [--quick] [--out <prefix>] [--write-baseline]
  tsa-benchmark repeat-check [--seed <u64>] [--seconds <n>] [--workload <name>]...";

/// What the command line asks for when it names no single pass.
#[derive(Debug, Default)]
enum Mode {
    #[default]
    Suite,
    RepeatCheck,
}

/// The parsed command line.
#[derive(Debug, Default)]
struct Args {
    mode: Mode,
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    traced_only: bool,
    quick: bool,
    out: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.into_iter();
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "repeat-check" => args.mode = Mode::RepeatCheck,
            "--workload" => args.workloads.push(value("a workload name")?),
            "--seed" => {
                let text = value("a u64")?;
                args.seed = Some(
                    text.parse()
                        .map_err(|_| format!("--seed {text}: not a u64"))?,
                );
            }
            "--seconds" => {
                let text = value("a whole number of seconds")?;
                args.seconds = Some(
                    text.parse()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or(format!("--seconds {text}: not a whole number >= 1"))?,
                );
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                });
            }
            "--traced" => args.traced_only = true,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--write-baseline" => args.write_baseline = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for workload in &args.workloads {
        if !catalog().workloads.contains(workload) {
            return Err(RunError::UnknownWorkload(workload.clone()).to_string());
        }
    }
    Ok(args)
}

fn maintained_pass<W: Maintained>(opts: &RunOpts) -> Result<RunOutput, RunError> {
    if opts.trace {
        maintained::run_traced::<W>(opts)
    } else {
        maintained::run_plain::<W>(opts)
    }
}

/// One pass of one workload, on one thread (and, through `pin`, one CPU):
/// the host has two shared cores, so the engines' parallel compute phase is
/// capped at 1 (the transport adds only its own poller thread).
fn run_one(workload: &str, opts: &RunOpts) -> Result<RunOutput, RunError> {
    rayon::with_thread_cap(1, || {
        let mut out = match workload {
            RoundMaintained::NAME => maintained_pass::<RoundMaintained>(opts),
            EventJitter::NAME => maintained_pass::<EventJitter>(opts),
            NetLoopback::NAME => maintained_pass::<NetLoopback>(opts),
            "sweep_cells" if opts.trace => sweep::run_traced(opts),
            "sweep_cells" => sweep::run_plain(opts),
            other => Err(RunError::UnknownWorkload(other.to_string())),
        }?;
        if opts.trace {
            // The single-layer measurements of this workload's layer.
            match workload {
                RoundMaintained::NAME => micro::sim_flood(opts, &mut out),
                EventJitter::NAME => micro::event_engine(opts, &mut out),
                NetLoopback::NAME => out.correct &= micro::codec(opts, &mut out),
                _ => micro::routing(opts, &mut out),
            }
            // A metric measured on another workload's traced pass only is
            // off this workload's path: no time was spent there.
            for def in &catalog().per_layer {
                if home_workload(&def.name).is_some_and(|home| home != workload) {
                    out.metrics.entry(&def.name).or_insert(0.0);
                }
            }
        }
        Ok(out)
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tsa-benchmark: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(catalog().run_seconds);
    let outcome = match args.trace {
        Some(trace) => {
            let [workload] = args.workloads.as_slice() else {
                eprintln!("tsa-benchmark: --trace runs exactly one --workload\n{USAGE}");
                std::process::exit(2);
            };
            if let Some(code) = pin::rerun_pinned() {
                std::process::exit(code);
            }
            let opts = RunOpts {
                seed,
                seconds: seconds as f64,
                trace,
                quick: args.quick,
                out: args.out,
            };
            run_one(workload, &opts)
                .and_then(|output| print_run(workload, &opts, &output))
                .map_err(|err| err.to_string())
        }
        None => {
            let opts = SuiteOpts {
                seed,
                seconds,
                workloads: args.workloads,
                traced_only: args.traced_only,
                quick: args.quick,
                write_baseline: args.write_baseline,
                out: args.out,
            };
            match args.mode {
                Mode::Suite => suite::run_suite(&opts),
                Mode::RepeatCheck => suite::repeat_check(&opts),
            }
        }
    };
    if let Err(message) = outcome {
        eprintln!("tsa-benchmark: {message}");
        std::process::exit(1);
    }
}
