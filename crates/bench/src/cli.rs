//! Minimal flag parsing shared by every `exp_*` binary.
//!
//! Every experiment binary accepts `--list`, `--out <dir>`, `--quiet`,
//! `--compare` and `--help` (what each does is stated once, in [`usage`] and
//! on the [`ExpArgs`] fields). A binary additionally declares the [`Extra`]
//! flags it reads — `--full`, `--threads <k>` and `--trace <file>` for the
//! sweep-driven binaries (`exp_perf` reads `--threads` too), `--smoke` for
//! the six binaries with a CI-sized grid, `--journal <dir>` for
//! `exp_profile`; a flag the binary did not declare is an unknown flag like
//! any other.

use std::path::PathBuf;

use tsa_obs::Reporter;

/// A flag only some binaries accept, declared by the binary as data in its
/// [`ExpArgs::parse`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Extra {
    /// `--smoke`: run the binary's CI-sized grid. Carries the binary's
    /// one-line help text (how long that grid takes).
    Smoke(&'static str),
    /// `--full`: keep the raw per-round metrics histories in the artifact.
    Full,
    /// `--threads <k>`: worker threads for the binary's cells.
    Threads,
    /// `--trace <file>`: export the wall-clock worker/cell placement as
    /// trace-event JSON.
    Trace,
    /// `--journal <dir>`: write the deterministic journal streams and the
    /// Perfetto `trace.json` under `<dir>`.
    Journal,
}

impl Extra {
    /// The flag as typed (with its value placeholder) and its help text.
    fn usage(self) -> (&'static str, &'static str) {
        match self {
            Extra::Smoke(help) => ("--smoke", help),
            Extra::Full => (
                "--full",
                "keep full-fidelity records (raw per-round metrics)\n\
                 \x20                in the BENCH artifact instead of the compact aggregate",
            ),
            Extra::Threads => (
                "--threads <k>",
                "worker threads for the cells (default: TSA_THREADS\n\
                 \x20                or the machine's available parallelism)",
            ),
            Extra::Trace => (
                "--trace <file>",
                "export worker/cell wall-clock placement as\n\
                 \x20                Chrome-trace JSON (open in Perfetto)",
            ),
            Extra::Journal => (
                "--journal <dir>",
                "write the deterministic journal streams and\n\
                 \x20                the Perfetto trace.json under <dir>",
            ),
        }
    }
}

/// Parsed command-line arguments of an experiment binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpArgs {
    /// Keep full-fidelity results in the BENCH artifact ([`Extra::Full`]).
    pub full: bool,
    /// Print the enumerated sweep cells and exit without running anything.
    pub list: bool,
    /// Output directory override for the BENCH artifact and shards.
    pub out: Option<PathBuf>,
    /// Worker-thread override for the cells ([`Extra::Threads`]).
    pub threads: Option<usize>,
    /// Silence the stderr progress stream (stdout results still print).
    pub quiet: bool,
    /// Hold the fresh artifact against the committed one; deterministic
    /// drift exits non-zero.
    pub compare: bool,
    /// Export the run's wall-clock worker/cell placement as trace-event
    /// JSON to this file ([`Extra::Trace`]).
    pub trace: Option<PathBuf>,
    /// Run the CI-sized grid ([`Extra::Smoke`]).
    pub smoke: bool,
    /// Directory for the journal streams and trace ([`Extra::Journal`]).
    pub journal: Option<PathBuf>,
}

impl ExpArgs {
    /// Parses an argument list (without the program name) for a binary that
    /// declared `extras`. Returns an error message for unknown, undeclared
    /// or malformed flags; `Ok(None)` means `--help` was requested and usage
    /// should be printed.
    fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        extras: &[Extra],
    ) -> Result<Option<ExpArgs>, String> {
        let mut parsed = ExpArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Ok(None),
                "--full" if extras.contains(&Extra::Full) => parsed.full = true,
                "--list" => parsed.list = true,
                "--out" => {
                    let dir = args.next().ok_or("--out requires a directory argument")?;
                    parsed.out = Some(PathBuf::from(dir));
                }
                "--threads" if extras.contains(&Extra::Threads) => {
                    let k = args.next().ok_or("--threads requires a count argument")?;
                    let k: usize = k
                        .parse()
                        .map_err(|_| format!("--threads expects a positive integer, got {k:?}"))?;
                    if k == 0 {
                        return Err("--threads expects a positive integer, got 0".to_string());
                    }
                    parsed.threads = Some(k);
                }
                "--quiet" => parsed.quiet = true,
                "--compare" => parsed.compare = true,
                "--trace" if extras.contains(&Extra::Trace) => {
                    let file = args.next().ok_or("--trace requires a file argument")?;
                    parsed.trace = Some(PathBuf::from(file));
                }
                "--smoke" if extras.iter().any(|e| matches!(e, Extra::Smoke(_))) => {
                    parsed.smoke = true;
                }
                "--journal" if extras.contains(&Extra::Journal) => {
                    let dir = args
                        .next()
                        .ok_or("--journal requires a directory argument")?;
                    parsed.journal = Some(PathBuf::from(dir));
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        Ok(Some(parsed))
    }

    /// Parses [`std::env::args`] for the experiment `exp`, which accepts
    /// the shared flags plus the `extras` it declares; prints usage and
    /// exits on `--help` (status 0) or a parse error (status 2).
    pub fn parse(exp: &str, about: &str, extras: &[Extra]) -> ExpArgs {
        let reporter = Reporter::default();
        match Self::parse_from(std::env::args().skip(1), extras) {
            Ok(Some(args)) => args,
            Ok(None) => {
                reporter.result(&usage(exp, about, extras));
                std::process::exit(0);
            }
            Err(message) => {
                reporter.error(&format!(
                    "{exp}: {message}\n\n{}",
                    usage(exp, about, extras)
                ));
                std::process::exit(2);
            }
        }
    }

    /// The progress reporter this invocation asked for: the stderr stream,
    /// silenced by `--quiet`.
    pub fn reporter(&self) -> Reporter {
        Reporter::new(self.quiet)
    }
}

/// The usage text of the experiment binaries: the shared flags, then an
/// `EXTRA:` block listing exactly the flags this binary declared.
pub fn usage(exp: &str, about: &str, extras: &[Extra]) -> String {
    let mut text = format!(
        "{exp} — {about}\n\
         \n\
         USAGE: {exp} [--list] [--out <dir>] [--quiet] [--compare]\n\
         \n\
         OPTIONS:\n\
         \x20 --list         print the enumerated cells and exit without\n\
         \x20                running anything\n\
         \x20 --out <dir>    write BENCH_{exp}.json and sweep shards under <dir>\n\
         \x20 --quiet        silence the stderr progress stream (resume summary,\n\
         \x20                per-cell progress); stdout results still print\n\
         \x20 --compare      hold the fresh artifact against the committed\n\
         \x20                BENCH_{exp}.json (exit 1 + metric-level diff on\n\
         \x20                deterministic drift)\n\
         \x20 --help         print this help"
    );
    if !extras.is_empty() {
        text.push_str("\n\nEXTRA:");
        for extra in extras {
            let (flag, help) = extra.usage();
            text.push_str(&format!("\n  {flag:<14} {help}"));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Extra = Extra::Smoke("CI-sized grid (a few seconds end to end)");
    /// The extras a sweep-driven binary declares.
    const SWEEP: [Extra; 3] = [Extra::Full, Extra::Threads, Extra::Trace];

    /// Parses a command line given as one whitespace-separated string.
    fn parse(line: &str, extras: &[Extra]) -> Result<Option<ExpArgs>, String> {
        ExpArgs::parse_from(line.split_whitespace().map(str::to_string), extras)
    }

    const SHARED: &str =
        "--full --list --out results --threads 4 --quiet --compare --trace out.trace.json";

    #[test]
    fn parses_all_flags() {
        let args = parse(SHARED, &SWEEP).unwrap().unwrap();
        assert!(args.full);
        assert!(args.list);
        assert_eq!(args.out, Some(PathBuf::from("results")));
        assert_eq!(args.threads, Some(4));
        assert!(args.quiet);
        assert!(args.compare);
        assert_eq!(args.trace, Some(PathBuf::from("out.trace.json")));
        assert!(args.reporter().is_quiet());
        assert!(!ExpArgs::default().reporter().is_quiet());
        assert_eq!(parse("", &[]).unwrap().unwrap(), ExpArgs::default());
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse("--help", &[]).unwrap(), None);
        assert_eq!(parse("--list -h", &[]).unwrap(), None);
    }

    #[test]
    fn rejects_malformed_flags() {
        for line in [
            "--frobnicate",
            "--out",
            "--threads",
            "--threads zero",
            "--threads 0",
            "--trace",
        ] {
            assert!(parse(line, &SWEEP).is_err(), "{line}");
        }
    }

    #[test]
    fn a_trace_file_is_refused_unless_declared() {
        let args = parse("--trace f", &[Extra::Trace]).unwrap().unwrap();
        assert_eq!(args.trace, Some(PathBuf::from("f")));
        // The same for every flag only some binaries read.
        for line in ["--trace f", "--full", "--threads 2"] {
            let err = parse(line, &[SMOKE, Extra::Journal]).unwrap_err();
            assert!(err.contains("unknown flag"), "{line}: {err}");
        }
    }

    #[test]
    fn declared_extras_parse_and_undeclared_ones_stay_unknown() {
        let args = parse("--smoke --journal prof --quiet", &[SMOKE, Extra::Journal])
            .unwrap()
            .unwrap();
        assert!(args.smoke && args.quiet);
        assert_eq!(args.journal, Some(PathBuf::from("prof")));

        let missing = parse("--journal", &[Extra::Journal]).unwrap_err();
        assert!(missing.contains("--journal requires"), "{missing}");

        // A binary without a CI grid still rejects --smoke (the exit-2 path),
        // and declaring one extra does not admit the other.
        for (line, extras) in [
            ("--smoke", &[][..]),
            ("--smoke", &[Extra::Journal][..]),
            ("--journal x", &[SMOKE][..]),
        ] {
            let err = parse(line, extras).unwrap_err();
            assert!(err.contains("unknown flag"), "{line}: {err}");
        }
    }

    #[test]
    fn usage_names_every_flag() {
        let text = usage("exp_x", "test experiment", &SWEEP);
        for flag in SHARED.split(' ').filter(|word| word.starts_with("--")) {
            assert!(text.contains(flag), "usage must document {flag}");
        }
        assert!(text.contains("--help"));
        let bare = usage("exp_x", "test experiment", &[]);
        assert!(!bare.contains("EXTRA:") && !bare.contains("--smoke") && !bare.contains("--full"));
    }

    #[test]
    fn the_extra_block_lists_exactly_the_declared_flags() {
        let smoke_only = usage("exp_x", "test experiment", &[SMOKE]);
        assert!(smoke_only
            .ends_with("\n\nEXTRA:\n  --smoke        CI-sized grid (a few seconds end to end)"));
        assert!(!smoke_only.contains("--journal"));

        let both = usage("exp_x", "test experiment", &[SMOKE, Extra::Journal]);
        let block = both.split("EXTRA:").nth(1).expect("an EXTRA block");
        let flags: Vec<&str> = block
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(flags, ["smoke", "journal"]);
    }
}
