//! The dashboard binary.
//!
//! ```text
//! tsa-dash --serve [--addr 127.0.0.1:8787] [--dir .] [--sweeps <dir>]
//! tsa-dash --fold <journal.jsonl>
//! ```
//!
//! `--serve` starts the live dashboard (see [`tsa_dash::serve`]); `--fold`
//! replays a flight-recorder journal and prints the deterministic snapshot
//! it folds to — the offline half of the fold-equals-snapshot check.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use tsa_dash::{serve, DashConfig, RunJournal};

const USAGE: &str = "usage:
  tsa-dash --serve [--addr 127.0.0.1:8787] [--dir .] [--sweeps <dir>] [--max-requests N]
  tsa-dash --fold <journal.jsonl>

  --serve          serve the live dashboard over plain HTTP
  --addr A         listen address (default 127.0.0.1:8787)
  --dir D          artifact directory holding BENCH_*.json (default .)
  --sweeps D       progress sidecar directory (default <dir>/target/sweeps)
  --max-requests N exit after serving N requests (smoke tests)
  --fold FILE      fold a JSONL journal and print its DetSnapshot as JSON";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_serve = false;
    let mut fold: Option<PathBuf> = None;
    let mut addr = String::from("127.0.0.1:8787");
    let mut dir = PathBuf::from(".");
    let mut sweeps: Option<PathBuf> = None;
    let mut max_requests: Option<usize> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve" => mode_serve = true,
            "--fold" => match it.next() {
                Some(path) => fold = Some(PathBuf::from(path)),
                None => return usage_error("--fold needs a file"),
            },
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage_error("--addr needs an address"),
            },
            "--dir" => match it.next() {
                Some(d) => dir = PathBuf::from(d),
                None => return usage_error("--dir needs a directory"),
            },
            "--sweeps" => match it.next() {
                Some(d) => sweeps = Some(PathBuf::from(d)),
                None => return usage_error("--sweeps needs a directory"),
            },
            "--max-requests" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_requests = Some(n),
                None => return usage_error("--max-requests needs a number"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other}")),
        }
    }

    if let Some(path) = fold {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tsa-dash: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let journal = match RunJournal::from_jsonl(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("tsa-dash: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snapshot = journal.fold();
        println!(
            "{}",
            serde_json::to_string_pretty(&snapshot).expect("snapshot serializes")
        );
        return ExitCode::SUCCESS;
    }

    if !mode_serve {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let mut config = DashConfig::at(&dir);
    if let Some(s) = sweeps {
        config.sweeps = s;
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tsa-dash: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "tsa-dash: serving {} (sweeps: {}) on http://{addr}/",
        config.dir.display(),
        config.sweeps.display()
    );
    serve(&listener, &config, max_requests);
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("tsa-dash: {message}\n{USAGE}");
    ExitCode::FAILURE
}
