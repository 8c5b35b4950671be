//! One CPU per pass. A pass re-executes itself under `taskset -c <cpu>`, so
//! every thread it starts — the transport's poller included — shares one
//! CPU. On the 2-core reference host the scheduler otherwise puts driver and
//! poller on one CPU in some minutes and on two in others, and the
//! transport's busy time flips between ~24 and ~30 ms per round with it (a
//! 25 % spread that has nothing to do with the code under test). The
//! single-threaded workloads measure the same either way.

use std::process::Command;

use crate::procfs::{read, Unavailable};

/// Set in the re-executed child, so it does not pin itself again.
const PINNED_ENV: &str = "TSA_BENCHMARK_PINNED";

/// The first CPU of a `Cpus_allowed_list` value (`0-1`, `2,4-7`).
pub fn first_cpu(list: &str) -> Option<u32> {
    list.trim()
        .split([',', '-'])
        .next()
        .and_then(|cpu| cpu.parse().ok())
}

/// The first CPU this process may run on, from `/proc/self/status`.
fn first_allowed_cpu() -> Result<u32, Unavailable> {
    let what = "allowed CPUs";
    let status = read(what, std::path::Path::new("/proc/self/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(first_cpu)
        .ok_or_else(|| Unavailable {
            what,
            why: "status has no parseable Cpus_allowed_list line".to_string(),
        })
}

/// Runs this same command line again, pinned to one CPU, and returns its
/// exit code — or `None` when this process is that pinned child already, or
/// pinning is not possible here (no `taskset`, no readable CPU list): the
/// caller then runs the pass itself, unpinned, after a warning.
pub fn rerun_pinned() -> Option<i32> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let pinned = first_allowed_cpu()
        .map_err(|err| err.to_string())
        .and_then(|cpu| {
            let exe = std::env::current_exe().map_err(|err| err.to_string())?;
            Command::new("taskset")
                .args(["-c", &cpu.to_string()])
                .arg(exe)
                .args(std::env::args_os().skip(1))
                .env(PINNED_ENV, "1")
                .status()
                .map_err(|err| format!("taskset: {err}"))
        });
    match pinned {
        // Killed by a signal: no code; report a plain failure.
        Ok(status) => Some(status.code().unwrap_or(1)),
        Err(why) => {
            eprintln!("tsa-benchmark: WARNING: running unpinned ({why})");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_of_ranges_and_lists() {
        assert_eq!(first_cpu("0-1"), Some(0));
        assert_eq!(first_cpu("\t2,4-7\n"), Some(2));
        assert_eq!(first_cpu("5"), Some(5));
        assert_eq!(first_cpu(""), None);
        assert_eq!(first_cpu("all"), None);
    }

    #[test]
    fn this_process_has_an_allowed_cpu() {
        assert!(first_allowed_cpu().is_ok());
    }
}
