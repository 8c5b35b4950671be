//! CPU time and peak memory of this process, read from `/proc`.
//!
//! Every reader returns a named [`Unavailable`] instead of a number when the
//! file is missing or malformed: a metric that cannot be measured must never
//! read as zero, because zero busy time or zero memory reads as a gain.

use std::fmt;
use std::path::Path;

/// Why a `/proc` reading could not be taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unavailable {
    /// The quantity that was asked for.
    pub what: &'static str,
    /// What went wrong (missing file, malformed field).
    pub why: String,
}

impl fmt::Display for Unavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} unavailable: {}", self.what, self.why)
    }
}

pub fn read(what: &'static str, path: &Path) -> Result<String, Unavailable> {
    std::fs::read_to_string(path).map_err(|err| Unavailable {
        what,
        why: format!("{}: {err}", path.display()),
    })
}

/// On-CPU nanoseconds from the text of a `schedstat` file: the first of its
/// three fields (time on the CPU, time waiting on a run queue, timeslices).
pub fn parse_schedstat(text: &str) -> Result<u64, Unavailable> {
    let what = "thread CPU time";
    let fields: Vec<&str> = text.split_whitespace().collect();
    if fields.len() != 3 {
        return Err(Unavailable {
            what,
            why: format!("schedstat has {} fields, expected 3", fields.len()),
        });
    }
    fields[0].parse().map_err(|_| Unavailable {
        what,
        why: format!("schedstat on-CPU field {:?} is not a number", fields[0]),
    })
}

/// Peak resident set size in kB from the text of a `status` file (`VmHWM`).
pub fn parse_vm_hwm_kb(text: &str) -> Result<u64, Unavailable> {
    let what = "peak RSS";
    let rest = text
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or_else(|| Unavailable {
            what,
            why: "status has no VmHWM line".to_string(),
        })?;
    rest.trim()
        .strip_suffix("kB")
        .and_then(|kb| kb.trim().parse().ok())
        .ok_or_else(|| Unavailable {
            what,
            why: format!("VmHWM value {:?} is not `<n> kB`", rest.trim()),
        })
}

/// On-CPU nanoseconds of the calling thread so far. The kernel updates the
/// figure at context switches and scheduler ticks, so it is a few
/// milliseconds coarse: difference it over windows of a second or more.
pub fn thread_cpu_ns() -> Result<u64, Unavailable> {
    parse_schedstat(&read(
        "thread CPU time",
        Path::new("/proc/thread-self/schedstat"),
    )?)
}

/// Peak resident set size of this process so far, in kB.
pub fn peak_rss_kb() -> Result<u64, Unavailable> {
    parse_vm_hwm_kb(&read("peak RSS", Path::new("/proc/self/status"))?)
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
fn current_tid() -> Result<u64, Unavailable> {
    let what = "thread id";
    let link = std::fs::read_link("/proc/thread-self").map_err(|err| Unavailable {
        what,
        why: format!("/proc/thread-self: {err}"),
    })?;
    link.file_name()
        .and_then(|name| name.to_str())
        .and_then(|name| name.parse().ok())
        .ok_or_else(|| Unavailable {
            what,
            why: format!("link target {} does not end in a tid", link.display()),
        })
}

/// Summed on-CPU nanoseconds of every task under `task_dir` (a
/// `/proc/<pid>/task` directory) except `skip_tid`. A task that exits between
/// the listing and the read is skipped; any other unreadable or malformed
/// entry makes the whole sum unavailable.
pub fn other_tasks_cpu_ns_in(task_dir: &Path, skip_tid: u64) -> Result<u64, Unavailable> {
    let what = "other threads' CPU time";
    let entries = std::fs::read_dir(task_dir).map_err(|err| Unavailable {
        what,
        why: format!("{}: {err}", task_dir.display()),
    })?;
    let mut total = 0u64;
    for entry in entries {
        let entry = entry.map_err(|err| Unavailable {
            what,
            why: format!("{}: {err}", task_dir.display()),
        })?;
        let name = entry.file_name();
        let tid: u64 = name
            .to_str()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| Unavailable {
                what,
                why: format!("task entry {name:?} is not a tid"),
            })?;
        if tid == skip_tid {
            continue;
        }
        match std::fs::read_to_string(entry.path().join("schedstat")) {
            Ok(text) => total += parse_schedstat(&text)?,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => {
                return Err(Unavailable {
                    what,
                    why: format!("task {tid}: {err}"),
                })
            }
        }
    }
    Ok(total)
}

/// Summed on-CPU nanoseconds of every thread of this process other than the
/// caller — for the loopback workload, the transport's poller.
pub fn other_threads_cpu_ns() -> Result<u64, Unavailable> {
    other_tasks_cpu_ns_in(Path::new("/proc/self/task"), current_tid()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_first_of_three_fields() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Ok(123_456_789));
        assert_eq!(parse_schedstat("0 0 0"), Ok(0));
    }

    #[test]
    fn malformed_schedstat_is_unavailable_not_zero() {
        for text in ["", "12 13", "1 2 3 4", "abc 1 2", "-5 1 2"] {
            let err = parse_schedstat(text).unwrap_err();
            assert_eq!(err.what, "thread CPU time", "{text:?}");
        }
    }

    #[test]
    fn vm_hwm_is_found_among_the_status_lines() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  314572 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Ok(314_572));
    }

    #[test]
    fn missing_or_malformed_vm_hwm_is_unavailable_not_zero() {
        for status in ["", "VmRSS:\t 1 kB\n", "VmHWM:\t many kB\n", "VmHWM:\t 12\n"] {
            let err = parse_vm_hwm_kb(status).unwrap_err();
            assert_eq!(err.what, "peak RSS", "{status:?}");
        }
    }

    #[test]
    fn missing_proc_file_is_unavailable_with_the_path_in_the_reason() {
        let err = read("peak RSS", Path::new("/nonexistent/status")).unwrap_err();
        assert!(err
            .to_string()
            .starts_with("peak RSS unavailable: /nonexistent/status"));
    }

    /// A scratch `/proc/<pid>/task` look-alike under the test binary's own
    /// directory (tests run in parallel, so one directory per test).
    fn fake_task_dir(test: &str, tasks: &[(&str, Option<&str>)]) -> std::path::PathBuf {
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("procfs-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (tid, schedstat) in tasks {
            std::fs::create_dir_all(dir.join(tid)).unwrap();
            if let Some(text) = schedstat {
                std::fs::write(dir.join(tid).join("schedstat"), text).unwrap();
            }
        }
        dir
    }

    #[test]
    fn task_enumeration_sums_every_task_but_the_skipped_one() {
        let dir = fake_task_dir(
            "sum",
            &[
                ("100", Some("5000 1 1")),
                ("101", Some("700 1 1")),
                ("102", Some("30 1 1")),
                // Exited between listing and read: skipped, not an error.
                ("103", None),
            ],
        );
        assert_eq!(other_tasks_cpu_ns_in(&dir, 100), Ok(730));
        assert_eq!(other_tasks_cpu_ns_in(&dir, 999), Ok(5730));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn task_enumeration_with_a_malformed_entry_is_unavailable() {
        let dir = fake_task_dir("bad", &[("100", Some("1 1 1")), ("101", Some("garbage"))]);
        assert!(other_tasks_cpu_ns_in(&dir, 100).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(other_tasks_cpu_ns_in(&dir, 100).is_err());
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        assert!(peak_rss_kb().unwrap() > 0);
        // Spin long enough to cross a scheduler tick.
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(thread_cpu_ns().unwrap() > 0);
        assert!(other_threads_cpu_ns().is_ok());
    }
}
