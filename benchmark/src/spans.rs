//! The traced pass's span log.
//!
//! Two sources feed one in-memory list: spans the benchmark records around
//! public calls into a layer ([`SpanLog::time`]), and the crates' own phase
//! spans (`sim.compute`, `event.pop`, `net.encode`, …), which arrive through
//! the public `set_obs(ObsHandle::new(..))` hook because [`SpanLog`] is a
//! [`Recorder`]. Nothing is written until the run ends; parents and self
//! times are resolved from the timestamps afterwards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tsa_obs::{DetSnapshot, ObsRecorder, Recorder};

use crate::run::{RunOpts, RunOutput};

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`core.bootstrap`, `sim.compute`, `step`).
    pub name: &'static str,
    /// Nanoseconds from the log's epoch to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the log's epoch to the span's end.
    pub end_ns: u64,
    /// The step (epoch pair, sweep cell) the span belongs to.
    pub step: u64,
    /// Index of the innermost span containing this one; filled by
    /// [`resolve_parents`].
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a resolved span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Completed spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by direct children.
    pub self_ns: u64,
}

/// The in-memory span log and obs sink of one traced run.
pub struct SpanLog {
    epoch: Instant,
    step: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// The stock collecting recorder every deterministic probe is forwarded
    /// to, so the traced pass pays what a real obs-on run pays and the exact
    /// counters (`proto.sent`, `proto.round_sent`) can be read back.
    inner: ObsRecorder,
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            step: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            inner: ObsRecorder::new(),
        }
    }

    /// Tags every span recorded from now on with `step`.
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.lock().expect("span log lock").push(Span {
            name,
            start_ns,
            end_ns,
            step: self.step.load(Ordering::Relaxed),
            parent: None,
        });
    }

    /// Runs `f` inside a benchmark span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f();
        self.push(name, start_ns, self.epoch.elapsed().as_nanos() as u64);
        result
    }

    /// The deterministic counters and histograms collected so far.
    pub fn det_snapshot(&self) -> DetSnapshot {
        self.inner.det_snapshot()
    }

    /// Takes the recorded spans, parents resolved, in start order.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log lock"));
        resolve_parents(&mut spans);
        spans
    }
}

impl Recorder for SpanLog {
    fn add(&self, name: &'static str, delta: u64) {
        self.inner.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.inner.observe(name, value);
    }

    fn observe_region(&self, name: &'static str, region: u32, value: u64) {
        self.inner.observe_region(name, region, value);
    }

    fn span_ns(&self, name: &'static str, nanos: u64) {
        // The crates report a finished span's duration only; it ended just
        // now, so its start is that far back.
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push(name, end_ns.saturating_sub(nanos), end_ns);
        self.inner.span_ns(name, nanos);
    }
}

/// Sorts `spans` by start (longer first on a tie) and sets every span's
/// parent to the innermost span that contains its start. All spans of a run
/// come from the driving thread, so they nest.
pub fn resolve_parents(spans: &mut [Span]) {
    spans.sort_by(|a, b| (a.start_ns, b.end_ns).cmp(&(b.start_ns, a.end_ns)));
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while open
            .last()
            .is_some_and(|&top| spans[top].end_ns <= spans[i].start_ns)
        {
            open.pop();
        }
        spans[i].parent = open.last().copied();
        open.push(i);
    }
}

/// [`totals_by_name`] restricted to the spans named `root` and everything
/// nested inside them — the measured window without set-up and tear-down.
pub fn totals_under(spans: &[Span], root: &str) -> BTreeMap<&'static str, NameTotal> {
    let mut inside = vec![false; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        // Parents sort before their children, so `inside[parent]` is final.
        inside[i] = span.name == root || span.parent.is_some_and(|p| inside[p]);
    }
    totals_where(spans, |i| inside[i])
}

/// Count, total and self time per span name. A child's duration is clipped
/// to its parent's interval before it is subtracted.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    totals_where(spans, |_| true)
}

fn totals_where(spans: &[Span], keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, NameTotal> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let end = span.end_ns.min(spans[parent].end_ns);
            covered[parent] += end.saturating_sub(span.start_ns);
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (i, (span, covered)) in spans.iter().zip(covered).enumerate() {
        if !keep(i) {
            continue;
        }
        let total = totals.entry(span.name).or_default();
        total.count += 1;
        total.total_ns += span.dur_ns();
        total.self_ns += span.dur_ns().saturating_sub(covered);
    }
    totals
}

/// The Chrome-trace / Perfetto document of a resolved span list: one
/// process, one track (every span is the driving thread's), the step id in
/// the name of each step span.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut trace = tsa_dash::TraceBuilder::new();
    trace.process_name(1, workload).thread_name(1, 1, "driver");
    for span in spans {
        let name = match span.name {
            "step" => format!("step {}", span.step),
            name => name.to_string(),
        };
        trace.slice(1, 1, &name, span.start_ns / 1000, span.dur_ns() / 1000);
    }
    trace.to_json()
}

/// Writes the traced pass's spans to `--out`, when it was given.
pub fn write_trace(
    opts: &RunOpts,
    workload: &str,
    spans: &[Span],
    out: &mut RunOutput,
) -> std::io::Result<()> {
    if let Some(path) = &opts.out {
        std::fs::write(path, chrome_trace(workload, spans))?;
        out.note(format!("trace written to {}", path.display()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            step: 0,
            parent: None,
        }
    }

    #[test]
    fn parents_are_the_innermost_containing_span() {
        let mut spans = vec![
            span("fate", 30, 40),
            span("step", 0, 100),
            span("dispatch", 20, 90),
            span("pop", 5, 15),
            span("step", 100, 150),
        ];
        resolve_parents(&mut spans);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["step", "pop", "dispatch", "fate", "step"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut spans = vec![
            span("step", 0, 100),
            span("pop", 5, 15),
            span("dispatch", 20, 90),
            span("fate", 30, 40),
            span("fate", 50, 60),
        ];
        resolve_parents(&mut spans);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["step"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(totals["dispatch"].self_ns, 50);
        assert_eq!(totals["fate"].count, 2);
        assert_eq!(totals["fate"].self_ns, 20);
    }

    #[test]
    fn recorder_spans_land_inside_the_benchmark_span_around_them() {
        let log = SpanLog::new();
        log.set_step(3);
        log.time("step", || {
            let started = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(2));
            log.span_ns("sim.compute", started.elapsed().as_nanos() as u64);
            log.add("proto.sent", 5);
        });
        let spans = log.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("step", None));
        assert_eq!((spans[1].name, spans[1].parent), ("sim.compute", Some(0)));
        assert_eq!(spans[1].step, 3);
        assert_eq!(log.det_snapshot().counter("proto.sent"), 5);
        let json = chrome_trace("w", &spans);
        assert!(json.contains("\"step 3\"") && json.contains("\"sim.compute\""));
    }
}
