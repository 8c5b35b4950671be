//! # tsa-obs — the deterministic observability layer
//!
//! Instrumentation for the three scheduler policies (`tsa-sim` rounds,
//! `tsa-event` virtual time, `tsa-net` loopback transport) and the sweep
//! executor, built around one contract:
//!
//! * **Deterministic measurements** — monotonic counters and fixed-bucket
//!   power-of-two histograms whose contents derive only from protocol state
//!   (messages per round, inbox sizes, churn events, sampling ages). Their
//!   snapshots are byte-identical across hosts, thread counts and runs, so
//!   CI can compare them like any other artifact.
//! * **Wall-clock measurements** — phase spans (deliver/compute/scatter in
//!   the round engine, pop/fate/dispatch in the event loop, encode/poll/
//!   barrier in the transport). These are honest timings and therefore
//!   machine-dependent; they live in a separate [`TimingSnapshot`] that is
//!   never byte-compared.
//!
//! The layer is zero-overhead when off: engines hold an [`ObsHandle`], and a
//! disabled handle ([`ObsHandle::off`]) performs no clock reads, takes no
//! locks and allocates nothing — every probe is a branch on a `None`.
//!
//! Determinism inside [`ObsRecorder`] comes from algebra, not scheduling:
//! every deterministic operation (counter add, bucket increment, maximum) is
//! commutative and associative, so totals are invariant under thread
//! interleaving — and the engines only record from their sequential
//! sections anyway.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Recorder trait and the two stock implementations
// ---------------------------------------------------------------------------

/// A sink for instrumentation events.
///
/// The deterministic methods ([`add`](Recorder::add),
/// [`observe`](Recorder::observe), [`observe_region`](Recorder::observe_region))
/// must only ever receive protocol-derived values; [`span_ns`](Recorder::span_ns)
/// is the wall-clock side and its values must never feed a byte-compared
/// artifact.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn add(&self, name: &'static str, delta: u64);
    /// Records `value` into the power-of-two histogram `name`.
    fn observe(&self, name: &'static str, value: u64);
    /// Records `value` into the histogram `name` keyed by `region`.
    fn observe_region(&self, name: &'static str, region: u32, value: u64);
    /// Records one completed wall-clock span of `nanos` under `name`.
    fn span_ns(&self, name: &'static str, nanos: u64);
    /// Marks the end of protocol round `index`. Round boundaries are
    /// deterministic punctuation for stream-keeping recorders (the
    /// `tsa-dash` flight recorder); aggregate recorders ignore them, so the
    /// default is a no-op and existing snapshots are byte-unchanged.
    fn round_mark(&self, _index: u64) {}
}

/// A recorder that drops everything: the explicit no-op implementation, for
/// pinning that an attached-but-null recorder perturbs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn observe(&self, _name: &'static str, _value: u64) {}
    fn observe_region(&self, _name: &'static str, _region: u32, _value: u64) {}
    fn span_ns(&self, _name: &'static str, _nanos: u64) {}
}

/// The bucket a value falls into: its bit length (0 → bucket 0, 1 → 1,
/// 2..=3 → 2, 4..=7 → 3, …). Bucket `b > 0` covers `[2^(b-1), 2^b - 1]`.
pub fn bucket_of(value: u64) -> u32 {
    64 - value.leading_zeros()
}

/// One power-of-two histogram: count/sum/max plus 65 fixed buckets (bucket 0
/// holds the zeros). Merging two histograms is element-wise saturating
/// addition (and a max), so accumulation commutes — also at `u64::MAX`.
/// The live recorder and the `tsa-dash` journal fold both accumulate
/// through it, which is what keeps their snapshots byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Hist {
    /// Adds one observation, saturating every total at `u64::MAX`.
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        let bucket = &mut self.buckets[bucket_of(value) as usize];
        *bucket = bucket.saturating_add(1);
    }

    /// The serializable face of this histogram under `name`: only the
    /// occupied buckets, in ascending order.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(bucket, count)| BucketCount {
                    bucket: bucket as u32,
                    count: *count,
                })
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

#[derive(Debug, Default)]
struct DetState {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Hist>,
    region_histograms: BTreeMap<(&'static str, u32), Hist>,
}

/// The collecting recorder: deterministic counters/histograms in one store,
/// wall-clock spans in a strictly separate one, each behind its own lock.
#[derive(Debug, Default)]
pub struct ObsRecorder {
    det: Mutex<DetState>,
    timing: Mutex<BTreeMap<&'static str, SpanStat>>,
}

impl ObsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every deterministic counter and histogram, sorted by name
    /// (and region), so equal contents serialize to equal bytes.
    pub fn det_snapshot(&self) -> DetSnapshot {
        let det = self.det.lock().expect("det state lock");
        DetSnapshot {
            counters: det
                .counters
                .iter()
                .map(|(name, value)| CounterSnapshot {
                    name: name.to_string(),
                    value: *value,
                })
                .collect(),
            histograms: det
                .histograms
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
            region_histograms: det
                .region_histograms
                .iter()
                .map(|((name, region), h)| RegionHistogramSnapshot {
                    region: *region,
                    histogram: h.snapshot(name),
                })
                .collect(),
        }
    }

    /// Snapshot of every wall-clock span aggregate, sorted by name. Honest
    /// timings: machine-dependent by construction, never byte-compared.
    pub fn timing_snapshot(&self) -> TimingSnapshot {
        let timing = self.timing.lock().expect("timing state lock");
        TimingSnapshot {
            spans: timing
                .iter()
                .map(|(name, s)| SpanSnapshot {
                    name: name.to_string(),
                    count: s.count,
                    total_ns: s.total_ns,
                    max_ns: s.max_ns,
                })
                .collect(),
        }
    }
}

impl Recorder for ObsRecorder {
    fn add(&self, name: &'static str, delta: u64) {
        let mut det = self.det.lock().expect("det state lock");
        let counter = det.counters.entry(name).or_insert(0);
        *counter = counter.saturating_add(delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut det = self.det.lock().expect("det state lock");
        det.histograms.entry(name).or_default().record(value);
    }

    fn observe_region(&self, name: &'static str, region: u32, value: u64) {
        let mut det = self.det.lock().expect("det state lock");
        det.region_histograms
            .entry((name, region))
            .or_default()
            .record(value);
    }

    fn span_ns(&self, name: &'static str, nanos: u64) {
        let mut timing = self.timing.lock().expect("timing state lock");
        let s = timing.entry(name).or_default();
        s.count = s.count.saturating_add(1);
        s.total_ns = s.total_ns.saturating_add(nanos);
        s.max_ns = s.max_ns.max(nanos);
    }
}

// ---------------------------------------------------------------------------
// Snapshots (the serializable faces of a recorder)
// ---------------------------------------------------------------------------

/// One monotonic counter's final value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// The counter's name.
    pub name: String,
    /// Its accumulated value.
    pub value: u64,
}

/// One occupied histogram bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// The bucket index: the bit length of the values it covers (bucket
    /// `b > 0` covers `[2^(b-1), 2^b - 1]`; bucket 0 holds zeros).
    pub bucket: u32,
    /// Observations in this bucket.
    pub count: u64,
}

/// One power-of-two histogram's contents (only occupied buckets, in
/// ascending order).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// The histogram's name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// The occupied buckets.
    pub buckets: Vec<BucketCount>,
}

/// A histogram keyed by region (the per-region probes, e.g. sampling ages).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionHistogramSnapshot {
    /// The region key.
    pub region: u32,
    /// The region's histogram.
    pub histogram: HistogramSnapshot,
}

/// Everything deterministic a recorder collected: byte-identical across
/// hosts, thread counts and repeated runs of the same seed.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All region-keyed histograms, sorted by (name, region).
    pub region_histograms: Vec<RegionHistogramSnapshot>,
}

impl DetSnapshot {
    /// The snapshot restricted to entries whose name starts with `prefix` —
    /// e.g. `"proto."` to compare the scheduler-independent protocol
    /// measurements of two different engines.
    pub fn filtered(&self, prefix: &str) -> DetSnapshot {
        DetSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|c| c.name.starts_with(prefix))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|h| h.name.starts_with(prefix))
                .cloned()
                .collect(),
            region_histograms: self
                .region_histograms
                .iter()
                .filter(|r| r.histogram.name.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// The value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The histogram `name`, if any value was ever observed under it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Every wall-clock span aggregate a recorder collected.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSnapshot {
    /// All spans, sorted by name.
    pub spans: Vec<SpanSnapshot>,
}

/// One phase span's aggregate: how often it ran and how long it took.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// The span's name.
    pub name: String,
    /// Completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across all spans.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

// ---------------------------------------------------------------------------
// ObsHandle — what the engines actually hold
// ---------------------------------------------------------------------------

/// The engines' grip on a recorder: `None` is off, and off costs nothing —
/// no clock reads, no locks, no allocation; every probe is one branch.
#[derive(Clone, Default)]
pub struct ObsHandle(Option<Arc<dyn Recorder>>);

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObsHandle(on)"
        } else {
            "ObsHandle(off)"
        })
    }
}

impl ObsHandle {
    /// The disabled handle (the default state of every engine).
    pub fn off() -> Self {
        ObsHandle(None)
    }

    /// A handle delivering to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        ObsHandle(Some(recorder))
    }

    /// Whether a recorder is attached. Engines gate any per-item work
    /// (per-node observations, per-message tallies) on this.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Adds to a counter (no-op when off).
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.0 {
            r.add(name, delta);
        }
    }

    /// Records into a histogram (no-op when off).
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(r) = &self.0 {
            r.observe(name, value);
        }
    }

    /// Records into a region-keyed histogram (no-op when off).
    pub fn observe_region(&self, name: &'static str, region: u32, value: u64) {
        if let Some(r) = &self.0 {
            r.observe_region(name, region, value);
        }
    }

    /// Marks a round boundary (no-op when off, and for aggregate-only
    /// recorders).
    pub fn round_mark(&self, index: u64) {
        if let Some(r) = &self.0 {
            r.round_mark(index);
        }
    }

    /// Starts a wall-clock span: reads the clock only when a recorder is
    /// attached. Pair with [`span_end`](ObsHandle::span_end).
    pub fn span_start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Completes a span started by [`span_start`](ObsHandle::span_start)
    /// (no-op when the start was taken while off).
    pub fn span_end(&self, name: &'static str, started: Option<Instant>) {
        if let (Some(r), Some(started)) = (&self.0, started) {
            r.span_ns(name, started.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Reporter and Progress — the human-facing side
// ---------------------------------------------------------------------------

/// Where human-facing output goes: results to stdout, progress notes to
/// stderr, and a `quiet` switch that silences the notes (never the results).
///
/// This is the migration target of the `print_stdout`/`print_stderr` lint
/// gate: library code routes its output through a `Reporter` instead of the
/// denied `println!`/`eprintln!` macros.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reporter {
    quiet: bool,
}

impl Reporter {
    /// A reporter; `quiet` silences progress notes (results still print).
    pub fn new(quiet: bool) -> Self {
        Reporter { quiet }
    }

    /// A reporter that prints nothing but results.
    pub fn silent() -> Self {
        Reporter { quiet: true }
    }

    /// Whether progress notes are silenced.
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// A progress note on stderr (dropped under `quiet`; write errors are
    /// ignored, as a broken stderr must never fail a run).
    pub fn note(&self, message: &str) {
        if !self.quiet {
            let _ = writeln!(std::io::stderr().lock(), "{message}");
        }
    }

    /// A result line on stdout (always printed; write errors are ignored).
    pub fn result(&self, message: &str) {
        let _ = writeln!(std::io::stdout().lock(), "{message}");
    }

    /// An error line on stderr (always printed, `quiet` or not).
    pub fn error(&self, message: &str) {
        let _ = writeln!(std::io::stderr().lock(), "{message}");
    }
}

/// Recently completed item details kept for [`ProgressSnapshot`]s. Bounded
/// so a million-cell sweep cannot grow the sidecar without limit.
const PROGRESS_RECENT_CAP: usize = 512;

/// Shared progress over a known number of items: each completion prints one
/// `[done/total, eta]` note through the reporter. Thread-safe — sweep
/// workers call [`item_done`](Progress::item_done) concurrently.
///
/// Beyond the stderr notes, a `Progress` can render its state as a
/// machine-readable [`ProgressSnapshot`] at any time — the sweep executor
/// writes one to a JSON sidecar after every cell, and `--quiet` suppresses
/// only the stderr notes, never the sidecar.
#[derive(Debug)]
pub struct Progress {
    reporter: Reporter,
    label: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
    recent: Mutex<Vec<String>>,
}

impl Progress {
    /// Starts tracking `total` items under `label`, with `already_done` of
    /// them pre-completed (resumed from a checkpoint).
    pub fn start(reporter: Reporter, label: &str, total: usize, already_done: usize) -> Self {
        Progress {
            reporter,
            label: label.to_string(),
            total,
            done: AtomicUsize::new(already_done),
            started: Instant::now(),
            recent: Mutex::new(Vec::new()),
        }
    }

    /// Items completed so far (resumed included).
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Marks one item complete and prints `[label k/total, eta] detail`.
    /// The ETA extrapolates from the items completed since `start`.
    pub fn item_done(&self, detail: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        {
            // Keep the rollup for snapshots even under `quiet`: the sidecar
            // is machine-facing and quiet only governs the stderr notes.
            let mut recent = self.recent.lock().expect("progress recent lock");
            if recent.len() == PROGRESS_RECENT_CAP {
                recent.remove(0);
            }
            recent.push(detail.to_string());
        }
        if self.reporter.is_quiet() {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let remaining = self.total.saturating_sub(done);
        let eta = if remaining == 0 {
            String::from("done")
        } else {
            format!("eta {}", fmt_secs(eta_secs(elapsed, done, remaining)))
        };
        self.reporter.note(&format!(
            "[{} {done}/{}, {eta}] {detail}",
            self.label, self.total
        ));
    }

    /// The current state as a serializable snapshot: done/total, elapsed
    /// seconds, an ETA extrapolated the same way the stderr notes do it, and
    /// the most recent per-item rollup lines (bounded).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let done = self.done();
        let elapsed = self.started.elapsed().as_secs_f64();
        let remaining = self.total.saturating_sub(done);
        ProgressSnapshot {
            label: self.label.clone(),
            total: self.total as u64,
            done: done as u64,
            elapsed_secs: if elapsed.is_finite() { elapsed } else { 0.0 },
            eta_secs: eta_secs(elapsed, done, remaining),
            recent: self.recent.lock().expect("progress recent lock").clone(),
        }
    }
}

/// One [`Progress`] state, frozen for machines: what the stderr note says,
/// as data. Contains wall-clock durations, so it is never byte-compared.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// The progress label (typically `exp/sweep`).
    pub label: String,
    /// Total items.
    pub total: u64,
    /// Items completed (resumed included).
    pub done: u64,
    /// Seconds since tracking started.
    pub elapsed_secs: f64,
    /// Extrapolated seconds to completion (0 when done or not started).
    pub eta_secs: f64,
    /// The most recent per-item rollup lines, oldest first (bounded).
    pub recent: Vec<String>,
}

/// Extrapolated seconds to completion, guarded so a zero-duration cell (or
/// any other degenerate timing) can never leak `inf`/`NaN` into the
/// schema-versioned sidecar JSON: 0 items done or 0 remaining yield 0, and a
/// non-finite extrapolation clamps to 0.
fn eta_secs(elapsed: f64, done: usize, remaining: usize) -> f64 {
    if done == 0 || remaining == 0 {
        return 0.0;
    }
    let eta = elapsed / done as f64 * remaining as f64;
    if eta.is_finite() && eta >= 0.0 {
        eta
    } else {
        0.0
    }
}

/// Renders seconds compactly (`42s`, `3m10s`, `1h04m`).
fn fmt_secs(secs: f64) -> String {
    let s = secs.round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn recorder_accumulates_and_snapshots_sorted() {
        let r = ObsRecorder::new();
        r.add("z.counter", 2);
        r.add("a.counter", 1);
        r.add("z.counter", 3);
        r.observe("m.hist", 0);
        r.observe("m.hist", 5);
        r.observe("m.hist", 6);
        r.observe_region("p.age", 1, 9);
        r.observe_region("p.age", 0, 2);
        let snap = r.det_snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].name, "a.counter");
        assert_eq!(snap.counters[1].value, 5);
        assert_eq!(snap.counter("z.counter"), 5);
        assert_eq!(snap.counter("missing"), 0);
        let h = snap.histogram("m.hist").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 11);
        assert_eq!(h.max, 6);
        // 0 → bucket 0; 5 and 6 → bucket 3.
        assert_eq!(
            h.buckets,
            vec![
                BucketCount {
                    bucket: 0,
                    count: 1
                },
                BucketCount {
                    bucket: 3,
                    count: 2
                }
            ]
        );
        // Region histograms sort by (name, region).
        assert_eq!(snap.region_histograms[0].region, 0);
        assert_eq!(snap.region_histograms[1].region, 1);
    }

    #[test]
    fn accumulation_order_is_irrelevant() {
        // The commutativity that makes ObsRecorder thread-count invariant:
        // the same multiset of events in two different orders produces
        // byte-identical snapshots.
        let a = ObsRecorder::new();
        let b = ObsRecorder::new();
        let events: Vec<u64> = vec![3, 0, 17, 17, 255, 4];
        for &v in &events {
            a.add("c", v);
            a.observe("h", v);
        }
        for &v in events.iter().rev() {
            b.add("c", v);
            b.observe("h", v);
        }
        assert_eq!(a.det_snapshot(), b.det_snapshot());
        assert_eq!(
            serde_json::to_string(&a.det_snapshot()).unwrap(),
            serde_json::to_string(&b.det_snapshot()).unwrap()
        );
    }

    #[test]
    fn spans_live_apart_from_the_deterministic_state() {
        let r = ObsRecorder::new();
        r.span_ns("phase", 100);
        r.span_ns("phase", 300);
        assert_eq!(r.det_snapshot(), DetSnapshot::default());
        let t = r.timing_snapshot();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].count, 2);
        assert_eq!(t.spans[0].total_ns, 400);
        assert_eq!(t.spans[0].max_ns, 300);
    }

    #[test]
    fn off_handle_is_inert_and_null_recorder_drops_everything() {
        let off = ObsHandle::off();
        assert!(!off.is_on());
        off.add("c", 1);
        off.observe("h", 1);
        off.observe_region("r", 0, 1);
        assert!(off.span_start().is_none(), "off handles never read clocks");
        off.span_end("s", None);

        let null = Arc::new(NullRecorder);
        let handle = ObsHandle::new(null);
        assert!(handle.is_on());
        handle.add("c", 1);
        handle.span_end("s", handle.span_start());
    }

    #[test]
    fn filtered_keeps_only_the_prefix() {
        let r = ObsRecorder::new();
        r.add("proto.sent", 10);
        r.add("sim.rounds", 3);
        r.observe("proto.inbox", 4);
        r.observe_region("proto.age", 2, 1);
        let full = r.det_snapshot();
        let proto = full.filtered("proto.");
        assert_eq!(proto.counters.len(), 1);
        assert_eq!(proto.counters[0].name, "proto.sent");
        assert_eq!(proto.histograms.len(), 1);
        assert_eq!(proto.region_histograms.len(), 1);
        assert!(full.filtered("nothing.").counters.is_empty());
    }

    #[test]
    fn progress_counts_and_reporter_quiet_mode() {
        let p = Progress::start(Reporter::silent(), "grid", 4, 1);
        assert_eq!(p.done(), 1);
        p.item_done("cell 0");
        p.item_done("cell 1");
        assert_eq!(p.done(), 3);
        assert!(Reporter::silent().is_quiet());
        assert!(!Reporter::new(false).is_quiet());
    }

    #[test]
    fn progress_snapshot_is_machine_readable_even_when_quiet() {
        let p = Progress::start(Reporter::silent(), "exp/sweep", 3, 0);
        p.item_done("n=64 delivered=10");
        let snap = p.snapshot();
        assert_eq!(snap.label, "exp/sweep");
        assert_eq!((snap.total, snap.done), (3, 1));
        assert!(snap.eta_secs >= 0.0);
        // Quiet suppresses stderr notes only — rollups still land here.
        assert_eq!(snap.recent, vec!["n=64 delivered=10".to_string()]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ProgressSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.recent, snap.recent);
    }

    #[test]
    fn zero_duration_cells_never_leak_inf_or_nan_into_the_sidecar() {
        // The degenerate timings directly: zero elapsed, zero done, and
        // non-finite extrapolations all clamp to 0 instead of poisoning the
        // schema-versioned JSON.
        assert_eq!(eta_secs(0.0, 0, 10), 0.0);
        assert_eq!(eta_secs(0.0, 1, 10), 0.0);
        assert_eq!(eta_secs(5.0, 3, 0), 0.0);
        assert_eq!(eta_secs(f64::INFINITY, 1, 1), 0.0);
        assert_eq!(eta_secs(f64::NAN, 1, 1), 0.0);
        assert_eq!(eta_secs(-1.0, 1, 1), 0.0);
        assert_eq!(eta_secs(6.0, 3, 2), 4.0);
        // End to end: a snapshot taken the instant tracking starts (the
        // zero-elapsed cell) round-trips through serde with finite fields.
        let p = Progress::start(Reporter::silent(), "exp/sweep", 4, 0);
        p.item_done("cell 0");
        let snap = p.snapshot();
        assert!(snap.elapsed_secs.is_finite());
        assert!(snap.eta_secs.is_finite());
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains("inf") && !json.contains("NaN") && !json.contains("null"));
        let back: ProgressSnapshot = serde_json::from_str(&json).unwrap();
        assert!(back.eta_secs.is_finite() && back.eta_secs >= 0.0);
        assert_eq!(back.done, 1);
    }

    #[test]
    fn progress_recent_is_bounded() {
        let p = Progress::start(Reporter::silent(), "big", 2000, 0);
        for i in 0..(PROGRESS_RECENT_CAP + 5) {
            p.item_done(&format!("cell {i}"));
        }
        let snap = p.snapshot();
        assert_eq!(snap.recent.len(), PROGRESS_RECENT_CAP);
        assert_eq!(
            snap.recent.last().unwrap(),
            &format!("cell {}", PROGRESS_RECENT_CAP + 4)
        );
    }

    #[test]
    fn round_mark_defaults_to_a_no_op() {
        let r = ObsRecorder::new();
        r.round_mark(7);
        assert_eq!(r.det_snapshot(), DetSnapshot::default());
        let h = ObsHandle::new(Arc::new(ObsRecorder::new()));
        h.round_mark(0);
        ObsHandle::off().round_mark(1);
    }

    #[test]
    fn seconds_format_compactly() {
        assert_eq!(fmt_secs(42.4), "42s");
        assert_eq!(fmt_secs(190.0), "3m10s");
        assert_eq!(fmt_secs(3840.0), "1h04m");
    }
}
