//! The flight recorder: an ordered journal of deterministic observability
//! events.
//!
//! [`ObsRecorder`] aggregates — a run's story dies at process exit as one
//! terminal [`DetSnapshot`]. The [`JournalRecorder`] keeps the *stream*
//! instead: every counter delta, histogram observation and round boundary,
//! in engine emission order, as serde-round-trippable [`JournalEvent`]s.
//! Two invariants make the journal trustworthy:
//!
//! * **Fold equals snapshot.** [`RunJournal::fold`] replays the stream into
//!   a fresh [`DetSnapshot`] that is byte-identical to what the live
//!   recorder reports. The journal therefore carries strictly *more*
//!   information than the snapshot — order and per-round attribution — at
//!   zero trust cost: if the fold matches, no event was lost or reordered
//!   into a different aggregate.
//! * **The deterministic stream is deterministic.** Engines emit
//!   deterministic events only from their sequential sections (the PR 7
//!   contract), so the event *order* — not just the totals — is a pure
//!   function of `(seed, protocol)`: byte-identical JSONL across hosts,
//!   thread caps and `TSA_THREADS` settings. CI byte-compares the files.
//!
//! Wall-clock spans never enter the deterministic stream. The recorder
//! keeps them as [`SpanSlice`]s — honest begin/duration pairs relative to
//! the recorder's epoch — on a strictly separate side, feeding the
//! [trace export](crate::trace) and never a byte-compared artifact.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use tsa_obs::{
    CounterSnapshot, DetSnapshot, Hist, ObsRecorder, Recorder, RegionHistogramSnapshot,
    TimingSnapshot,
};

/// One deterministic observability event, in engine emission order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// `delta` was added to the monotonic counter `name`.
    Counter {
        /// The counter's name.
        name: String,
        /// The increment.
        delta: u64,
    },
    /// `value` was recorded into the power-of-two histogram `name`.
    Observe {
        /// The histogram's name.
        name: String,
        /// The observed value.
        value: u64,
    },
    /// `value` was recorded into the histogram `name` keyed by `region`.
    Region {
        /// The histogram's name.
        name: String,
        /// The region key.
        region: u32,
        /// The observed value.
        value: u64,
    },
    /// Protocol round `index` finished; the events that follow (up to the
    /// next boundary) belong to later rounds.
    Round {
        /// The completed round's index.
        index: u64,
    },
}

/// The ordered deterministic event stream of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunJournal {
    /// The events, in emission order.
    pub events: Vec<JournalEvent>,
}

impl RunJournal {
    /// Number of events in the journal.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the stream into the aggregate it implies. The result is
    /// byte-identical to the [`DetSnapshot`] of the live recorder that
    /// emitted the journal — the fold-equals-snapshot invariant pinned by
    /// `tests/journal_props.rs` and the CI `dash-smoke` job.
    pub fn fold(&self) -> DetSnapshot {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<&str, Hist> = BTreeMap::new();
        let mut regions: BTreeMap<(&str, u32), Hist> = BTreeMap::new();
        for event in &self.events {
            match event {
                JournalEvent::Counter { name, delta } => {
                    let counter = counters.entry(name).or_insert(0);
                    *counter = counter.saturating_add(*delta);
                }
                JournalEvent::Observe { name, value } => {
                    histograms.entry(name).or_default().record(*value);
                }
                JournalEvent::Region {
                    name,
                    region,
                    value,
                } => {
                    regions.entry((name, *region)).or_default().record(*value);
                }
                JournalEvent::Round { .. } => {}
            }
        }
        DetSnapshot {
            counters: counters
                .iter()
                .map(|(name, value)| CounterSnapshot {
                    name: name.to_string(),
                    value: *value,
                })
                .collect(),
            histograms: histograms
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
            region_histograms: regions
                .iter()
                .map(|((name, region), h)| RegionHistogramSnapshot {
                    region: *region,
                    histogram: h.snapshot(name),
                })
                .collect(),
        }
    }

    /// The journal as JSONL: one compact JSON object per line, in emission
    /// order. This is the byte-compared on-disk form.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&serde_json::to_string(event).expect("journal events serialize"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL journal back. Empty lines are skipped; the first
    /// malformed line aborts with its line number — a journal is an ordered
    /// record, so silently dropping a line would forge the fold.
    pub fn from_jsonl(text: &str) -> Result<RunJournal, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalEvent>(line) {
                Ok(event) => events.push(event),
                Err(err) => return Err(format!("journal line {}: {err:?}", i + 1)),
            }
        }
        Ok(RunJournal { events })
    }
}

/// One completed wall-clock span, positioned in run time: `start_us`
/// microseconds after the recorder's creation, lasting `dur_us`. The
/// trace exporter turns these into Perfetto slices. Honest timings —
/// machine-dependent, never byte-compared.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSlice {
    /// The span's name.
    pub name: String,
    /// Microseconds from the recorder's epoch to the span's start.
    pub start_us: u64,
    /// The span's duration in microseconds.
    pub dur_us: u64,
}

/// The flight recorder: an [`ObsRecorder`] that additionally journals the
/// deterministic event stream and keeps wall-clock spans as positioned
/// slices.
///
/// Delegation, not reimplementation: every call lands in the inner
/// aggregate recorder too, so [`det_snapshot`](JournalRecorder::det_snapshot)
/// is *the same code path* exp_profile has always byte-compared — the
/// journal rides along and its fold is checked against that snapshot.
#[derive(Debug)]
pub struct JournalRecorder {
    inner: ObsRecorder,
    events: Mutex<Vec<JournalEvent>>,
    slices: Mutex<Vec<SpanSlice>>,
    epoch: Instant,
}

impl Default for JournalRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl JournalRecorder {
    /// An empty flight recorder; its epoch (the zero of every slice) is now.
    pub fn new() -> Self {
        JournalRecorder {
            inner: ObsRecorder::new(),
            events: Mutex::new(Vec::new()),
            slices: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// The live deterministic aggregate (identical to an [`ObsRecorder`]'s).
    pub fn det_snapshot(&self) -> DetSnapshot {
        self.inner.det_snapshot()
    }

    /// The live wall-clock span aggregate (identical to an
    /// [`ObsRecorder`]'s).
    pub fn timing_snapshot(&self) -> TimingSnapshot {
        self.inner.timing_snapshot()
    }

    /// The deterministic event stream journaled so far.
    pub fn journal(&self) -> RunJournal {
        RunJournal {
            events: self.events.lock().expect("journal event lock").clone(),
        }
    }

    /// The wall-clock span slices collected so far, in completion order.
    pub fn slices(&self) -> Vec<SpanSlice> {
        self.slices.lock().expect("journal slice lock").clone()
    }
}

impl Recorder for JournalRecorder {
    fn add(&self, name: &'static str, delta: u64) {
        self.events
            .lock()
            .expect("journal event lock")
            .push(JournalEvent::Counter {
                name: name.to_string(),
                delta,
            });
        self.inner.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.events
            .lock()
            .expect("journal event lock")
            .push(JournalEvent::Observe {
                name: name.to_string(),
                value,
            });
        self.inner.observe(name, value);
    }

    fn observe_region(&self, name: &'static str, region: u32, value: u64) {
        self.events
            .lock()
            .expect("journal event lock")
            .push(JournalEvent::Region {
                name: name.to_string(),
                region,
                value,
            });
        self.inner.observe_region(name, region, value);
    }

    fn round_mark(&self, index: u64) {
        self.events
            .lock()
            .expect("journal event lock")
            .push(JournalEvent::Round { index });
    }

    fn span_ns(&self, name: &'static str, nanos: u64) {
        // Position the slice by its end (the only instant this callback
        // has): start = now - duration, both relative to the epoch.
        let end_us = self.epoch.elapsed().as_micros() as u64;
        let dur_us = nanos / 1_000;
        self.slices
            .lock()
            .expect("journal slice lock")
            .push(SpanSlice {
                name: name.to_string(),
                start_us: end_us.saturating_sub(dur_us),
                dur_us,
            });
        self.inner.span_ns(name, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tsa_obs::ObsHandle;

    #[test]
    fn fold_reproduces_the_live_snapshot() {
        let rec = Arc::new(JournalRecorder::new());
        let obs = ObsHandle::new(rec.clone());
        obs.add("proto.sent", 10);
        obs.observe("proto.inbox", 3);
        obs.round_mark(0);
        obs.add("proto.sent", 7);
        obs.observe("proto.inbox", 0);
        obs.observe_region("proto.age", 2, 5);
        obs.round_mark(1);
        let folded = rec.journal().fold();
        assert_eq!(folded, rec.det_snapshot());
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&rec.det_snapshot()).unwrap()
        );
        assert_eq!(rec.journal().len(), 7);
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let journal = RunJournal {
            events: vec![
                JournalEvent::Round { index: 0 },
                JournalEvent::Counter {
                    name: "a".into(),
                    delta: 1,
                },
                JournalEvent::Observe {
                    name: "quoted \"name\"\nwith\\escapes".into(),
                    value: u64::MAX,
                },
                JournalEvent::Region {
                    name: "r".into(),
                    region: 7,
                    value: 0,
                },
            ],
        };
        let text = journal.to_jsonl();
        let back = RunJournal::from_jsonl(&text).unwrap();
        assert_eq!(back, journal);
        assert_eq!(back.to_jsonl(), text);
        // serde round-trip of the whole struct, too.
        let json = serde_json::to_string(&journal).unwrap();
        let back: RunJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, journal);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = RunJournal::from_jsonl("{\"Round\":{\"index\":0}}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Empty lines are tolerated (trailing newline, blank separators).
        let ok = RunJournal::from_jsonl("\n{\"Round\":{\"index\":3}}\n\n").unwrap();
        assert_eq!(ok.events, vec![JournalEvent::Round { index: 3 }]);
    }

    #[test]
    fn a_hostile_line_is_an_error_naming_it_not_a_crash() {
        // A million unclosed `[` would overflow a recursive parser's stack.
        let err = RunJournal::from_jsonl(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn spans_never_enter_the_deterministic_stream() {
        let rec = JournalRecorder::new();
        rec.span_ns("sim.deliver", 2_000_000);
        rec.span_ns("sim.compute", 500);
        assert!(rec.journal().is_empty());
        let slices = rec.slices();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].name, "sim.deliver");
        assert_eq!(slices[0].dur_us, 2_000);
        // Sub-microsecond spans round to zero duration but still appear.
        assert_eq!(slices[1].dur_us, 0);
        // And the timing aggregate matches an ObsRecorder's shape.
        assert_eq!(rec.timing_snapshot().spans.len(), 2);
        assert_eq!(rec.det_snapshot(), DetSnapshot::default());
    }

    #[test]
    fn hostile_totals_saturate_alike_in_fold_and_recorder() {
        // Two 2^63 counter deltas and two 2^63 observations overflow a u64:
        // fold and live recorder both stop at u64::MAX instead of wrapping.
        let text = "{\"Counter\":{\"name\":\"c\",\"delta\":9223372036854775808}}\n\
                    {\"Counter\":{\"name\":\"c\",\"delta\":9223372036854775808}}\n\
                    {\"Observe\":{\"name\":\"h\",\"value\":9223372036854775808}}\n\
                    {\"Observe\":{\"name\":\"h\",\"value\":9223372036854775808}}\n";
        let folded = RunJournal::from_jsonl(text).unwrap().fold();
        assert_eq!(folded.counter("c"), u64::MAX);
        assert_eq!(folded.histogram("h").unwrap().sum, u64::MAX);
        let rec = JournalRecorder::new();
        for _ in 0..2 {
            rec.add("c", 1 << 63);
            rec.observe("h", 1 << 63);
        }
        assert_eq!(folded, rec.det_snapshot());
    }

    #[test]
    fn fold_merges_like_the_recorder_merges() {
        // The same multiset of events through both recorders: fold output
        // must be byte-identical to the aggregate, bucket structure included.
        let rec = Arc::new(JournalRecorder::new());
        let obs = ObsHandle::new(rec.clone());
        for v in [0u64, 1, 1, 3, 1024, 1 << 40] {
            obs.observe("h", v);
            obs.observe_region("g", 1, v);
            obs.add("c", v);
        }
        assert_eq!(
            serde_json::to_string(&rec.journal().fold()).unwrap(),
            serde_json::to_string(&rec.det_snapshot()).unwrap()
        );
    }
}
