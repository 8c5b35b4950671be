//! # tsa-dash — the observation/presentation layer
//!
//! What `tsa-obs` measures, this crate keeps, exports and shows:
//!
//! * [`JournalRecorder`] / [`RunJournal`] — the **flight recorder**: the
//!   ordered deterministic event stream of a run (counter deltas, histogram
//!   observations, round boundaries) as serde-round-trippable JSONL, with
//!   the invariant that [`RunJournal::fold`] reproduces the live
//!   [`DetSnapshot`](tsa_obs::DetSnapshot) byte-for-byte. Because engines
//!   emit deterministic events only from sequential sections, the stream —
//!   order included — is byte-identical across hosts and thread caps.
//! * [`TraceBuilder`] — **Chrome-trace/Perfetto export** of the wall-clock
//!   side: engine phase spans and sweep cells as trace-event JSON, one
//!   process per engine, one track per worker, one slice per span.
//! * [`serve()`](serve::serve) / [`DashConfig`] — the **live dashboard**: a `std::net`
//!   HTTP server (no tokio, same discipline as `tsa-net`) that tails sweep
//!   progress sidecars and lists committed `BENCH_*.json` artifacts.
//!
//! The det/timing split of `tsa-obs` is preserved wholesale: journals hold
//! only deterministic events and are byte-compared in CI; spans live in
//! [`SpanSlice`]s and traces, which never are.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod journal;
pub mod serve;
pub mod trace;

pub use journal::{JournalEvent, JournalRecorder, RunJournal, SpanSlice};
pub use serve::{serve, DashConfig};
pub use trace::TraceBuilder;
