//! Per-layer metrics derived from a traced pass's resolved spans and
//! tallies — shared by the maintained workloads and `sweep_cells`, so a
//! layer's number means the same on every workload.

use std::collections::BTreeMap;

use tsa_core::ProtocolMsg;
use tsa_sim::Envelope;

use crate::run::RunOutput;
use crate::spans::{totals_by_name, totals_under, NameTotal, Span};

/// Driver-thread CPU and work units (rounds, or sweep cells) of a traced
/// pass's steps, kept once for the steps with the obs sink attached and once
/// for those without.
#[derive(Default)]
pub struct Tally {
    /// Rounds or cells.
    pub units: u64,
    /// On-CPU nanoseconds of the driving thread.
    pub busy_ns: u64,
}

impl Tally {
    fn busy_ns_per_unit(&self) -> Option<f64> {
        (self.units > 0).then(|| self.busy_ns as f64 / self.units as f64)
    }
}

/// `obs.traced_overhead_share`: busy time per unit with the sink attached ÷
/// without − 1.
pub fn overhead_share(on: &Tally, off: &Tally, unit: &str, out: &mut RunOutput) {
    match (on.busy_ns_per_unit(), off.busy_ns_per_unit()) {
        (Some(on_ns), Some(off_ns)) if off_ns > 0.0 => {
            out.set("obs.traced_overhead_share", on_ns / off_ns - 1.0);
            out.note(format!(
                "obs on {:.3} ms/{unit} busy over {} {unit}s, off {:.3} over {}",
                on_ns / 1e6,
                on.units,
                off_ns / 1e6,
                off.units
            ));
        }
        _ => {
            // A window that ended inside the always-traced prefix has no
            // obs-off steps to compare against.
            out.set("obs.traced_overhead_share", 0.0);
            out.note(format!(
                "WARNING: no obs-off {unit}s: overhead share not measured"
            ));
        }
    }
}

/// Every metric that comes from spans alone. Per-round numbers are over the
/// spans inside `step` spans: `rounds` obs-on rounds that delivered
/// `delivered` and sent `sent` messages. A layer the workload does not pass
/// through has no spans and reads 0: no time was spent there. The
/// benchmark's own spans around set-up and tear-down calls are reported as
/// the mean duration of one call.
pub fn span_metrics(spans: &[Span], rounds: u64, delivered: u64, sent: u64, out: &mut RunOutput) {
    let window = totals_under(spans, "step");
    let get = |name: &str| window.get(name).copied().unwrap_or_default();
    let total = |name: &str| get(name).total_ns as f64;
    let per_round_ms = |ns: f64| ns / 1e6 / rounds.max(1) as f64;
    let per = |ns: f64, count: u64| if count == 0 { 0.0 } else { ns / count as f64 };

    // Protocol compute is its own span on the round engine; on the event
    // engine it is what `event.dispatch` does outside the fate draws. On the
    // transport it is inside `net.encode` and cannot be told apart from
    // outside.
    let compute_ns = total("sim.compute") + get("event.dispatch").self_ns as f64;
    out.set("core.compute_ms_per_round", per_round_ms(compute_ns));
    out.set("core.compute_ns_per_msg", per(compute_ns, delivered));
    out.set(
        "sim.deliver_ms_per_round",
        per_round_ms(total("sim.deliver") + total("sim.scatter")),
    );
    out.set(
        "adversary.churn_us_per_round",
        per_round_ms(total("sim.churn") + total("event.churn") + total("net.churn")) * 1e3,
    );
    out.set("event.pop_ms_per_round", per_round_ms(total("event.pop")));
    out.set(
        "event.dispatch_ms_per_round",
        per_round_ms(total("event.dispatch")),
    );
    out.set("event.fate_ns_per_msg", per(total("event.fate"), sent));
    out.set("net.encode_ms_per_round", per_round_ms(total("net.encode")));
    out.set("net.poll_ms_per_round", per_round_ms(total("net.poll")));
    out.set(
        "net.barrier_ms_per_round",
        per_round_ms(total("net.barrier")),
    );
    let step = get("step");
    let unattributed = per(step.self_ns as f64, step.total_ns);
    out.set("scenario.unattributed_share", unattributed);
    if unattributed >= 0.05 {
        out.note(format!(
            "WARNING: scenario.unattributed_share {unattributed:.3} >= 0.05: the layer \
             spans do not account for the step"
        ));
    }

    let all = totals_by_name(spans);
    for (metric, span) in [
        ("scenario.build_ms", "scenario.build"),
        ("core.bootstrap_ms", "core.bootstrap"),
        ("core.report_ms", "core.report"),
        ("core.snapshots_ms", "core.snapshots"),
        ("scenario.outcome_ms", "scenario.outcome"),
    ] {
        out.set(metric, mean_span_ms(&all, span));
    }
    out.set(
        "sim.envelope_bytes",
        std::mem::size_of::<Envelope<ProtocolMsg>>() as f64,
    );
}

/// Mean duration in milliseconds of the spans named `name` (0 when none).
pub fn mean_span_ms(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64)
}
