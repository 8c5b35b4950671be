//! What one benchmark run takes and yields, and how the result is printed:
//! human-readable lines first, then a `strict_failed:` line and a `detail:`
//! line with the exact counts the suite compares between repeats, then —
//! last — the one JSON object of the benchmark contract.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value;

use crate::catalog::{catalog, MetricDef};
use crate::procfs::Unavailable;
use crate::stats::{percentile, tail_percentile};

/// Seed tag of a maintained run's worlds.
const WORLD_TAG: u64 = 0x0077_6f72_6c64;

/// The options of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// The only input to scenario, adversary and sweep seeds.
    pub seed: u64,
    /// How long the measured window lasts.
    pub seconds: f64,
    /// Whether this is the traced pass (per-layer metrics) or the plain one
    /// (end-to-end metrics).
    pub trace: bool,
    /// A tenth of every window and one world: for this crate's own tests.
    pub quick: bool,
    /// Where the traced pass writes its Chrome-trace JSON.
    pub out: Option<PathBuf>,
}

impl RunOpts {
    /// The measured window in seconds (`--quick` runs a tenth of it).
    pub fn window_secs(&self) -> f64 {
        if self.quick {
            self.seconds / 10.0
        } else {
            self.seconds
        }
    }

    /// How many worlds a maintained run measures one after the other (and
    /// how many times the sweep workload sets up): each is set up from
    /// scratch, so this is also the sample count behind the `setup_s` median.
    pub fn worlds(&self) -> usize {
        if self.quick {
            1
        } else {
            4
        }
    }

    /// A seed for one purpose (`tag`), derived from `--seed` alone.
    pub fn derived_seed(&self, tag: u64) -> u64 {
        tsa_sim::rng::mix(&[self.seed, tag])
    }

    /// The scenario seed of the `index`-th world of a maintained run.
    pub fn world_seed(&self, index: usize) -> u64 {
        tsa_sim::rng::mix(&[self.seed, WORLD_TAG, index as u64])
    }
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum RunError {
    /// A `/proc` reading an emitted metric depends on could not be taken.
    Unavailable(Unavailable),
    /// The run finished but did not measure a metric the catalogue names.
    MissingMetric(String),
    /// The workload name is not in the catalogue.
    UnknownWorkload(String),
    /// The trace file could not be written.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unavailable(u) => write!(f, "{u}"),
            RunError::MissingMetric(name) => write!(f, "metric {name} was not measured"),
            RunError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?} (known: {})",
                catalog().workloads.join(", ")
            ),
            RunError::Io(err) => write!(f, "{err}"),
        }
    }
}

impl From<Unavailable> for RunError {
    fn from(u: Unavailable) -> Self {
        RunError::Unavailable(u)
    }
}

impl From<std::io::Error> for RunError {
    fn from(err: std::io::Error) -> Self {
        RunError::Io(err)
    }
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Determinism and consistency checks all held and the overlay (every
    /// sweep cell) was routable at the end.
    pub correct: bool,
    /// Steps attempted: two-round epochs, or sweep cells.
    pub attempted: u64,
    /// Steps that failed.
    pub failed: u64,
    /// Steps that fail ISSUE 11's per-step rule: the failed ones, and on the
    /// transport also single steps over 1.5× their schedule, steps with a
    /// frame delivered past the next boundary, and every step of a world that
    /// was not routable when its window ended but healed in the grace steps.
    /// Host stalls put a few of these in a healthy run, so they do not fail
    /// it; `repeat-check` compares their share between its two sets.
    pub strict_failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Hash of the seed-determined outputs at the fixed prefix point: equal
    /// between two runs of one seed on any machine, so parent and change can
    /// be compared.
    pub det_digest: u64,
    /// Exact, seed-determined counts at the same point.
    pub exact: Vec<(&'static str, u64)>,
    /// Whether the wall clock perturbed the digested outputs (a transport
    /// frame that missed its boundary changes the protocol trace): such a
    /// pass is correct, but its digest is not comparable with other passes'.
    pub perturbed: bool,
    /// Human-readable lines (sample counts, tail percentiles, warnings).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The line printed beside `step_ms_p50`: the highest tail percentile the
/// sample count supports (printed, not gated), the slowest step and the
/// sample count.
pub fn step_tail_note(step_ms: &[f64], unit: &str) -> String {
    let max = step_ms.iter().copied().fold(0.0, f64::max);
    match tail_percentile(step_ms.len()) {
        Some(pct) => format!(
            "step_ms_p{pct:.0} {:.4} ms, max {max:.4} ms over {} {unit}s",
            percentile(step_ms, pct).expect("a tail percentile needs samples"),
            step_ms.len()
        ),
        None => format!(
            "step_ms max {max:.4} ms over {} {unit}s: too few for a tail percentile",
            step_ms.len()
        ),
    }
}

/// FNV-1a over `bytes`: the digest of a run's seed-determined outputs. Not a
/// cryptographic hash — it only has to differ when the outputs differ.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The contract's result object: every metric the catalogue lists for this
/// pass, by name, with its unit.
fn result_json(output: &RunOutput, defs: &[MetricDef], quick: bool) -> Result<Value, RunError> {
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = output
            .metrics
            .get(def.name.as_str())
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| RunError::MissingMetric(def.name.clone()))?;
        metrics.push((
            def.name.clone(),
            object(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(def.unit.clone())),
            ]),
        ));
    }
    let mut entries = vec![
        ("correct", Value::Bool(output.correct)),
        ("attempted", Value::UInt(output.attempted)),
        ("failed", Value::UInt(output.failed)),
        ("metrics", Value::Object(metrics)),
    ];
    if quick {
        entries.push(("quick", Value::Bool(true)));
    }
    Ok(object(entries))
}

/// Prints a finished run: notes, every metric by name with its unit, the
/// `detail:` line, and the result object as the last line of stdout.
pub fn print_run(workload: &str, opts: &RunOpts, output: &RunOutput) -> Result<(), RunError> {
    let cat = catalog();
    let defs = if opts.trace {
        &cat.per_layer
    } else {
        &cat.end_to_end
    };
    let result = result_json(output, defs, opts.quick)?;
    println!(
        "{workload} seed={} window={}s {}{}",
        opts.seed,
        opts.window_secs(),
        if opts.trace { "traced" } else { "untraced" },
        if opts.quick { " (quick)" } else { "" },
    );
    for def in defs {
        println!(
            "  {:<34} {:>16.4} {}",
            def.name,
            output.metrics[def.name.as_str()],
            def.unit
        );
    }
    for note in &output.notes {
        println!("  {note}");
    }
    println!("  det_digest {:016x}", output.det_digest);
    println!("strict_failed: {}", output.strict_failed);
    let detail = object(vec![
        ("comparable", Value::Bool(!output.perturbed)),
        (
            "det_digest",
            Value::Str(format!("{:016x}", output.det_digest)),
        ),
        (
            "exact",
            Value::Object(
                output
                    .exact
                    .iter()
                    .map(|(name, count)| (name.to_string(), Value::UInt(*count)))
                    .collect(),
            ),
        ),
    ]);
    println!("detail: {}", detail.to_json_compact());
    println!("{}", result.to_json_compact());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys_and_every_metric() {
        let mut output = RunOutput {
            correct: true,
            attempted: 7,
            ..RunOutput::default()
        };
        for def in &catalog().end_to_end {
            output.set(&def.name, 1.5);
        }
        let json = result_json(&output, &catalog().end_to_end, false).unwrap();
        let Value::Object(entries) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn an_unmeasured_or_non_finite_metric_is_an_error_not_a_zero() {
        let mut output = RunOutput::default();
        let err = result_json(&output, &catalog().end_to_end, false).unwrap_err();
        assert!(matches!(err, RunError::MissingMetric(_)));
        for def in &catalog().end_to_end {
            output.set(&def.name, f64::NAN);
        }
        assert!(result_json(&output, &catalog().end_to_end, false).is_err());
    }

    #[test]
    fn quick_runs_are_marked() {
        let opts = RunOpts {
            seed: 29,
            seconds: 10.0,
            trace: false,
            quick: true,
            out: None,
        };
        assert_eq!(opts.window_secs(), 1.0);
        assert_eq!(opts.worlds(), 1);
        assert_ne!(opts.derived_seed(1), opts.derived_seed(2));
        assert_ne!(opts.world_seed(0), opts.world_seed(1));
    }
}
