//! The metric catalogue, read from the repository's `BENCHMARK.json` at
//! compile time: workload names, every end-to-end and per-layer metric with
//! its unit, and the regression bounds. The binary emits
//! exactly the metrics the file names, so the two cannot drift apart.

use std::sync::OnceLock;

use serde_json::Value;

use crate::stats::Bound;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the catalogue.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// The metric's name, as printed.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// The regression bound (end-to-end metrics only).
    pub bound: Option<Bound>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<MetricDef>,
}

/// Absolute floors under the relative bounds, in the metric's own unit: the
/// grain below which a difference is measurement noise whatever the base
/// (`BENCHMARK.json` has no field for them).
fn absolute_floor(name: &str) -> f64 {
    match name {
        "peak_rss_mb" => 2.0,
        "setup_s" => 0.25,
        _ => 0.0,
    }
}

/// The one workload whose traced pass measures `metric`, for the metrics
/// that are not measured on every run: single-layer measurements that need
/// no maintained overlay belong to the workload whose end-to-end numbers
/// that layer feeds, and the sweep layer exists on `sweep_cells` only.
/// Every other workload reports such a metric as 0. `None`: measured by
/// every traced pass.
pub fn home_workload(metric: &str) -> Option<&'static str> {
    match metric {
        "sim.flood_ns_per_msg" => Some("round_maintained"),
        "event.queue_op_ns" | "event.flood_ns_per_msg" => Some("event_jitter"),
        "net.encode_ns_per_frame" | "net.decode_ns_per_frame" => Some("net_loopback"),
        m if m.starts_with("sweep.") || m.starts_with("routing.") => Some("sweep_cells"),
        _ => None,
    }
}

fn metric_defs(doc: &Value, key: &str) -> Vec<MetricDef> {
    let text = |m: &Value, field: &str| {
        m.get(field)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks {field}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
        .iter()
        .map(|m| {
            let name = text(m, "name");
            MetricDef {
                unit: text(m, "unit"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .map(|relative| Bound {
                        relative,
                        absolute_floor: absolute_floor(&name),
                    }),
                name,
            }
        })
        .collect()
}

/// The catalogue (parsed once; a malformed file is a build defect and
/// panics with the offending key).
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let doc = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Catalog {
            workloads: doc
                .get("workloads")
                .and_then(Value::as_array)
                .expect("BENCHMARK.json: no workloads list")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("BENCHMARK.json: workload lacks a name")
                        .to_string()
                })
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: no run_seconds"),
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_meets_the_benchmark_contract() {
        let c = catalog();
        assert_eq!(
            c.workloads,
            [
                "round_maintained",
                "event_jitter",
                "net_loopback",
                "sweep_cells"
            ]
        );
        assert!((1..=60).contains(&c.run_seconds));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound.relative > 0.0 && bound.relative <= 0.25, "{}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are used once");
    }
}
