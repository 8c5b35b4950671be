//! The deterministic gate behind `--compare`.
//!
//! A fresh experiment run is held against the committed `BENCH_<exp>.json`:
//! the deterministic part must byte-match (the same claim the
//! bench-regeneration CI job makes with `git diff`, but failing with a
//! *metric-level* diff naming the exact JSON paths that drifted). Wall-clock
//! fields are never gated here — claims about speed are `benchmark/`'s.

use serde_json::Value;

/// Cap on reported diff lines: enough to localize drift, not enough to dump
/// a whole artifact into CI logs.
const DIFF_CAP: usize = 24;

/// The outcome of holding a fresh artifact against the committed one.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// The experiment name.
    pub exp: String,
    /// Whether a committed artifact existed to compare against.
    pub committed_found: bool,
    /// Whether the fresh artifact byte-matched the committed one. A missing
    /// committed artifact counts as a match (first run seeds the baseline).
    pub det_match: bool,
    /// Human-readable `path: committed -> fresh` lines (capped).
    pub diffs: Vec<String>,
}

impl CompareReport {
    /// Renders the report as the lines the binaries print.
    pub fn render(&self) -> String {
        if !self.committed_found {
            return format!(
                "{}: no committed artifact to compare against (baseline seeded)",
                self.exp
            );
        }
        if self.det_match {
            return format!("{}: fresh artifact matches the committed bytes", self.exp);
        }
        let mut out = format!(
            "{}: fresh artifact DIFFERS from the committed one ({} difference{} shown):",
            self.exp,
            self.diffs.len(),
            if self.diffs.len() == 1 { "" } else { "s" }
        );
        for d in &self.diffs {
            out.push_str("\n  ");
            out.push_str(d);
        }
        out
    }
}

/// Compares a fresh artifact against the committed bytes. `committed` is
/// `None` when no artifact was committed yet.
pub fn compare_artifact(exp: &str, committed: Option<&str>, fresh: &str) -> CompareReport {
    // Byte mismatch: localize it. Parse failures fall back to a one-line
    // explanation rather than pretending the artifacts matched.
    let diffs = match committed.filter(|&committed| committed != fresh) {
        None => Vec::new(),
        Some(committed) => match (
            serde_json::parse_value(committed),
            serde_json::parse_value(fresh),
        ) {
            (Ok(a), Ok(b)) => {
                let mut out = Vec::new();
                diff_values("$", &a, &b, &mut out);
                if out.is_empty() {
                    // Identical trees, different bytes (formatting drift).
                    out.push("artifacts parse identically but differ in formatting".to_string());
                }
                out
            }
            (Err(_), _) => vec!["committed artifact is not valid JSON".to_string()],
            (_, Err(_)) => vec!["fresh artifact is not valid JSON".to_string()],
        },
    };
    CompareReport {
        exp: exp.to_string(),
        committed_found: committed.is_some(),
        det_match: diffs.is_empty(),
        diffs,
    }
}

/// Recursively diffs two JSON values, recording `path: committed -> fresh`
/// lines (capped at `DIFF_CAP`).
pub fn diff_values(path: &str, a: &Value, b: &Value, out: &mut Vec<String>) {
    if out.len() >= DIFF_CAP {
        return;
    }
    match (a, b) {
        (Value::Object(ka), Value::Object(kb)) => {
            for (key, va) in ka {
                match b.get(key) {
                    Some(vb) => diff_values(&format!("{path}.{key}"), va, vb, out),
                    None => push_diff(out, format!("{path}.{key}: removed in fresh artifact")),
                }
            }
            for (key, _) in kb {
                if a.get(key).is_none() {
                    push_diff(out, format!("{path}.{key}: added in fresh artifact"));
                }
            }
        }
        (Value::Array(ia), Value::Array(ib)) => {
            if ia.len() != ib.len() {
                push_diff(out, format!("{path}: length {} -> {}", ia.len(), ib.len()));
                return;
            }
            for (i, (va, vb)) in ia.iter().zip(ib).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => push_diff(
            out,
            format!("{path}: {} -> {}", a.to_json_compact(), b.to_json_compact()),
        ),
    }
}

fn push_diff(out: &mut Vec<String>, line: String) {
    if out.len() < DIFF_CAP {
        out.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_equal_artifacts_match() {
        let r = compare_artifact("exp_x", Some("{\"a\":1}"), "{\"a\":1}");
        assert!(r.det_match && r.committed_found);
        assert!(r.render().contains("matches"));
    }

    #[test]
    fn missing_committed_artifact_seeds_the_baseline() {
        let r = compare_artifact("exp_x", None, "{\"a\":1}");
        assert!(r.det_match && !r.committed_found);
        assert!(r.render().contains("baseline seeded"));
    }

    #[test]
    fn drift_is_localized_to_json_paths() {
        let committed = r#"{"exp":"x","cells":[{"cell":0,"sent":10},{"cell":1,"sent":20}]}"#;
        let fresh = r#"{"exp":"x","cells":[{"cell":0,"sent":10},{"cell":1,"sent":21}]}"#;
        let r = compare_artifact("exp_x", Some(committed), fresh);
        assert!(!r.det_match);
        assert_eq!(r.diffs, vec!["$.cells[1].sent: 20 -> 21"]);
        assert!(r.render().contains("$.cells[1].sent"));
    }

    #[test]
    fn structural_drift_reports_keys_and_lengths() {
        let mut out = Vec::new();
        diff_values(
            "$",
            &serde_json::parse_value(r#"{"a":1,"b":[1,2]}"#).unwrap(),
            &serde_json::parse_value(r#"{"b":[1],"c":3}"#).unwrap(),
            &mut out,
        );
        assert!(out.iter().any(|d| d.contains("$.a: removed")));
        assert!(out.iter().any(|d| d.contains("$.b: length 2 -> 1")));
        assert!(out.iter().any(|d| d.contains("$.c: added")));
    }

    #[test]
    fn diff_output_is_capped() {
        let committed: Vec<u64> = (0..100).collect();
        let fresh: Vec<u64> = (1..101).collect();
        let mut out = Vec::new();
        diff_values(
            "$",
            &serde_json::to_value(&committed).unwrap(),
            &serde_json::to_value(&fresh).unwrap(),
            &mut out,
        );
        assert_eq!(out.len(), DIFF_CAP);
    }
}
