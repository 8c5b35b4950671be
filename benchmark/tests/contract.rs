//! The run contract, through real `--quick` passes of the cheapest workload:
//! the last line of stdout is the result object with exactly the contract's
//! keys, one seed gives one digest, bad invocations exit non-zero without
//! printing a result, and the loopback workload's poller thread is measured.

use std::process::{Command, Output};

use serde_json::Value;

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsa-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value(last).expect("the last line is JSON")
}

fn digest_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find(|line| line.starts_with("detail: "))
        .expect("a detail line")
        .to_string()
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.get("metrics") {
        Some(Value::Object(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn catalogue_names(key: &str) -> Vec<String> {
    let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

const SWEEP_QUICK: [&str; 7] = [
    "--workload",
    "sweep_cells",
    "--seed",
    "7",
    "--seconds",
    "10",
    "--quick",
];

#[test]
fn plain_and_traced_passes_print_the_contract_object_and_agree_on_the_digest() {
    let plain = benchmark(&[&SWEEP_QUICK[..], &["--trace", "0"]].concat());
    assert!(plain.status.success(), "{plain:?}");
    let result = last_line(&plain);
    let Value::Object(entries) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics", "quick"]);
    assert_eq!(result.get("correct").unwrap().as_bool(), Some(true));
    assert_eq!(result.get("failed").unwrap().as_u64(), Some(0));
    assert!(result.get("attempted").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(metric_names(&result), catalogue_names("end_to_end"));
    for (name, entry) in match result.get("metrics").unwrap() {
        Value::Object(entries) => entries,
        _ => unreachable!(),
    } {
        assert!(
            entry.get("value").unwrap().as_f64().unwrap() > 0.0,
            "{name}"
        );
    }

    let traced = benchmark(&[&SWEEP_QUICK[..], &["--trace", "1"]].concat());
    assert!(traced.status.success(), "{traced:?}");
    assert_eq!(
        metric_names(&last_line(&traced)),
        catalogue_names("per_layer")
    );
    // One seed, one answer, on either pass.
    assert_eq!(digest_line(&plain), digest_line(&traced));
    assert!(digest_line(&plain).contains("\"comparable\":true"));

    let other_seed = benchmark(&[
        "--workload",
        "sweep_cells",
        "--seed",
        "8",
        "--seconds",
        "10",
        "--quick",
        "--trace",
        "0",
    ]);
    assert_ne!(digest_line(&plain), digest_line(&other_seed));
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "sweep_cells",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "sweep_cells",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "sweep_cells",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--seed", "1", "--seconds", "1", "--trace", "0"],
        &["--quick", "--write-baseline"],
        &["--frobnicate"],
    ] {
        let output = benchmark(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// The transport's poller is joined when its world is dropped, and an exited
/// thread's `/proc` entry is gone: its CPU time has to be read while the
/// world is alive, or it reads as a false zero.
#[test]
fn the_loopback_traced_pass_sees_the_poller_thread() {
    let traced = benchmark(&[
        "--workload",
        "net_loopback",
        "--seed",
        "7",
        "--seconds",
        "10",
        "--quick",
        "--trace",
        "1",
    ]);
    assert!(traced.status.success(), "{traced:?}");
    let result = last_line(&traced);
    let value = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no {name}"))
    };
    assert!(value("net.poller_cpu_ms_per_round") > 0.0);
    assert!(value("net.frames_per_round") > 0.0);
    assert!(value("net.encode_ms_per_round") > 0.0);
}
