//! Drives the built binary the way the driver does, in smoke mode
//! (a twentieth of the run length, one set-up, oracle on).

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eclipse-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary starts")
}

/// The contract line: the last line of standard output.
fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn metric_names(line: &Json) -> Vec<String> {
    line.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let out = bench(&[
        "--workload",
        "wc_warm",
        "--seed",
        "7",
        "--seconds",
        "20",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let line = last_line(&out);
    let keys: Vec<&str> = line.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 2.0);
    assert_eq!(
        metric_names(&line),
        ["records_per_s", "op_p50_ms", "op_p90_ms", "cpu_s_per_mrec", "peak_rss_mb", "setup_s"]
    );
    for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap() {
        assert!(m.get("value").and_then(Json::as_f64).unwrap() > 0.0, "{name} must never be 0");
    }
}

/// Flipping one byte of the reference must fail the run: non-zero
/// exit, `correct: false`, every checked op counted as failed.
#[test]
fn a_corrupted_reference_fails_the_run() {
    let out = bench(&[
        "--workload",
        "storm_pool",
        "--seconds",
        "20",
        "--trace",
        "0",
        "--smoke",
        "--corrupt-reference",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_a_loadable_trace() {
    let out = bench(&["--workload", "epoch_ingest", "--seconds", "20", "--trace", "1", "--smoke"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let line = last_line(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let names = metric_names(&line);
    assert_eq!(names.len(), 38);
    assert!(names.iter().any(|n| n == "epoch.snapshot_get_us"));
    let ratio =
        line.get("metrics").and_then(|m| m.get("epoch.cached_ratio")).and_then(|m| m.get("value"));
    assert_eq!(ratio.and_then(Json::as_f64), Some(1.0));

    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/results/out/trace-epoch_ingest.json");
    let doc = Json::parse(&std::fs::read_to_string(trace).expect("trace file written"))
        .expect("trace parses");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(events.iter().any(|e| e.get("name") == Some(&Json::str("sut.commit_epoch"))));
    assert!(events.iter().all(|e| e.get("ph") == Some(&Json::str("X"))));
}

#[test]
fn bad_arguments_exit_with_usage_errors() {
    assert_eq!(bench(&["--workload", "nope", "--seconds", "1"]).status.code(), Some(2));
    assert_eq!(bench(&["--seconds", "0", "--workload", "wc_warm"]).status.code(), Some(2));
    assert_eq!(bench(&["compare", "only-one.json"]).status.code(), Some(2));
}
