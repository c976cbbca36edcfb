//! Toy-scale self-test of the benchmark: every workload runs for one
//! round, twice untraced and once traced. Each run must exit 0 and end
//! with a result line of the documented schema that carries every
//! metric `BENCHMARK.json` names, with its unit, and no failed check.
//! The deterministic counters must be equal across the three runs.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use flexray_bench::report::Json;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every metric in section `section` of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a '{section}' list"))
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metric without '{key}' in '{section}'"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

/// Runs one toy-scale benchmark and returns `(counters line, result)`.
fn run(workload: &str, trace: bool) -> (String, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: counters and result lines expected"
    );
    let result = Json::parse(lines[lines.len() - 1]).expect("the last line is JSON");
    (lines[lines.len() - 2].to_owned(), result)
}

fn check_result(workload: &str, result: &Json, section: &str) {
    let Json::Obj(members) = result else {
        panic!("{workload}: the result is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    assert!(
        attempted >= 1.0 && attempted.fract() == 0.0,
        "{workload}: attempted {attempted}"
    );
    let metrics = result.get("metrics").expect("metrics");
    let Json::Obj(reported) = metrics else {
        panic!("{workload}: metrics is not an object");
    };
    let declared = declared(section);
    assert_eq!(
        reported.len(),
        declared.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in declared {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if section == "end_to_end" {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} reads {value}"
            );
        }
    }
}

#[test]
fn every_workload_reports_its_metrics_and_repeats_its_counters() {
    let names = workloads();
    assert_eq!(names, ["exact_dyn", "design", "verify", "serve"]);
    for workload in &names {
        let (counters, result) = run(workload, false);
        check_result(workload, &result, "end_to_end");
        let (again, _) = run(workload, false);
        assert_eq!(counters, again, "{workload}: counters differ between runs");
        let (traced, result) = run(workload, true);
        check_result(workload, &result, "per_layer");
        assert_eq!(
            counters, traced,
            "{workload}: the traced run did different work"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "design", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "design",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert_ne!(output.status.code(), Some(0), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
