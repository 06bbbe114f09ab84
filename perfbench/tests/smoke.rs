//! Smoke mode: a short untraced and a short traced run of every
//! workload. Each must pass every output check and print every metric
//! `BENCHMARK.json` names, with its unit.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use poisongame::sim::jsonio::Json;
use std::process::Command;
use std::sync::Mutex;

/// Runs share the host's cores with the in-process server they start;
/// one at a time keeps their timings meaningful.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} exited {}: {stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let Json::Obj(fields) = &result else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: a check failed: {stderr}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));

    let metrics = result.get("metrics").expect("metrics object");
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    let Json::Obj(printed) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(printed.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of `{name}`"
        );
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: `{name}` has no numeric value"));
        assert!(value.is_finite(), "{workload}: `{name}` = {value}");
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end `{name}` must never be 0"
            );
        }
    }
}

#[test]
fn paper_sweep() {
    run("paper_sweep", false);
    run("paper_sweep", true);
}

#[test]
fn serve_mixed() {
    run("serve_mixed", false);
    run("serve_mixed", true);
}

#[test]
fn ingest_cold() {
    run("ingest_cold", false);
    run("ingest_cold", true);
}
