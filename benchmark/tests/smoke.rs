//! Smoke test: every subcommand at `--quick` sizes, both feature legs
//! built, and every metric `BENCHMARK.json` names printed exactly once
//! with a unit and a finite value. The sizes make the numbers
//! meaningless; only their presence and the checks are tested.
//!
//! One test function, so that the benchmark processes run one after the
//! other and never compete for the cores.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A minimal reader of the two JSON shapes this test meets, so that the
/// test does not lean on the parser it is testing: the names in a list of
/// `{"name": "...", ...}` objects, and the keys of a `"metrics"` object.
fn names_in(text: &str, list: &str) -> Vec<String> {
    let start = text.find(&format!("\"{list}\"")).unwrap_or_else(|| panic!("no {list}"));
    let open = start + text[start..].find('[').expect("list opens");
    let close = open + text[open..].find(']').expect("list closes");
    text[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
        .collect()
}

/// `(name, value, unit)` of every metric in a result line.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split_once("\"metrics\": {").expect("result line has metrics").1;
    body.split("}, ")
        .filter(|m| m.contains("\"value\""))
        .map(|m| {
            let name = m.split('"').nth(1).expect("metric name").to_string();
            let value = m.split("\"value\": ").nth(1).expect("value").split(',').next().unwrap();
            let unit = m.split("\"unit\": \"").nth(1).expect("unit").split('"').next().unwrap();
            (name, value.parse().unwrap_or(f64::NAN), unit.to_string())
        })
        .collect()
}

fn run(bin: &Path, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("bench starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{} {args:?} failed:\n{stderr}", bin.display());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The result line reports exactly `expected`, each once, each with a
/// unit, a finite value and a well-formed name.
fn check_line(line: &str, expected: &[String], what: &str) {
    assert!(line.contains("\"correct\": true") && line.contains("\"failed\": 0"), "{what}: {line}");
    let metrics = metrics_of(line);
    for name in expected {
        let hits: Vec<_> = metrics.iter().filter(|(n, _, _)| n == name).collect();
        assert_eq!(hits.len(), 1, "{what}: {name} printed {} times", hits.len());
        let (_, value, unit) = hits[0];
        assert!(value.is_finite(), "{what}: {name} is {value}");
        assert!(!unit.is_empty(), "{what}: {name} has no unit");
    }
    for (name, _, _) in &metrics {
        assert!(expected.contains(name), "{what}: {name} is not in BENCHMARK.json");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(!name.is_empty() && name.chars().all(ok), "{what}: bad metric name {name}");
    }
}

#[test]
fn every_metric_of_benchmark_json_is_reported_once() {
    let package = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(package.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names_in(&spec, "workloads");
    let end_to_end = names_in(&spec, "end_to_end");
    let per_layer = names_in(&spec, "per_layer");
    assert_eq!(workloads.len(), 5);

    // This test's own leg is built already; cargo builds the other one,
    // which also shows that the package builds with and without
    // `telemetry`.
    let mine = PathBuf::from(env!("CARGO_BIN_EXE_bench"));
    let other_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("other-leg");
    let mut build = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()));
    build.args(["build", "--offline", "--quiet", "--manifest-path"]);
    build.arg(package.join("Cargo.toml")).arg("--target-dir").arg(&other_dir);
    if !obs::enabled() {
        build.args(["--features", "telemetry"]);
    }
    assert!(
        build.status().expect("cargo starts").success(),
        "the other feature leg does not build"
    );
    let other = other_dir.join("debug/bench");
    let (plain, telemetry) = if obs::enabled() { (other, mine) } else { (mine, other) };

    for w in &workloads {
        let line = run(&plain, &["run", "--workload", w, "--quick", "--seconds", "0.2"]);
        check_line(&line, &end_to_end, w);
    }

    let outdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out");
    let args = ["trace", "--workload", "pipeline_stages", "--quick", "--seconds", "0.3"];
    let line = Command::new(&telemetry)
        .args(args)
        .arg("--plain")
        .arg(&plain)
        .arg("--outdir")
        .arg(&outdir)
        .output()
        .expect("bench starts");
    assert!(line.status.success(), "trace failed:\n{}", String::from_utf8_lossy(&line.stderr));
    let stdout = String::from_utf8(line.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    // The price list comes through the traced run, so this checks the
    // layer pass too.
    check_line(line, &per_layer, "trace");
    let exact = metrics_of(line).into_iter().find(|(n, _, _)| n == "trace.counts_exact");
    assert_eq!(exact.map(|(_, v, _)| v), Some(1.0), "W=1 counter deltas did not repeat");
    let trace = std::fs::read_to_string(outdir.join("trace_pipeline_stages.json")).expect("trace");
    for span in ["iteration", "run_dag", "build", "verify", "elision"] {
        assert!(trace.contains(&format!("\"name\": \"{span}\"")), "no {span} span in the trace");
    }

    // The traced build refuses to pose as the end-to-end one, and the
    // reverse.
    let refused =
        Command::new(&plain).args(args).arg("--plain").arg(&plain).output().expect("bench starts");
    assert!(!refused.status.success(), "trace ran in the build without telemetry");
}
