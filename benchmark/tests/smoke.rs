//! `--smoke`: all four workloads on tiny logs with tracing on. Checks
//! that every metric `BENCHMARK.json` names is printed for every
//! workload and that no operation failed.

use std::path::Path;
use std::process::Command;

use soc_serve::json::{self, Json};

const WORKLOADS: [&str; 4] = ["interactive", "catalog_batch", "ingest_mix", "wide_sketch"];

/// Metric names of one list in `BENCHMARK.json`.
fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

/// The report lines of one workload's section.
fn section<'a>(stdout: &'a str, workload: &str) -> Vec<&'a str> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with(&format!("== {workload}:")))
        .skip(1)
        .take_while(|l| !l.starts_with("== "))
        .collect()
}

/// The value printed for `metric` under `tag` (`e2e` or `layer`).
fn printed(lines: &[&str], tag: &str, metric: &str) -> Option<f64> {
    lines.iter().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some(tag) && words.next() == Some(metric))
            .then(|| words.next().and_then(|v| v.parse().ok()))
            .flatten()
    })
}

#[test]
fn smoke_prints_every_metric_and_fails_nothing() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench.parent().expect("benchmark/ sits in the repository");
    let spec = json::parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");

    // `soc` lives in the root workspace; build it into that workspace's
    // own target directory, which this test's cargo does not lock.
    let target = root.join("target");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let built = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "soc-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("run cargo");
    assert!(built.success(), "building soc failed");

    let out = Command::new(env!("CARGO_BIN_EXE_socbench"))
        .arg("--soc")
        .arg(target.join("release").join("soc"))
        .arg("--out")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .arg("--smoke")
        .output()
        .expect("run socbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for workload in WORKLOADS {
        let lines = section(&stdout, workload);
        for metric in names(&spec, "end_to_end") {
            assert!(
                printed(&lines, "e2e", &metric).is_some(),
                "{workload}: e2e {metric} missing"
            );
        }
        for metric in names(&spec, "per_layer") {
            assert!(
                printed(&lines, "layer", &metric).is_some(),
                "{workload}: layer {metric} missing"
            );
        }
        assert_eq!(
            printed(&lines, "e2e", "failed_ratio"),
            Some(0.0),
            "{workload}"
        );
    }

    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
}
