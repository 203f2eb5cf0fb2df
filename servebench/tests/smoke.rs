//! Tiny-N smoke: every workload's shape end to end in seconds, untraced
//! and traced, against a real daemon. Needs the `dsud` binary in
//! `DSUD_BIN`; `bash servebench/run.sh --selftest` builds it and sets it.

use std::path::Path;
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Contract {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn contract() -> Contract {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Metric names, sorted, from a result line's `metrics` object.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find(r#""metrics":{"#).expect("metrics object") + 11..];
    let chunks: Vec<&str> = metrics.split(r#"{"value":"#).collect();
    // Every chunk but the last ends with the next metric's `"name":`.
    let mut names: Vec<String> = chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit_once('"').map(|(head, _)| head))
        .filter_map(|head| head.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect();
    names.sort();
    names
}

#[test]
fn every_workload_runs_end_to_end_at_tiny_scale() {
    let dsud = std::env::var("DSUD_BIN")
        .expect("set DSUD_BIN to a built dsud binary (bash servebench/run.sh --selftest does)");
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("servebench-smoke");
    let contract = contract();
    let expect = |list: &[Named]| {
        let mut names: Vec<String> = list.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names
    };
    for wl in &contract.workloads {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
                .args(["--workload", &wl.name, "--seed", "3", "--seconds", "1", "--trace", trace])
                .args(["--n", "2000", "--dsud", &dsud, "--work"])
                .arg(&work)
                .output()
                .expect("benchmark runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{} trace {trace}: {stderr}", wl.name);
            let stdout = String::from_utf8(out.stdout).unwrap();
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with(r#"{"correct":true,"#),
                "{} trace {trace}: {line}\n{stderr}",
                wl.name
            );
            assert!(line.contains(r#""failed":0,"#), "{line}");
            let want = if trace == "0" {
                expect(&contract.end_to_end)
            } else {
                expect(&contract.per_layer)
            };
            assert_eq!(metric_names(line), want, "{} trace {trace}", wl.name);
        }
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--dsud",
            "dsud",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
