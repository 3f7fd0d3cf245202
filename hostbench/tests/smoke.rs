//! Smoke self-check: every workload at tiny windows, every probe once.
//! Asserts no run fails, the report digest repeats, and every metric that
//! `BENCHMARK.json` names is printed with its unit.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["single_long", "incast16_ecn", "churn_capacity"];

fn smoke(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run hostbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start
        ..spec[start..]
            .find(']')
            .map(|e| start + e)
            .expect("section ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("output has a result line")
}

fn assert_metrics(workload: &str, stdout: &str, section: &str) {
    let result = result_line(stdout);
    assert!(result.contains("\"correct\": true"), "{workload}: {result}");
    assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let at = result
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let entry = &result[at..at + result[at..].find('}').expect("entry closes")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} should be in {unit}: {entry}"
        );
        assert!(
            stdout.contains(&format!("metric {name} = ")),
            "{workload}: {name} has no readable line"
        );
    }
}

#[test]
fn end_to_end_metrics_and_stable_digests() {
    for w in WORKLOADS {
        let first = smoke(w, 0);
        assert_metrics(w, &first, "end_to_end");
        assert!(first.contains("fail_ratio 0 (0 failed"), "{w}: {first}");
        let digest = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("digest "))
                .expect("digest line")
                .to_string()
        };
        assert_eq!(digest(&first), digest(&smoke(w, 0)), "{w}: digest moved");
    }
}

#[test]
fn per_layer_metrics_probes_and_traced_run() {
    for w in WORKLOADS {
        let out = smoke(w, 1);
        assert_metrics(w, &out, "per_layer");
        assert!(out.contains("spans written to "), "{w}: {out}");
    }
}
