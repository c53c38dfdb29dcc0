//! Tiny-shape self-test of the benchmark: every workload, untraced and
//! traced, must emit exactly the metrics `BENCHMARK.json` declares (with
//! its units and directions), verify its answers, and fail nothing.

use std::collections::HashMap;
use std::path::PathBuf;

use swsample_perfbench::workload::{generate, Shape, WORKLOADS};
use swsample_perfbench::{run, Args, MetricDef, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

/// The `{"name": .., "unit": .., "better": ..` entries of one section.
fn declared(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = start + json[start..].find(']').expect("section closes");
    json[start..end]
        .lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| l.trim().to_string())
        .collect()
}

fn check_declared(json: &str, section: &str, defs: &[MetricDef]) {
    let lines = declared(json, section);
    assert_eq!(lines.len(), defs.len(), "{section}: metric count");
    for (line, d) in lines.iter().zip(defs) {
        let expect = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(line.starts_with(&expect), "{section}: `{line}` vs {expect}");
    }
}

#[test]
fn benchmark_json_declares_the_emitted_metrics_and_workloads() {
    let json = benchmark_json();
    check_declared(&json, "end_to_end", END_TO_END);
    check_declared(&json, "per_layer", PER_LAYER);
    let workloads = declared(&json, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (line, name) in workloads.iter().zip(WORKLOADS) {
        assert!(
            line.starts_with(&format!("{{\"name\": \"{name}\"")),
            "{line}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_verifies_and_fails_nothing() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-test");
    for workload in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.1,
                trace,
                tiny: true,
                out_dir: out_dir.clone(),
            };
            let report = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let what = format!("{workload} trace={trace}");
            assert!(report.correct, "{what}: {:?}", report.notes);
            assert_eq!(report.failed, 0, "{what}: failed_frac must be 0");
            assert!(report.verified_keys > 0, "{what}: nothing was verified");
            let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, want, "{what}");
            let json = report.json();
            for d in defs {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", d.name))
                        && json.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{what}: {} missing from {json}",
                    d.name
                );
            }
        }
    }
}

#[test]
fn per_key_timestamps_never_decrease() {
    // The timestamp samplers panic on a backwards clock, so the
    // generated streams must keep each key's `now` non-decreasing along
    // the order the server applies them in.
    for shape in [
        Shape::named("mixed_1k_ts").expect("workload exists"),
        Shape::named("mixed_1k_ts").expect("workload exists").tiny(),
    ] {
        let w = generate(&shape, 3);
        let mut last: HashMap<u64, u64> = HashMap::new();
        for batch in &w.per_conn[0] {
            for &(key, now, _) in batch {
                let prev = last.insert(key, now).unwrap_or(0);
                assert!(now >= prev, "key {key}: {prev} -> {now}");
            }
        }
        assert_eq!(w.per_conn.len(), 1, "one ingest connection");
    }
}
