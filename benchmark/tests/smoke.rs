//! Runs all four workloads at `--smoke` scale, untraced and traced, and
//! holds the binary to `BENCHMARK.json`: every metric the file names is on
//! the run's last line with a finite value and the file's unit, no
//! operation failed, the trace file is written, and the hardware-
//! independent metrics repeat bit for bit on a second run of the seed.
//! A renamed public function of a crate breaks this test at compile time,
//! not a later measurement.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["index_lookup", "serve_read", "serve_write", "attack_sweep"];

/// Per-layer metrics that are counts or ratios of counts: identical on
/// every run of one seed.
const EXACT_PER_LAYER: [&str; 8] = [
    "core.cost.clean",
    "core.cost.poisoned",
    "core.cost.inflation",
    "core.index.bytes_per_key",
    "poison.ratio_loss_alg1",
    "poison.ratio_loss_alg2",
    "defense.admission.rejected",
    "server.wal.bytes_per_op",
];

/// The string values of `key` inside the top-level array `section` of
/// `BENCHMARK.json` (which holds no nested arrays).
fn declared(spec: &str, section: &str, key: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..start + spec[start..].find(']').expect("array closes")];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

/// `{name: (value, unit)}` of the `metrics` object of a result line.
fn metrics(line: &str) -> BTreeMap<String, (f64, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    body.split("}, ")
        .map(|entry| {
            let entry = entry.trim_end_matches('}');
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("metric unit");
            (
                name.trim_start_matches('"').to_string(),
                (
                    value
                        .parse()
                        .unwrap_or_else(|_| panic!("{name}: bad value {value}")),
                    unit.trim_end_matches('"').to_string(),
                ),
            )
        })
        .collect()
}

/// Runs one smoke workload and returns its whole output.
fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_lis-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn last_line(output: &str) -> &str {
    output.lines().last().expect("some output")
}

fn assert_matches_spec(workload: &str, output: &str, section: &str, spec: &str) {
    let line = last_line(output);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    assert!(
        output.contains("\nops_failed 0\n"),
        "{workload}: no ops_failed line"
    );
    let measured = metrics(line);
    let names = declared(spec, section, "name");
    let units = declared(spec, section, "unit");
    assert_eq!(
        measured.keys().cloned().collect::<Vec<_>>(),
        {
            let mut sorted = names.clone();
            sorted.sort();
            sorted
        },
        "{workload}: the run's metrics are not BENCHMARK.json's {section}"
    );
    for (name, unit) in names.iter().zip(&units) {
        let (value, printed_unit) = &measured[name];
        assert!(value.is_finite(), "{workload}: {name} is {value}");
        assert_eq!(printed_unit, unit, "{workload}: unit of {name}");
        assert!(
            output.contains(&format!("\nmetric {name} ")),
            "{workload}: {name} has no text line"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(declared(&spec, "workloads", "name"), WORKLOADS);
    for workload in WORKLOADS {
        let untraced = run(workload, "0");
        assert_matches_spec(workload, &untraced, "end_to_end", &spec);
        for (name, (value, _)) in metrics(last_line(&untraced)) {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }

        let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.json"));
        let traced = run(workload, file.to_str().expect("utf-8 path"));
        assert_matches_spec(workload, &traced, "per_layer", &spec);
        assert!(
            traced.contains("\ntrace_overhead_pct "),
            "{workload}: no overhead report"
        );
        let spans = std::fs::read_to_string(&file).expect("trace file written");
        assert!(spans.contains("\"layer\": \"server\"") && spans.contains("\"parent\": "));
    }
}

#[test]
fn exact_metrics_repeat_bit_for_bit() {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repeat.json");
    let file = file.to_str().expect("utf-8 path");
    let (first, second) = (run("serve_write", "0"), run("serve_write", "0"));
    let cost = |output: &str| metrics(last_line(output))["lookup_cost"].0.to_bits();
    assert_eq!(
        cost(&first),
        cost(&second),
        "lookup_cost differs between two runs"
    );
    let (first, second) = (run("serve_write", file), run("serve_write", file));
    let (first, second) = (metrics(last_line(&first)), metrics(last_line(&second)));
    for name in EXACT_PER_LAYER {
        assert_eq!(
            first[name].0.to_bits(),
            second[name].0.to_bits(),
            "{name} differs between two runs of one seed"
        );
    }
}
