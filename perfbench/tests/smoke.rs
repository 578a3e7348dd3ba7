//! Runs every workload at smoke size, untraced and traced, and checks
//! the result line against `BENCHMARK.json`: every metric it names is
//! printed with its unit, nothing else is, and every output check
//! passed.

use lmds_serve::json::{self, Value};
use std::path::Path;
use std::process::{Command, Output};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("named entry").to_string())
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perfbench runs")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark();
    for workload in names(&bench, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                &workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ];
            let out = perfbench(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace={trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            let Value::Obj(top) = &result else { panic!("result is an object: {last}") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{last}");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{stderr}");
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);

            let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("{last}") };
            let printed: Vec<&String> = metrics.keys().collect();
            let mut declared = names(&bench, section);
            declared.sort();
            assert_eq!(printed, declared.iter().collect::<Vec<_>>(), "{workload} trace={trace}");
            for entry in bench.get(section).and_then(Value::as_arr).expect("listed") {
                let name = entry.get("name").and_then(Value::as_str).expect("named");
                let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
                let metric = &metrics[name];
                assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit), "{name}");
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric:?}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "local-sim", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "local-sim", "--seed", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
