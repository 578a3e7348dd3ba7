//! CLI and artifact contract tests for the bench harness: unknown
//! experiment names must fail fast *and* list every valid name (the
//! self-correcting-typo guarantee), `--list` must enumerate the
//! catalog, a bare `microbench` is a usage error that writes nothing,
//! `benchdiff` shows rows its baseline lacks without gating them, and
//! the committed `results/` artifacts stay in step with the experiment
//! catalog and the benchdiff baselines.

use std::path::{Path, PathBuf};
use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// The committed `results/` directory at the workspace root.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// File names in `dir` with the given prefix and suffix, sorted.
fn files(dir: &Path, prefix: &str, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(prefix) && name.ends_with(suffix))
        .collect();
    names.sort();
    names
}

#[test]
fn unknown_experiment_lists_the_valid_names_and_exits_nonzero() {
    let out = reproduce()
        .args(["--experiment", "definitely-not-an-experiment"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2), "unknown experiment is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment: definitely-not-an-experiment"),
        "names the offender: {stderr}"
    );
    for known in ["table1", "local-sweep", "exact-scale", "registry"] {
        assert!(stderr.contains(known), "error must list {known}: {stderr}");
    }
    // No experiment ran: nothing on stdout.
    assert!(out.stdout.is_empty(), "no tables on a usage error");
}

#[test]
fn list_prints_the_catalog() {
    let out = reproduce().arg("--list").output().expect("run reproduce");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for known in ["table1", "local-sweep", "exact-scale", "treewidth"] {
        assert!(stdout.contains(known), "--list must include {known}: {stdout}");
    }
}

#[test]
fn bare_microbench_is_a_usage_error_that_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("microbench-bare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_microbench"))
        .current_dir(&dir)
        .output()
        .expect("run microbench");
    let wrote_results = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_eq!(out.status.code(), Some(2), "a bare microbench is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in ["--kernel", "--local", "--cuts", "--exact", "--dynamic"] {
        assert!(stderr.contains(flag), "usage must name {flag}: {stderr}");
    }
    assert!(out.stdout.is_empty(), "no table on a usage error");
    assert!(!wrote_results, "a usage error must not create results/");
}

#[test]
fn every_committed_csv_belongs_to_an_experiment() {
    let keys: Vec<&str> = lmds_bench::EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let csvs = files(&results_dir(), "", ".csv");
    assert!(!csvs.is_empty(), "results/ holds the committed CSVs");
    for csv in csvs {
        let stem = csv.strip_suffix(".csv").expect("filtered on .csv");
        assert!(keys.contains(&stem), "results/{csv} names no experiment (catalog: {keys:?})");
    }
}

#[test]
fn every_bench_artifact_has_a_baseline_twin() {
    let results = results_dir();
    let current = files(&results, "BENCH_", ".json");
    assert!(!current.is_empty(), "results/ holds the BENCH_*.json artifacts");
    assert_eq!(current, files(&results.join("baseline"), "BENCH_", ".json"));
}

#[test]
fn benchdiff_shows_rows_the_baseline_lacks_without_gating_them() {
    let dir = std::env::temp_dir().join(format!("benchdiff-new-rows-{}", std::process::id()));
    let (base_dir, cur_dir) = (dir.join("baseline"), dir.join("current"));
    std::fs::create_dir_all(&base_dir).expect("create baseline dir");
    std::fs::create_dir_all(&cur_dir).expect("create current dir");
    let row = |bench: &str, median: f64| {
        format!(r#"{{"bench":"{bench}","workload":"w","checksum":7,"median_us":{median}}}"#)
    };
    let doc = |rows: &[String]| {
        format!(
            r#"{{"schema":"lmds-microbench/v1","calib_us":5000.0,"rows":[{}]}}"#,
            rows.join(",")
        )
    };
    std::fs::write(base_dir.join("BENCH_s.json"), doc(&[row("old", 1000.0)])).expect("write");
    // The new row is far slower than anything in the baseline: were it
    // gated, it would fail.
    let current = doc(&[row("old", 1010.0), row("fresh", 987654.0)]);
    std::fs::write(cur_dir.join("BENCH_s.json"), current).expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args([&base_dir, &cur_dir])
        .output()
        .expect("run benchdiff");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "a new row does not fail the gate: {stdout}");
    assert!(stdout.contains("1 matched rows, 1 new"), "{stdout}");
    let line = stdout.lines().find(|l| l.contains("new (not gated)")).unwrap_or_else(|| {
        panic!("the new row is listed: {stdout}");
    });
    assert!(line.contains("fresh") && line.contains("987654.0µs"), "{line}");
}
