//! `benchdiff` — the timing-regression gate over `BENCH_<section>.json`
//! artifacts (schema `lmds-microbench/v1`, written by `microbench` and
//! the `scale` experiment).
//!
//! Compares a current results directory against a committed baseline
//! directory and fails (exit 1) when any matched row's median regresses
//! by more than the threshold **after machine-speed normalization**:
//! every section records `calib_us`, the median of a fixed CSR-BFS
//! kernel timed before and after its rows
//! ([`lmds_bench::calibrated`]), and each budget scales by the
//! section's `current / baseline` calib ratio. A slower machine slows
//! the kernel and the rows together and passes; a program that got
//! slower fails, uniformly or not, and rows that got faster do not
//! move the other rows' budgets. A file without `calib_us` fails with
//! "regenerate the baseline".
//!
//! Checksum drift (same bench key, different workload checksum) is also
//! a hard failure: the timings are not comparable, and the fix is to
//! regenerate the baseline deliberately, not to let the gate rot.
//!
//! A current row the baseline lacks is printed as `new (not gated)`
//! with its median, so a freshly added bench shows up before anyone
//! regenerates the baseline; it does not change the exit code.
//!
//! ```text
//! benchdiff [--threshold 1.25] [--min-us 150] <baseline-dir> <current-dir> [section...]
//! ```
//!
//! With no explicit sections, every `BENCH_*.json` present in the
//! baseline directory is diffed; a section missing on the current side
//! is a failure (the artifact stopped being produced). A current file
//! byte-identical to its baseline was not re-measured, so it is
//! reported as such and counted apart from the sections that passed;
//! it does not change the exit code.

use lmds_serve::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One parsed bench row, keyed for matching against the other side.
struct Row {
    bench: String,
    workload: String,
    checksum: u64,
    median_us: f64,
}

/// One parsed `BENCH_<section>.json`: its calibration median and rows.
struct Section {
    calib_us: f64,
    rows: Vec<Row>,
}

fn load_section(path: &Path) -> Result<Section, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "lmds-microbench/v1" {
        return Err(format!("{}: unsupported schema {schema:?}", path.display()));
    }
    let calib_us = doc
        .get("calib_us")
        .and_then(Value::as_f64)
        .filter(|&us| us > 0.0)
        .ok_or_else(|| format!("{}: no calib_us; regenerate the baseline", path.display()))?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: missing rows array", path.display()))?;
    let rows = rows
        .iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}: row missing {k:?}", path.display()))
            };
            Ok(Row {
                bench: field("bench")?,
                workload: field("workload")?,
                checksum: r.get("checksum").and_then(Value::as_u64).unwrap_or(0),
                median_us: r
                    .get("median_us")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: row missing median_us", path.display()))?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Section { calib_us, rows })
}

/// Sections to diff: explicit names, or everything the baseline holds.
fn sections(baseline_dir: &Path, explicit: &[String]) -> Result<Vec<String>, String> {
    if !explicit.is_empty() {
        return Ok(explicit.to_vec());
    }
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(baseline_dir).map_err(|e| format!("{}: {e}", baseline_dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(section) = name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json")) {
            out.push(section.to_string());
        }
    }
    out.sort();
    if out.is_empty() {
        return Err(format!("{}: no BENCH_*.json artifacts", baseline_dir.display()));
    }
    Ok(out)
}

struct Gate {
    threshold: f64,
    min_us: f64,
}

/// Diffs one section; returns the failure messages (empty = pass).
fn diff_section(section: &str, base: &Section, cur: &Section, gate: &Gate) -> Vec<String> {
    let mut failures = Vec::new();
    // Match rows by (bench, workload).
    let mut pairs: Vec<(&Row, &Row)> = Vec::new();
    for b in &base.rows {
        match cur.rows.iter().find(|c| c.bench == b.bench && c.workload == b.workload) {
            Some(c) => pairs.push((b, c)),
            None => failures.push(format!(
                "{section}: row [{} / {}] vanished from current results",
                b.bench, b.workload
            )),
        }
    }
    for (b, c) in &pairs {
        if b.checksum != c.checksum {
            failures.push(format!(
                "{section}: [{} / {}] checksum drift {} -> {} (workload changed; \
                 regenerate the baseline)",
                b.bench, b.workload, b.checksum, c.checksum
            ));
        }
    }
    let new_rows: Vec<&Row> = cur
        .rows
        .iter()
        .filter(|c| !base.rows.iter().any(|b| b.bench == c.bench && b.workload == c.workload))
        .collect();
    let speed = cur.calib_us / base.calib_us;
    println!(
        "section {section}: {} matched rows, {} new, machine-speed factor {speed:.2} \
         (calib {:.1}µs -> {:.1}µs)",
        pairs.len(),
        new_rows.len(),
        base.calib_us,
        cur.calib_us
    );
    for (b, c) in &pairs {
        if b.checksum != c.checksum {
            continue;
        }
        let budget = b.median_us * speed * gate.threshold;
        let status = if c.median_us > budget && c.median_us >= gate.min_us {
            failures.push(format!(
                "{section}: [{} / {}] median {:.1}µs exceeds normalized budget {:.1}µs \
                 (baseline {:.1}µs × speed {speed:.2} × threshold {:.2})",
                b.bench, b.workload, c.median_us, budget, b.median_us, gate.threshold
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  {status:>4}  {:-48} {:-24} {:>10.1}µs -> {:>10.1}µs",
            b.bench, b.workload, b.median_us, c.median_us
        );
    }
    for c in new_rows {
        println!("  new (not gated)  {:-48} {:-24} {:>10.1}µs", c.bench, c.workload, c.median_us);
    }
    failures
}

/// What the gate made of one section.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The current file is byte-identical to its baseline: nothing
    /// re-measured it, so its rows say nothing about the program.
    NotRemeasured,
    /// Diffed row by row; the failure messages (empty = pass).
    Diffed(Vec<String>),
}

/// Loads `BENCH_<section>.json` from both directories and gates it.
fn gate_section(
    section: &str,
    baseline_dir: &Path,
    current_dir: &Path,
    gate: &Gate,
) -> Result<Verdict, String> {
    let file = format!("BENCH_{section}.json");
    let (base_path, cur_path) = (baseline_dir.join(&file), current_dir.join(&file));
    let base = load_section(&base_path)?;
    let cur = match load_section(&cur_path) {
        Ok(cur) => cur,
        Err(e) => {
            return Ok(Verdict::Diffed(vec![format!(
                "{section}: current artifact unreadable: {e}"
            )]))
        }
    };
    if std::fs::read(&base_path).ok() == std::fs::read(&cur_path).ok() {
        println!("section {section}: not re-measured (identical to the baseline)");
        return Ok(Verdict::NotRemeasured);
    }
    Ok(Verdict::Diffed(diff_section(section, &base, &cur, gate)))
}

fn run() -> Result<bool, String> {
    let mut threshold = 1.25f64;
    let mut min_us = 150f64;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a float argument")?;
            }
            "--min-us" => {
                min_us = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-us needs a float argument")?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: benchdiff [--threshold F] [--min-us N] \
                     <baseline-dir> <current-dir> [section...]"
                );
                return Ok(true);
            }
            _ => positional.push(arg),
        }
    }
    if positional.len() < 2 {
        return Err("usage: benchdiff [--threshold F] [--min-us N] \
                    <baseline-dir> <current-dir> [section...]"
            .into());
    }
    let baseline_dir = PathBuf::from(&positional[0]);
    let current_dir = PathBuf::from(&positional[1]);
    let gate = Gate { threshold, min_us };

    let (mut failures, mut diffed, mut stale) = (Vec::new(), 0, 0);
    for section in sections(&baseline_dir, &positional[2..])? {
        match gate_section(&section, &baseline_dir, &current_dir, &gate)? {
            Verdict::NotRemeasured => stale += 1,
            Verdict::Diffed(f) => {
                diffed += 1;
                failures.extend(f);
            }
        }
    }
    if failures.is_empty() {
        println!(
            "benchdiff: {diffed} section(s) within {:.0}% of baseline, {stale} not re-measured",
            (threshold - 1.0) * 100.0
        );
        return Ok(true);
    }
    eprintln!("benchdiff: {} failure(s), {stale} section(s) not re-measured:", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    Ok(false)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchdiff: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(calib_us: f64, medians: &[f64]) -> Section {
        let rows = medians
            .iter()
            .enumerate()
            .map(|(i, &median_us)| Row {
                bench: format!("bench{i}"),
                workload: "w".into(),
                checksum: i as u64,
                median_us,
            })
            .collect();
        Section { calib_us, rows }
    }

    const GATE: Gate = Gate { threshold: 1.25, min_us: 0.0 };
    const BASE: [f64; 8] = [1000.0, 2000.0, 4000.0, 8000.0, 1500.0, 3000.0, 6000.0, 12000.0];

    #[test]
    fn uniform_slowdown_at_equal_calib_fails() {
        let base = section(5000.0, &BASE);
        let slower: Vec<f64> = BASE.iter().map(|us| us * 1.5).collect();
        let failures = diff_section("s", &base, &section(5000.0, &slower), &GATE);
        assert_eq!(failures.len(), BASE.len(), "{failures:?}");
    }

    #[test]
    fn speeding_up_half_the_rows_leaves_the_rest_passing() {
        let base = section(5000.0, &BASE);
        let mixed: Vec<f64> = BASE
            .iter()
            .enumerate()
            .map(|(i, us)| if i % 2 == 0 { us / 4.0 } else { *us })
            .collect();
        let failures = diff_section("s", &base, &section(5000.0, &mixed), &GATE);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn slower_machine_passes() {
        let base = section(5000.0, &BASE);
        let slower: Vec<f64> = BASE.iter().map(|us| us * 1.5).collect();
        let failures = diff_section("s", &base, &section(7500.0, &slower), &GATE);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_byte_identical_file_is_reported_as_not_re_measured() {
        let dir = std::env::temp_dir().join(format!("benchdiff-stale-{}", std::process::id()));
        let (base_dir, cur_dir) = (dir.join("baseline"), dir.join("current"));
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();
        let doc = |median: f64| {
            format!(
                r#"{{"schema":"lmds-microbench/v1","calib_us":5000.0,"rows":[{{"bench":"b","workload":"w","checksum":7,"median_us":{median}}}]}}"#
            )
        };
        let write = |dir: &Path, median| std::fs::write(dir.join("BENCH_s.json"), doc(median));
        write(&base_dir, 1000.0).unwrap();
        write(&cur_dir, 1000.0).unwrap();
        let copied = gate_section("s", &base_dir, &cur_dir, &GATE);
        // A fresh measurement, even one within budget, is diffed.
        write(&cur_dir, 1010.0).unwrap();
        let fresh = gate_section("s", &base_dir, &cur_dir, &GATE);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(copied, Ok(Verdict::NotRemeasured));
        assert_eq!(fresh, Ok(Verdict::Diffed(Vec::new())));
    }

    #[test]
    fn a_file_without_calib_us_asks_for_a_new_baseline() {
        let dir = std::env::temp_dir().join(format!("benchdiff-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_old.json");
        std::fs::write(&path, r#"{"schema":"lmds-microbench/v1","rows":[]}"#).unwrap();
        let err = load_section(&path).err().expect("no calib_us");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("regenerate the baseline"), "{err}");
    }
}
