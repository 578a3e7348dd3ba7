//! Reproduction driver: prints experiment tables (markdown), writes
//! CSVs, and optionally a JSON document.
//!
//! Usage:
//! ```text
//! reproduce [--experiment <name>[,<name>...]] [--json <path>]
//!           [--csv-dir <dir>] [--list]
//! ```
//!
//! `--experiment` (alias `--exp`) filters which experiments run;
//! default is `all`. `--list` prints the available names and exits.
//! `--json <path>` additionally writes every selected table as a JSON
//! document. Experiments resolve algorithms exclusively through the
//! `lmds-api` registry; the `registry` experiment is the batch sweep of
//! every registered solver.
//!
//! Every CSV is stamped with a `#`-comment provenance header
//! (experiment key, seed policy, `git describe` of the generating
//! tree), so the committed `results/` artifacts carry their origin.
//! The JSON document stays header-free (it is byte-compared by the
//! golden-file test).

use lmds_bench::timing::git_describe;
use lmds_bench::{render_csv, render_json, render_markdown, Table, EXPERIMENTS};

/// The provenance comment block stamped at the top of every CSV.
fn provenance_header(experiment: &str, git: &str) -> String {
    format!(
        "# experiment: {experiment}\n\
         # seeds: fixed deterministic seeds (see crates/bench/src/experiments.rs)\n\
         # git: {git}\n\
         # generated-by: reproduce v{}\n",
        env!("CARGO_PKG_VERSION")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--experiment <name>[,<name>...]] [--json <path>] [--csv-dir <dir>] [--list]"
    );
    eprintln!("experiments: all, {}", names().join(", "));
    std::process::exit(2);
}

fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(n, _)| *n).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<String> = vec!["all".into()];
    let mut csv_dir = "results".to_string();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" | "--exp" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                selected = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--csv-dir" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                csv_dir = v.clone();
            }
            "--json" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                json_path = Some(v.clone());
            }
            "--list" => {
                for (name, _) in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    let run_all = selected.iter().any(|s| s == "all");
    for name in &selected {
        if name != "all" && !names().contains(&name.as_str()) {
            // Name the valid experiments right in the error line, so a
            // typo is self-correcting without a second --list call.
            eprintln!(
                "unknown experiment: {name} (valid experiments: all, {})",
                names().join(", ")
            );
            std::process::exit(2);
        }
    }

    // Read the revision before any experiment runs: `scale` rewrites
    // `results/BENCH_scale.json`, which would mark the tree dirty.
    let git = git_describe();
    let tables: Vec<(String, Table)> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| run_all || selected.iter().any(|s| s == name))
        .map(|(name, build)| (name.to_string(), build()))
        .collect();

    let _ = std::fs::create_dir_all(&csv_dir);
    for (name, table) in &tables {
        print!("{}", render_markdown(table));
        let path = format!("{csv_dir}/{name}.csv");
        let content = format!("{}{}", provenance_header(name, &git), render_csv(table));
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&tables)) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} experiment(s) as JSON to {path}", tables.len());
    }
}
