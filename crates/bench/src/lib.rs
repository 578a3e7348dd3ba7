//! # lmds-bench
//!
//! The experiment harness reproducing the paper's quantitative content:
//! Table 1 (ratio & rounds per graph class) and the lemma-level
//! constants (Lemmas 3.2, 3.3, 4.2; Theorem 4.4; the MVC variants).
//!
//! Each experiment is a pure function returning rows; the `reproduce`
//! binary prints them as markdown tables (CSV and JSON on request). The
//! `microbench` binary writes the per-kernel timing rows
//! (`results/BENCH_<section>.json`) and `benchdiff` gates them against
//! `results/baseline/`; end-to-end timings belong to the `perfbench`
//! workspace.
//!
//! All algorithm invocations go through the [`lmds_api`] solver
//! registry — see [`experiments::registry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod timing;

pub use experiments::*;
pub use report::{render_csv, render_json, render_markdown, Table};
pub use timing::{calibrated, sample, section_table, write_bench_json, BenchRow, Stats};
