//! Shared micro-timing infrastructure: iteration sampling with order
//! statistics, the uniform bench-row shape, and the machine-readable
//! `results/BENCH_<section>.json` artifact writer.
//!
//! Used by every `microbench` section and by the `scale` experiment, so
//! all timing artifacts share one schema (`lmds-microbench/v1`) and one
//! provenance convention — which is what the `benchdiff` regression
//! gate diffs against the committed baseline.

use std::time::Instant;

/// Order statistics over one bench's iteration samples (µs).
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub best: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median sample — the statistic `benchdiff` gates on (robust to a
    /// single cold-cache or scheduler outlier).
    pub median: f64,
    /// 95th-percentile sample.
    pub p95: f64,
}

/// One measured row, destined for both the markdown table and the
/// machine-readable `BENCH_<section>.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// What was measured (stable across runs — the diff key).
    pub bench: String,
    /// The workload it ran on (part of the diff key).
    pub workload: String,
    /// Instance size.
    pub n: usize,
    /// Workload checksum: a drift here means the timing columns are not
    /// comparable.
    pub checksum: usize,
    /// The timing statistics.
    pub stats: Stats,
}

/// Times `f` for `iters` repetitions, keeping every sample so the JSON
/// artifact can report median/p95 (not just best/mean). Returns the
/// statistics and the last checksum `f` produced.
pub fn sample(iters: u32, mut f: impl FnMut() -> usize) -> (Stats, usize) {
    let iters = iters.max(1);
    let mut us: Vec<f64> = Vec::with_capacity(iters as usize);
    let mut checksum = 0;
    for _ in 0..iters {
        let start = Instant::now();
        checksum = f();
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(|a, b| a.total_cmp(b));
    let len = us.len();
    let stats = Stats {
        best: us[0],
        mean: us.iter().sum::<f64>() / len as f64,
        median: us[len / 2],
        p95: us[(len * 95 / 100).min(len - 1)],
    };
    (stats, checksum)
}

/// Renders one section's rows as a printed markdown table.
pub fn section_table(title: &str, rows: &[BenchRow]) -> crate::report::Table {
    let mut t = crate::report::Table::new(
        title,
        &[
            "bench",
            "workload",
            "n",
            "checksum",
            "best (µs)",
            "median (µs)",
            "p95 (µs)",
            "mean (µs)",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.bench.clone(),
            r.workload.clone(),
            r.n.to_string(),
            r.checksum.to_string(),
            format!("{:.1}", r.stats.best),
            format!("{:.1}", r.stats.median),
            format!("{:.1}", r.stats.p95),
            format!("{:.1}", r.stats.mean),
        ]);
    }
    t
}

/// `git describe --always --dirty` of the generating tree, or
/// "unknown" outside a git checkout.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Renders the `lmds-microbench/v1` JSON document for one section:
/// every row with best/median/p95/mean, a combined corpus checksum
/// (order-sensitive mix of the per-row checksums, so a workload drift
/// is visible even when timings are not comparable), and provenance:
/// git revision and the machine's core count ([`lmds_graph::par::cores`]).
pub fn render_bench_json(section: &str, iters: u32, rows: &[BenchRow]) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let corpus_checksum = rows.iter().fold(0u64, |acc, r| {
        (acc ^ r.checksum as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    });
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"bench\":\"{}\",\"workload\":\"{}\",\"n\":{},\"checksum\":{},\
                 \"best_us\":{:.1},\"median_us\":{:.1},\"p95_us\":{:.1},\"mean_us\":{:.1}}}",
                escape(&r.bench),
                escape(&r.workload),
                r.n,
                r.checksum,
                r.stats.best,
                r.stats.median,
                r.stats.p95,
                r.stats.mean,
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"lmds-microbench/v1\",\"section\":\"{}\",\"git\":\"{}\",\"cores\":{},\
         \"iters\":{},\"corpus_checksum\":{},\"rows\":[{}]}}\n",
        escape(section),
        escape(&git_describe()),
        lmds_graph::par::cores(),
        iters,
        corpus_checksum,
        body.join(",")
    )
}

/// Writes `results/BENCH_<section>.json` (see [`render_bench_json`]).
pub fn write_bench_json(section: &str, iters: u32, rows: &[BenchRow]) {
    let doc = render_bench_json(section, iters, rows);
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/BENCH_{section}.json");
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_orders_statistics() {
        let mut k = 0u64;
        let (stats, sum) = sample(7, || {
            k += 1;
            // Vary the work so the samples differ.
            (0..k * 1000).fold(0u64, |a, x| a.wrapping_add(x)) as usize % 97
        });
        assert_eq!(sum, (0..7000u64).fold(0u64, |a, x| a.wrapping_add(x)) as usize % 97);
        assert!(stats.best <= stats.median);
        assert!(stats.median <= stats.p95);
        assert!(stats.best <= stats.mean);
    }

    #[test]
    fn bench_json_shape() {
        let rows = vec![BenchRow {
            bench: "b\"1".into(),
            workload: "w".into(),
            n: 5,
            checksum: 3,
            stats: Stats { best: 1.0, mean: 2.0, median: 1.5, p95: 2.5 },
        }];
        let doc = render_bench_json("unit", 4, &rows);
        assert!(doc.contains("\"schema\":\"lmds-microbench/v1\""));
        assert!(doc.contains("\"section\":\"unit\""));
        assert!(doc.contains("\"bench\":\"b\\\"1\""));
        assert!(doc.contains("\"median_us\":1.5"));
        assert!(doc.contains("\"iters\":4"));
        assert!(doc.contains(&format!("\"cores\":{}", lmds_graph::par::cores())));
        // The document is valid JSON by the serve-side parser.
        let v = lmds_serve::json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("rows").and_then(|r| r.as_arr()).map(|a| a.len()), Some(1));
    }
}
