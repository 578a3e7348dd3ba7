//! Dependency-free micro-benchmark harness (replaces the former
//! Criterion benches, which cannot be vendored offline): the per-kernel
//! timing rows that `benchdiff` gates in CI.
//!
//! Sections (combinable; at least one is required — a bare invocation
//! prints the usage line and exits 2 without writing anything):
//!
//! * `--kernel` — the graph-kernel benches (ball queries, twin
//!   reduction, a registry sweep timing every solver) tracking the
//!   CSR/scratch substrate; before/after numbers in
//!   `results/kernel_speedup.md`.
//! * `--local` — the LOCAL runtime backends on representative
//!   explicit-round and adaptive solvers; committed numbers in
//!   `results/local_microbench.md`.
//! * `--cuts` — the `CutEngine` benches: the Definition-2.1 predicate
//!   sweeps and the full Algorithm 1 pipeline on instances up to two
//!   orders of magnitude past the pre-engine ceiling, plus naive
//!   reference rows on the small instance; before/after numbers in
//!   `results/cut_engine_speedup.md`.
//! * `--exact` — the exact-engine benches: `mds/exact` / `mvc/exact`
//!   beside the naive oracle on naive-solvable instances, plus
//!   engine-scale rows the naive oracle cannot finish; committed
//!   numbers in `results/exact_scale.md`.
//! * `--dynamic` — the `DynamicGraph` substrate benches: batch
//!   application (splice vs bulk rebuild) on a multi-component corpus
//!   graph.
//!
//! Every section prints a markdown table and writes
//! `results/BENCH_<section>.json` relative to the working directory
//! (best/median/p95/mean per row, a combined checksum, the `calib_us`
//! calibration median and `git describe` provenance), which `benchdiff`
//! diffs against `results/baseline/`.
//!
//! Usage:
//! ```text
//! microbench [--iters <n>] <--kernel|--local|--cuts|--exact|--dynamic>...
//! ```

use lmds_api::{BatchJob, BatchRunner, ExecutionMode, Instance, SolveConfig, SolverRegistry};
use lmds_bench::{
    calibrated, render_markdown, sample, section_table, write_bench_json, BenchRow, Stats, Table,
};
use lmds_core::Radii;

/// A graph of `k` disjoint triangles (3k vertices): every triangle is a
/// true-twin class, stressing the grouping step of the twin reduction.
fn triangles(k: usize) -> lmds_graph::Graph {
    let mut edges = Vec::with_capacity(3 * k);
    for t in 0..k {
        let b = 3 * t;
        edges.push((b, b + 1));
        edges.push((b + 1, b + 2));
        edges.push((b, b + 2));
    }
    lmds_graph::Graph::from_edges(3 * k, &edges)
}

/// The graph-kernel benches: ball queries (`N^r[v]`), twin reduction,
/// and a full registry sweep through the `BatchRunner`. These are the
/// substrate hot paths behind Lemmas 3.2/3.3, Lemma 4.2, and Theorem
/// 4.4; their before/after numbers live in `results/kernel_speedup.md`.
fn kernel_benches(iters: u32) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    let tree = lmds_gen::trees::random_tree(20_000, 1);
    for r in [2u32, 4] {
        let (stats, sum) = sample(iters, || {
            let mut acc = 0usize;
            let mut v = 0;
            while v < tree.n() {
                acc += lmds_graph::bfs::ball(&tree, v, r).len();
                v += 10;
            }
            acc
        });
        rows.push(BenchRow {
            bench: format!("ball r={r} (2000 queries)"),
            workload: "random_tree(20000)".into(),
            n: tree.n(),
            checksum: sum,
            stats,
        });
    }
    let tri = triangles(3000);
    let (stats, sum) =
        sample(iters, || lmds_graph::twins::TwinReduction::compute(&tri).reduced.graph.n());
    rows.push(BenchRow {
        bench: "twin reduction".into(),
        workload: "3000 triangles".into(),
        n: tri.n(),
        checksum: sum,
        stats,
    });
    let cat = lmds_gen::basic::caterpillar(4000, 2);
    let (stats, sum) = sample(iters, || lmds_graph::twins::twin_classes(&cat).len());
    rows.push(BenchRow {
        bench: "twin classes".into(),
        workload: "caterpillar(4000,2)".into(),
        n: cat.n(),
        checksum: sum,
        stats,
    });
    // Full registry sweep through the batch engine (S0-style corpus).
    let registry = SolverRegistry::with_defaults();
    let instances = vec![
        Instance::shuffled("path60", lmds_gen::basic::path(60), 1),
        Instance::shuffled("tree80", lmds_gen::trees::random_tree(80, 2), 2),
        Instance::shuffled(
            "outerplanar40",
            lmds_gen::outerplanar::random_maximal_outerplanar(40, 3),
            3,
        ),
    ];
    let jobs: Vec<BatchJob> = registry
        .keys()
        .into_iter()
        .map(|key| {
            let solver = registry.get(key).expect("registered");
            BatchJob::new(
                key,
                SolveConfig::new(solver.descriptor().problem).radii(Radii::practical(2, 2)),
            )
        })
        .collect();
    let sweep_iters = iters.min(5);
    let (stats, sum) = sample(sweep_iters, || {
        BatchRunner::new()
            .run(&registry, &jobs, &instances)
            .iter()
            .map(|r| r.result.as_ref().expect("sweep solve").size())
            .sum()
    });
    rows.push(BenchRow {
        bench: format!("registry sweep ({} solvers × 3)", registry.len()),
        workload: "batch corpus".into(),
        n: instances.iter().map(|i| i.n()).sum(),
        checksum: sum,
        stats,
    });
    rows
}

/// The `DynamicGraph` substrate benches (`--dynamic`): batch
/// application on both update paths (per-op splice vs bulk CSR
/// rebuild); `tests/dynamic_differential.rs` pins both paths against a
/// from-scratch build.
fn dynamic_benches(iters: u32) -> Vec<BenchRow> {
    use lmds_graph::dynamic::{DynamicGraph, GraphUpdate, SPLICE_LIMIT};

    let mut rows = Vec::new();
    // A 16-component disjoint union (≈1 600 vertices); every edit
    // stays inside component 0.
    let mut g = lmds_graph::Graph::from_edges(0, &[]);
    for c in 0..16u64 {
        let part = match c % 3 {
            0 => lmds_gen::outerplanar::random_maximal_outerplanar(100, c),
            1 => lmds_gen::trees::random_tree(100, c + 100),
            _ => lmds_gen::ding::strip(50),
        };
        g.disjoint_union(&part);
    }
    let workload = "16-component union".to_string();
    let n = g.n();
    // Edge toggles confined to component 0. A pair that happens to be
    // a chord of the outerplanar component settles into a stable
    // toggle cycle after the first iteration (skipped insert / real
    // delete), so the timings stay steady either way.
    let fresh: Vec<(usize, usize)> = (0..SPLICE_LIMIT + 2).map(|i| (i, i + 50)).collect();
    let toggle = |pairs: &[(usize, usize)], on: bool| -> Vec<GraphUpdate> {
        pairs
            .iter()
            .map(
                |&(u, v)| {
                    if on {
                        GraphUpdate::InsertEdge(u, v)
                    } else {
                        GraphUpdate::RemoveEdge(u, v)
                    }
                },
            )
            .collect()
    };

    let mut dg = DynamicGraph::new(g);
    let splice = &fresh[..4];
    let (stats, sum) = sample(iters, || {
        dg.apply(&toggle(splice, true)).expect("splice insert");
        dg.apply(&toggle(splice, false)).expect("splice remove");
        dg.graph().m()
    });
    rows.push(BenchRow {
        bench: "apply 2×k=4 toggle (splice path)".into(),
        workload: workload.clone(),
        n,
        checksum: sum,
        stats,
    });
    let (stats, sum) = sample(iters, || {
        dg.apply(&toggle(&fresh, true)).expect("bulk insert");
        dg.apply(&toggle(&fresh, false)).expect("bulk remove");
        dg.graph().m()
    });
    rows.push(BenchRow {
        bench: format!("apply 2×k={} toggle (rebuild path)", fresh.len()),
        workload,
        n,
        checksum: sum,
        stats,
    });
    rows
}

/// The LOCAL-runtime benches (`--local`): the distributed hot path —
/// every runtime backend on representative explicit-round and adaptive
/// solvers, with rounds and message bits alongside the timings so
/// round/message regressions surface next to latency ones (the
/// committed numbers live in `results/local_microbench.md`). Also
/// returns the rows in [`BenchRow`] form, so `--local` emits
/// `results/BENCH_local.json` in the same schema as the kernel and
/// dynamic sections (bench = `solver@runtime`, checksum mixes the
/// solution set and round count — bit-identical across backends).
fn local_benches(iters: u32) -> (Table, Vec<BenchRow>) {
    use lmds_api::RuntimeKind;
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut t = Table::new(
        &format!("microbench --local — LOCAL runtime backends, {iters} iterations (µs)"),
        &[
            "solver",
            "runtime",
            "instance",
            "n",
            "rounds",
            "max msg (bits)",
            "total bits",
            "best (µs)",
            "mean (µs)",
        ],
    );
    let registry = SolverRegistry::with_defaults();
    let tree = Instance::shuffled("tree1000", lmds_gen::trees::random_tree(1000, 1), 1);
    let outer = Instance::shuffled(
        "outerplanar300",
        lmds_gen::outerplanar::random_maximal_outerplanar(300, 2),
        2,
    );
    let aug = Instance::shuffled(
        "augmentation",
        lmds_gen::ding::AugmentationSpec::standard(6, 3, 2, 3).generate(),
        3,
    );
    // The engine-scale instance: one order of magnitude past the n=41
    // augmentation. Message passing is included — its views stay
    // bounded on strip-heavy augmentations, so flooding is affordable
    // here (unlike the n ≥ 1000 tier, covered by `local-sweep-large`).
    let aug_big = lmds_bench::large_augmentation(520, 11);
    let cases: Vec<(&str, &Instance)> = vec![
        ("mds/theorem44", &outer),
        ("mds/trees-folklore", &tree),
        ("mds/algorithm1", &aug),
        ("mds/algorithm1", &aug_big),
    ];
    for (key, inst) in cases {
        for kind in RuntimeKind::ALL {
            let cfg =
                SolveConfig::mds().mode(ExecutionMode::Local(kind)).radii(Radii::practical(2, 3));
            let mut last = None;
            let (stats_us, checksum) = sample(iters, || {
                let sol = registry.solve(key, inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
                assert!(sol.is_valid(), "{key} on {}", inst.name);
                let checksum = sol.vertices.iter().sum::<usize>()
                    + sol.size() * 31
                    + sol.rounds.unwrap_or(0) as usize * 1009;
                last = Some(sol);
                checksum
            });
            let sol = last.expect("iters ≥ 1");
            let msg = sol.messages.as_ref().expect("distributed run");
            let fmt_bits = |b: Option<u64>| b.map_or_else(|| "n/a".into(), |v| v.to_string());
            t.push_row(vec![
                key.into(),
                kind.to_string(),
                inst.name.clone(),
                inst.n().to_string(),
                sol.rounds.expect("distributed").to_string(),
                fmt_bits(msg.max_message_bits()),
                fmt_bits(msg.total_message_bits()),
                format!("{:.1}", stats_us.best),
                format!("{:.1}", stats_us.mean),
            ]);
            rows.push(BenchRow {
                bench: format!("{key}@{kind}"),
                workload: inst.name.clone(),
                n: inst.n(),
                checksum,
                stats: stats_us,
            });
        }
    }
    (t, rows)
}

/// The `CutEngine` benches (`--cuts`): the Definition-2.1 predicate
/// sweeps (`X`, `I`, all local 2-cuts, and the fused `X`+`I` sweep the
/// pipeline runs) and the full centralized Algorithm 1 pipeline, on the pre-engine n=41 augmentation and on the
/// engine-scale instances (n ≥ 500 augmentations, n ≥ 1000
/// outerplanar) at radii (2,3), and on the chain family at the
/// pipeline's (3,4), where the separator prefilter and the exit test
/// leave almost no pair to profile. The n=41 rows get a paired
/// "(naive)" row running the reference predicates, so the shared-work
/// win is measured by the same harness; on the large instances the
/// naive path is far too slow to rerun per invocation — the committed
/// before numbers live in `results/cut_engine_speedup.md`.
fn cuts_benches(iters: u32) -> Vec<BenchRow> {
    use lmds_core::local_cuts::{self, CutEngine};
    let mut rows: Vec<BenchRow> = Vec::new();
    let small = Instance::shuffled(
        "augmentation",
        lmds_gen::ding::AugmentationSpec::standard(6, 3, 2, 3).generate(),
        3,
    );
    let (engine_radii, chain_radii) = (Radii::practical(2, 3), Radii::practical(3, 4));
    let instances = vec![
        (small.clone(), engine_radii),
        (lmds_bench::large_augmentation(520, 11), engine_radii),
        (lmds_bench::large_augmentation(1040, 12), engine_radii),
        (
            Instance::sequential(
                "outerplanar1200",
                lmds_gen::outerplanar::random_outerplanar(1200, 25, 7),
            ),
            engine_radii,
        ),
        (
            Instance::sequential("chain20000", lmds_gen::ding::scale_instance(20_000, 3)),
            chain_radii,
        ),
    ];
    let registry = SolverRegistry::with_defaults();
    let mut push = |bench: &str, workload: &str, n: usize, stats, checksum| {
        rows.push(BenchRow { bench: bench.into(), workload: workload.into(), n, checksum, stats });
    };
    for (inst, radii) in &instances {
        let radii = *radii;
        let g = &inst.graph;
        let mut engine = CutEngine::new();
        let (stats, sum) =
            sample(iters, || engine.one_cut_mask(g, radii.one_cut).iter().filter(|&&m| m).count());
        push("X sweep (one_cut_mask)", &inst.name, g.n(), stats, sum);
        let (stats, sum) = sample(iters, || {
            engine.interesting_mask(g, radii.two_cut).iter().filter(|&&m| m).count()
        });
        push("I sweep (interesting_mask)", &inst.name, g.n(), stats, sum);
        let (stats, sum) = sample(iters, || engine.two_cuts(g, radii.two_cut).len());
        push("all local 2-cuts (two_cuts)", &inst.name, g.n(), stats, sum);
        // The sweep the pipeline runs: X read off the index build.
        let (stats, sum) = sample(iters, || {
            let (x, i) = engine.one_cut_and_interesting_masks(g, radii);
            x.iter().chain(&i).filter(|&&m| m).count()
        });
        push("fused X+I sweep (one_cut_and_interesting_masks)", &inst.name, g.n(), stats, sum);
        let cfg = SolveConfig::mds().radii(radii);
        let (stats, size) = sample(iters, || {
            let sol = registry.solve("mds/algorithm1", inst, &cfg).expect("algorithm1");
            assert!(sol.is_valid(), "algorithm1 on {}", inst.name);
            sol.size()
        });
        push("pipeline (mds/algorithm1, centralized)", &inst.name, inst.n(), stats, size);
    }
    // Naive reference rows on the small instance only.
    let g = &small.graph;
    let radii = engine_radii;
    let (stats, sum) = sample(iters, || {
        g.vertices().filter(|&v| local_cuts::is_local_one_cut(g, v, radii.one_cut)).count()
    });
    push("X sweep (naive reference)", &small.name, g.n(), stats, sum);
    let (stats, sum) = sample(iters, || {
        g.vertices().filter(|&v| local_cuts::is_interesting(g, v, radii.two_cut)).count()
    });
    push("I sweep (naive reference)", &small.name, g.n(), stats, sum);
    rows
}

/// The exact-engine benches (`--exact`): `mds/exact` and `mvc/exact`
/// through the registry beside the naive oracle they replaced
/// (`dominating::exact_mds` / `vertex_cover::exact_vertex_cover`) on
/// naive-solvable instances, engine-scale rows on instances the naive
/// oracle cannot finish at all (committed numbers:
/// `results/exact_scale.md`), and on the two shapes `lmds-serve` solves
/// exactly (`strip(400)`, `random_outerplanar(3000, 25, 1)`) the DP's
/// min-fill decomposition alone and the whole registry solves, the
/// millisecond-scale rows of the section's gate.
fn exact_benches(iters: u32) -> Vec<BenchRow> {
    use lmds_graph::treewidth::min_fill_decomposition;
    use lmds_graph::{dominating::exact_mds, vertex_cover::exact_vertex_cover};
    let registry = SolverRegistry::with_defaults();
    let solve = |key: &str, inst: &Instance, cfg: SolveConfig| {
        sample(iters, || {
            let sol = registry.solve(key, inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert!(sol.is_valid(), "{key} on {}", inst.name);
            sol.size()
        })
    };
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut push = |bench: &str, inst: &Instance, (stats, checksum): (Stats, usize)| {
        rows.push(BenchRow {
            bench: bench.into(),
            workload: inst.name.clone(),
            n: inst.n(),
            checksum,
            stats,
        });
    };
    // Engine vs naive oracle: small enough for the naive search.
    let small = vec![
        Instance::shuffled(
            "augmentation20",
            lmds_gen::ding::AugmentationSpec::standard(4, 1, 1, 1).generate(),
            1,
        ),
        Instance::shuffled(
            "outerplanar16",
            lmds_gen::outerplanar::random_maximal_outerplanar(16, 3),
            3,
        ),
        Instance::shuffled("cycle21", lmds_gen::basic::cycle(21), 5),
    ];
    for inst in &small {
        let g = &inst.graph;
        push("mds/exact", inst, solve("mds/exact", inst, SolveConfig::mds()));
        push("mds naive oracle", inst, sample(iters, || exact_mds(g).len()));
        push("mvc/exact", inst, solve("mvc/exact", inst, SolveConfig::mvc()));
        push("mvc naive oracle", inst, sample(iters, || exact_vertex_cover(g).len()));
    }
    // Engine-scale tier: sizes the naive oracle gives up on entirely.
    let large = vec![
        Instance::sequential("strip40", lmds_gen::ding::strip(40)),
        Instance::sequential(
            "outerplanar300",
            lmds_gen::outerplanar::random_maximal_outerplanar(300, 2),
        ),
        Instance::sequential(
            "sparse_outerplanar300",
            lmds_gen::outerplanar::random_outerplanar(300, 25, 7),
        ),
    ];
    for inst in &large {
        push("mds/exact", inst, solve("mds/exact", inst, SolveConfig::mds().opt_budget(u64::MAX)));
        push("mvc/exact", inst, solve("mvc/exact", inst, SolveConfig::mvc().opt_budget(u64::MAX)));
    }
    let shapes = [
        Instance::sequential("strip400", lmds_gen::ding::strip(400)),
        Instance::sequential(
            "sparse_outerplanar3000",
            lmds_gen::outerplanar::random_outerplanar(3000, 25, 1),
        ),
    ];
    for inst in &shapes {
        let decompose = || {
            let td = min_fill_decomposition(&inst.graph);
            td.width() + td.bags.iter().map(Vec::len).sum::<usize>()
        };
        push("min-fill decomposition", inst, sample(iters, decompose));
        push("mds/exact", inst, solve("mds/exact", inst, SolveConfig::mds().opt_budget(u64::MAX)));
        push("mvc/exact", inst, solve("mvc/exact", inst, SolveConfig::mvc().opt_budget(u64::MAX)));
    }
    rows
}

fn usage() -> ! {
    eprintln!(
        "usage: microbench [--iters <n ≥ 1>] <section>...  (sections: --kernel --local --cuts --exact --dynamic)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters = 10u32;
    let mut kernel = false;
    let mut local = false;
    let mut cuts = false;
    let mut exact = false;
    let mut dynamic = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--kernel" => kernel = true,
            "--local" => local = true,
            "--cuts" => cuts = true,
            "--exact" => exact = true,
            "--dynamic" => dynamic = true,
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    if !(kernel || local || cuts || exact || dynamic) {
        usage();
    }

    // Sections are combinable (the CI smoke step runs all five). Each
    // runs between two bursts of the calibration kernel, whose median
    // `benchdiff` scales the budgets by.
    if kernel {
        let (rows, calib_us) = calibrated(|| kernel_benches(iters));
        let title =
            format!("microbench --kernel — graph-kernel hot paths, {iters} iterations (µs)");
        print!("{}", render_markdown(&section_table(&title, &rows)));
        write_bench_json("kernel", iters, calib_us, &rows);
    }
    if local {
        let ((table, rows), calib_us) = calibrated(|| local_benches(iters));
        print!("{}", render_markdown(&table));
        write_bench_json("local", iters, calib_us, &rows);
    }
    if cuts {
        let (rows, calib_us) = calibrated(|| cuts_benches(iters));
        let title =
            format!("microbench --cuts — CutEngine predicate sweeps, {iters} iterations (µs)");
        print!("{}", render_markdown(&section_table(&title, &rows)));
        write_bench_json("cuts", iters, calib_us, &rows);
    }
    if exact {
        let (rows, calib_us) = calibrated(|| exact_benches(iters));
        let title =
            format!("microbench --exact — exact engine vs naive oracle, {iters} iterations (µs)");
        print!("{}", render_markdown(&section_table(&title, &rows)));
        write_bench_json("exact", iters, calib_us, &rows);
    }
    if dynamic {
        let (rows, calib_us) = calibrated(|| dynamic_benches(iters));
        let title =
            format!("microbench --dynamic — DynamicGraph substrate, {iters} iterations (µs)");
        print!("{}", render_markdown(&section_table(&title, &rows)));
        write_bench_json("dynamic", iters, calib_us, &rows);
    }
}
