//! The experiment suite: the paper tables and lemma-level constants
//! (E1–E13), the exact-engine and scale tiers (E14, E15, E15b), and the
//! registry, LOCAL and fault sweeps (S0–S3). Every paper table/figure
//! and lemma-level constant becomes a measured table here. Engineering
//! timings live elsewhere: per-kernel rows in `microbench` (gated by
//! `benchdiff`), end-to-end numbers in `perfbench`.
//!
//! Every *algorithm* invocation goes through the [`lmds_api`] registry —
//! experiments never call an algorithm entry point directly. Direct
//! calls that remain are lemma-level *measurements* (local-cut counts,
//! covers, cut forests, treewidth), which are analysis primitives, not
//! algorithms.

use crate::report::Table;
use lmds_api::{
    BatchJob, BatchRunner, ExecutionMode, Instance, Solution, SolveConfig, SolverRegistry,
};
use lmds_core::local_cuts;
use lmds_core::{PipelineOptions, Radii};
use lmds_gen::ding::AugmentationSpec;
use lmds_graph::dominating::is_dominating_set;
use lmds_graph::Graph;
use std::sync::OnceLock;

/// Branch-and-bound node budget for exact optima in experiments.
pub const OPT_BUDGET: u64 = 3_000_000;

/// The shared solver registry every experiment resolves algorithms
/// from.
pub fn registry() -> &'static SolverRegistry {
    static REG: OnceLock<SolverRegistry> = OnceLock::new();
    REG.get_or_init(SolverRegistry::with_defaults)
}

fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

fn opt_tag(sol: &Solution) -> &'static str {
    match sol.optimum {
        Some(o) if o.exact => "exact",
        Some(_) => "lower-bound",
        None => "unmeasured",
    }
}

/// Runs `key` on `inst` under `cfg`, panicking with context on failure
/// (experiments are fixed workloads; failure is a bug).
fn solve(key: &str, inst: &Instance, cfg: &SolveConfig) -> Solution {
    registry()
        .solve(key, inst, cfg)
        .unwrap_or_else(|e| panic!("solver {key} on {}: {e}", inst.name))
}

fn measured_mds() -> SolveConfig {
    SolveConfig::mds().measure_ratio(true).opt_budget(OPT_BUDGET)
}

fn measured_mvc() -> SolveConfig {
    SolveConfig::mvc().measure_ratio(true).opt_budget(OPT_BUDGET)
}

/// E1 — Table 1 reproduction: measured ratio and rounds per class row.
pub fn exp_table1() -> Table {
    let mut t = Table::new(
        "E1 / Table 1 — constant-round MDS approximation per minor-free class (paper bound vs measured)",
        &[
            "class", "algorithm", "paper ratio", "paper rounds", "n", "measured ratio (max)",
            "measured rounds (max)", "optimum",
        ],
    );

    struct Row {
        class: &'static str,
        algorithm: &'static str,
        paper_ratio: &'static str,
        paper_rounds: &'static str,
        n_label: String,
        solver: &'static str,
        radii: Option<Radii>,
        instances: Vec<Instance>,
    }

    let rows = vec![
        // Trees (K3-minor-free), folklore degree ≥ 2, ratio 3, 2 rounds.
        Row {
            class: "trees (K3)",
            algorithm: "folklore deg≥2",
            paper_ratio: "3",
            paper_rounds: "2",
            n_label: "200".into(),
            solver: "mds/trees-folklore",
            radii: None,
            instances: (0..5)
                .map(|seed| {
                    Instance::shuffled(
                        format!("tree_s{seed}"),
                        lmds_gen::trees::random_tree(200, seed),
                        seed,
                    )
                })
                .collect(),
        },
        // Outerplanar (K4, K_{2,3}): Theorem 4.4 at t = 3, ratio 5, 3 rounds.
        Row {
            class: "outerplanar (K4,K2,3)",
            algorithm: "Thm 4.4 (t=3)",
            paper_ratio: "5",
            paper_rounds: "3",
            n_label: "40".into(),
            solver: "mds/theorem44",
            radii: None,
            instances: (0..5)
                .map(|seed| {
                    Instance::shuffled(
                        format!("outer_s{seed}"),
                        lmds_gen::outerplanar::random_maximal_outerplanar(40, seed),
                        seed,
                    )
                })
                .collect(),
        },
        // K_{1,t}-minor-free (t = 5): take all, ratio t, 0 rounds.
        Row {
            class: "K1,5-minor-free (Δ≤4)",
            algorithm: "take all",
            paper_ratio: "5",
            paper_rounds: "0",
            n_label: "40".into(),
            solver: "mds/take-all",
            radii: None,
            instances: (0..5)
                .map(|seed| {
                    Instance::shuffled(
                        format!("bdeg_s{seed}"),
                        lmds_gen::random::random_bounded_degree(40, 4, seed),
                        seed,
                    )
                })
                .collect(),
        },
        // K_{2,t}-minor-free, Theorem 4.4: ratio 2t−1, 3 rounds.
        Row {
            class: "K2,t-minor-free (aug.)",
            algorithm: "Thm 4.4",
            paper_ratio: "2t-1",
            paper_rounds: "3",
            n_label: "~45".into(),
            solver: "mds/theorem44",
            radii: None,
            instances: (0..5)
                .map(|seed| {
                    Instance::shuffled(
                        format!("aug_s{seed}"),
                        AugmentationSpec::standard(5, 2, 2, seed).generate(),
                        seed,
                    )
                })
                .collect(),
        },
        // K_{2,t}-minor-free, Algorithm 1 (practical radii).
        Row {
            class: "K2,t-minor-free (aug.)",
            algorithm: "Alg 1 (r=(2,3))",
            paper_ratio: "50",
            paper_rounds: "O_t(1)",
            n_label: "~45".into(),
            solver: "mds/algorithm1",
            radii: Some(Radii::practical(2, 3)),
            instances: (0..4)
                .map(|seed| {
                    Instance::shuffled(
                        format!("aug_s{seed}"),
                        AugmentationSpec::standard(5, 2, 2, seed).generate(),
                        seed,
                    )
                })
                .collect(),
        },
    ];

    for row in rows {
        let mut cfg = measured_mds().mode(ExecutionMode::LOCAL_ORACLE);
        if let Some(radii) = row.radii {
            cfg = cfg.radii(radii);
        }
        let mut worst = 0f64;
        let mut rounds = 0;
        let mut exact = true;
        for inst in &row.instances {
            let sol = solve(row.solver, inst, &cfg);
            worst = worst.max(sol.ratio().expect("ratio measured"));
            rounds = rounds.max(sol.rounds.expect("distributed run"));
            exact &= sol.optimum.expect("measured").exact;
        }
        t.push_row(vec![
            row.class.into(),
            row.algorithm.into(),
            row.paper_ratio.into(),
            row.paper_rounds.into(),
            row.n_label,
            fmt_ratio(worst),
            rounds.to_string(),
            if exact { "exact" } else { "lower-bound" }.into(),
        ]);
    }
    t
}

/// E2 — Lemma 3.2: #(r-local 1-cuts) ≤ c_{3.2}(d)·MDS with
/// `c_{3.2}(1) = 6`. (Lemma-level measurement: counts local cuts
/// directly; the only algorithm run is the exact-optimum reference
/// inside `mds_report`.)
pub fn exp_lemma32() -> Table {
    use lmds_core::analysis::{mds_report, OptimumKind};
    let mut t = Table::new(
        "E2 / Lemma 3.2 — r-local 1-cuts vs MDS (paper bound c=3(d+1)=6 at the theoretical radius)",
        &["family", "n", "r", "#local 1-cuts", "MDS", "ratio", "optimum"],
    );
    let mut push = |name: &str, g: &Graph, r: u32| {
        let cuts = local_cuts::local_one_cut_vertices(g, r).len();
        let rep = mds_report(g, cuts, OPT_BUDGET);
        t.push_row(vec![
            name.into(),
            g.n().to_string(),
            r.to_string(),
            cuts.to_string(),
            rep.opt.to_string(),
            fmt_ratio(rep.ratio()),
            if rep.kind == OptimumKind::Exact { "exact" } else { "lower-bound" }.into(),
        ]);
    };
    for r in [2, 5, 10, 29, 30] {
        push("cycle C60", &lmds_gen::basic::cycle(60), r);
    }
    push("caterpillar(30,2)", &lmds_gen::basic::caterpillar(30, 2), 3);
    push("strip(20)", &lmds_gen::ding::strip(20), 3);
    for seed in 0..3 {
        let g = AugmentationSpec::standard(6, 3, 2, seed).generate();
        push(&format!("augmentation s{seed}"), &g, 3);
    }
    t
}

/// E3 — Lemma 3.3: interesting vertices stay O(MDS) while raw 2-cut
/// vertices can be Θ(n) (clique-with-pendants example from §4).
pub fn exp_lemma33() -> Table {
    use lmds_core::analysis::{mds_report, OptimumKind};
    let mut t = Table::new(
        "E3 / Lemma 3.3 — interesting vertices vs all 2-cut vertices vs MDS (paper bound c=22(d+1)=44)",
        &[
            "family", "n", "r", "#2-cut vertices", "#interesting", "MDS",
            "interesting/MDS", "optimum",
        ],
    );
    let mut push = |name: &str, g: &Graph, r: u32| {
        let two_cut_vertices: std::collections::BTreeSet<usize> =
            local_cuts::local_two_cuts(g, r).into_iter().flat_map(|(a, b)| [a, b]).collect();
        let interesting = local_cuts::interesting_vertices(g, r).len();
        let rep = mds_report(g, interesting, OPT_BUDGET);
        t.push_row(vec![
            name.into(),
            g.n().to_string(),
            r.to_string(),
            two_cut_vertices.len().to_string(),
            interesting.to_string(),
            rep.opt.to_string(),
            fmt_ratio(rep.ratio()),
            if rep.kind == OptimumKind::Exact { "exact" } else { "lower-bound" }.into(),
        ]);
    };
    for n in [5, 10, 15] {
        push(&format!("clique+pendants({n})"), &lmds_gen::adversarial::clique_with_pendants(n), 4);
    }
    push("C6", &lmds_gen::adversarial::c6(), 3);
    push("C12 (wrapped)", &lmds_gen::basic::cycle(12), 6);
    push("subdivided K2,5", &lmds_gen::adversarial::subdivided_k2t(5), 4);
    for seed in 0..3 {
        let g = AugmentationSpec::standard(6, 3, 2, seed).generate();
        push(&format!("augmentation s{seed}"), &g, 3);
    }
    t
}

/// E4 — Lemma 4.2: residual components of `R − (S ∪ U)` keep bounded
/// diameter even as the host graph's diameter grows (long strips). Uses
/// the registry solver's pipeline diagnostics.
pub fn exp_lemma42() -> Table {
    let mut t = Table::new(
        "E4 / Lemma 4.2 — residual component diameter stays bounded as strips grow",
        &[
            "strip length",
            "n",
            "graph diameter",
            "radii",
            "max residual diameter",
            "#residual components",
            "|X|",
            "|I|",
        ],
    );
    let radii = Radii::practical(2, 3);
    let cfg = SolveConfig::mds().radii(radii);
    for len in [5usize, 10, 20, 40] {
        let spec = AugmentationSpec {
            base_n: 5,
            base_density_percent: 40,
            fans: 1,
            fan_len: (3, 3),
            strips: 1,
            strip_len: (len, len),
            seed: 11,
        };
        let g = spec.generate();
        let inst = Instance::sequential(format!("strip{len}"), g);
        let sol = solve("mds/algorithm1", &inst, &cfg);
        let diag = sol.diagnostics.as_ref().expect("centralized pipeline diagnostics");
        let mut max_diam = 0;
        for comp in &diag.residual_components {
            let sub = lmds_graph::InducedSubgraph::new(&inst.graph, comp);
            if let Some(d) = lmds_graph::bfs::diameter(&sub.graph) {
                max_diam = max_diam.max(d);
            }
        }
        t.push_row(vec![
            len.to_string(),
            inst.n().to_string(),
            lmds_graph::bfs::diameter(&inst.graph).map_or("inf".into(), |d| d.to_string()),
            format!("({},{})", radii.one_cut, radii.two_cut),
            max_diam.to_string(),
            diag.residual_components.len().to_string(),
            diag.x_set.len().to_string(),
            diag.i_set.len().to_string(),
        ]);
    }
    t
}

/// E5 — Theorem 4.1: Algorithm 1 ratio and rounds across sizes and
/// radii.
pub fn exp_alg1() -> Table {
    let mut t = Table::new(
        "E5 / Theorem 4.1 — Algorithm 1: ratio far below the proved 50; rounds track radius, not n",
        &["workload", "n", "radii", "|solution|", "MDS", "ratio", "rounds", "optimum"],
    );
    for (base, fans, strips, seed) in [(4, 1, 1, 1u64), (5, 2, 2, 2), (6, 3, 2, 3), (8, 4, 3, 4)] {
        let g = AugmentationSpec::standard(base, fans, strips, seed).generate();
        let inst = Instance::shuffled(format!("aug(b{base},f{fans},s{strips})"), g, seed);
        for radii in [Radii::practical(1, 2), Radii::practical(2, 3), Radii::practical(3, 5)] {
            let cfg = measured_mds().mode(ExecutionMode::LOCAL_ORACLE).radii(radii);
            let sol = solve("mds/algorithm1", &inst, &cfg);
            t.push_row(vec![
                inst.name.clone(),
                inst.n().to_string(),
                format!("({},{})", radii.one_cut, radii.two_cut),
                sol.size().to_string(),
                sol.optimum.expect("measured").value.to_string(),
                fmt_ratio(sol.ratio().expect("measured")),
                sol.rounds.expect("distributed").to_string(),
                opt_tag(&sol).into(),
            ]);
        }
    }
    t
}

/// E6 — Theorem 4.4: ratio ≤ 2t−1 across `t`, at exactly 3 rounds.
pub fn exp_thm44() -> Table {
    let mut t = Table::new(
        "E6 / Theorem 4.4 — (2t-1)-approximation in 3 rounds, across t",
        &["workload", "t", "n", "|D2|", "MDS", "ratio", "bound 2t-1", "rounds"],
    );
    let cfg = measured_mds().mode(ExecutionMode::LOCAL_ORACLE);
    // Subdivided K_{2,t}: the tight-ish family.
    for tt in [3usize, 4, 5, 6] {
        let g = lmds_gen::adversarial::subdivided_k2t(tt);
        let inst = Instance::sequential("subdivided K2,t", g);
        let sol = solve("mds/theorem44", &inst, &cfg);
        t.push_row(vec![
            inst.name.clone(),
            (tt + 1).to_string(), // graph is K_{2,t}-minor-free for t+1
            inst.n().to_string(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            (2 * (tt + 1) - 1).to_string(),
            sol.rounds.expect("distributed").to_string(),
        ]);
    }
    // Trees (t = 2) and outerplanar (t = 3).
    for seed in 0..3 {
        let g = lmds_gen::trees::random_tree(60, seed);
        let inst = Instance::shuffled(format!("random tree s{seed}"), g, seed);
        let sol = solve("mds/theorem44", &inst, &cfg);
        t.push_row(vec![
            inst.name.clone(),
            "2".into(),
            "60".into(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            "3".into(),
            sol.rounds.expect("distributed").to_string(),
        ]);
    }
    for seed in 0..3 {
        let g = lmds_gen::outerplanar::random_maximal_outerplanar(30, seed);
        let inst = Instance::shuffled(format!("outerplanar s{seed}"), g, seed);
        let sol = solve("mds/theorem44", &inst, &cfg);
        t.push_row(vec![
            inst.name.clone(),
            "3".into(),
            "30".into(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            "5".into(),
            sol.rounds.expect("distributed").to_string(),
        ]);
    }
    // Lemma 5.18 rows (the Figure 1/2 content): measured |A| vs s·|B|
    // with the exact minor parameter s. (Analysis, not an algorithm.)
    for tt in [2usize, 3, 4] {
        let g = lmds_gen::basic::complete_bipartite(2, tt);
        let inst = lmds_core::bipartite_minor::BipartiteInstance {
            graph: g,
            a_side: (2..2 + tt).collect(),
        };
        let (s, holds) = inst.lemma518_check(500_000_000).expect("small instance");
        t.push_row(vec![
            format!("Lem 5.18: K2,{tt} petals"),
            (s + 1).to_string(),
            (2 + tt).to_string(),
            format!("|A|={tt}"),
            format!("s·|B|={}", s * 2),
            if holds { "holds".into() } else { "VIOLATED".into() },
            format!("(t-1)|B|={}", s * 2),
            "-".into(),
        ]);
    }
    t
}

/// E7 — MVC extensions: Theorem 4.4's `t`-approximation and the
/// Algorithm 1 variant.
pub fn exp_mvc() -> Table {
    let mut t = Table::new(
        "E7 / MVC extensions — Thm 4.4 (t-approx) and Algorithm 1 MVC variant",
        &["workload", "algorithm", "n", "|cover|", "MVC", "ratio", "paper bound"],
    );
    let quick = measured_mvc();
    for seed in 0..3 {
        let g = lmds_gen::trees::random_tree(50, seed);
        let inst = Instance::shuffled(format!("random tree s{seed}"), g, seed);
        let sol = solve("mvc/theorem44", &inst, &quick);
        t.push_row(vec![
            inst.name.clone(),
            "Thm 4.4 MVC".into(),
            "50".into(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            "t = 2".into(),
        ]);
    }
    for seed in 0..3 {
        let g = lmds_gen::outerplanar::random_maximal_outerplanar(30, seed);
        let inst = Instance::shuffled(format!("outerplanar s{seed}"), g, seed);
        let sol = solve("mvc/theorem44", &inst, &quick);
        t.push_row(vec![
            inst.name.clone(),
            "Thm 4.4 MVC".into(),
            "30".into(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            "t = 3".into(),
        ]);
    }
    let careful = measured_mvc().radii(Radii::practical(2, 3));
    for seed in 0..3 {
        let g = AugmentationSpec::standard(5, 2, 2, seed).generate();
        let inst = Instance::shuffled(format!("augmentation s{seed}"), g, seed);
        let sol = solve("mvc/algorithm1", &inst, &careful);
        t.push_row(vec![
            inst.name.clone(),
            "Alg 1 MVC".into(),
            inst.n().to_string(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            "O(1)".into(),
        ]);
    }
    // Regular-graph folklore row.
    for seed in 0..2 {
        let g = lmds_gen::random::random_regular(30, 3, seed);
        let inst = Instance::sequential(format!("3-regular s{seed}"), g);
        let sol = solve("mvc/regular-take-all", &inst, &quick);
        t.push_row(vec![
            inst.name.clone(),
            "take non-isolated".into(),
            "30".into(),
            sol.size().to_string(),
            sol.optimum.expect("measured").value.to_string(),
            fmt_ratio(sol.ratio().expect("measured")),
            "2".into(),
        ]);
    }
    t
}

/// E8 — substrate sanity: Ore's bound (Lemma 5.16), asymptotic-dimension
/// covers, and the paper's derived radii per `t`.
pub fn exp_sanity() -> Table {
    use lmds_core::analysis::mds_report;
    let mut t = Table::new(
        "E8 / sanity — Ore bound, asdim covers, theoretical radii",
        &["check", "instance", "value", "bound/expected", "ok"],
    );
    // Ore: MDS ≤ n/2 without isolated vertices.
    for (name, g) in [
        ("path(30)", lmds_gen::basic::path(30)),
        ("cycle(31)", lmds_gen::basic::cycle(31)),
        ("strip(10)", lmds_gen::ding::strip(10)),
    ] {
        let rep = mds_report(&g, 0, OPT_BUDGET);
        let ok = 2 * rep.opt <= g.n();
        t.push_row(vec![
            "Ore (Lem 5.16) MDS ≤ n/2".into(),
            name.into(),
            rep.opt.to_string(),
            format!("{}", g.n() / 2),
            ok.to_string(),
        ]);
    }
    // Asymptotic-dimension covers: layered cover quality on trees.
    for r in [1u32, 2, 3] {
        let g = lmds_gen::trees::complete_kary_tree(2, 7);
        let cover = lmds_asdim::layered_cover(&g, r);
        let q = lmds_asdim::cover::cover_quality(&g, &cover, r).unwrap();
        let ok = lmds_asdim::verify_cover(&g, &cover, r, 6 * r).is_ok();
        t.push_row(vec![
            "asdim-1 cover quality (trees)".into(),
            format!("binary tree d7, r={r}"),
            q.to_string(),
            format!("≤ {}", 6 * r),
            ok.to_string(),
        ]);
    }
    // Theoretical radii per t (linear in t — the paper's O(t) rounds).
    for tt in [2u32, 3, 5, 8] {
        let radii = Radii::theoretical(tt);
        t.push_row(vec![
            "theoretical radii m3.2/m3.3".into(),
            format!("t={tt}"),
            format!("({},{})", radii.one_cut, radii.two_cut),
            "linear in t".into(),
            "true".into(),
        ]);
    }
    t
}

/// E9 — rounds and message sizes: Theorem 4.4 flat at 3 rounds for any
/// n; Algorithm 1 rounds track radius + residual diameter, not n.
pub fn exp_rounds() -> Table {
    let mut t = Table::new(
        "E9 / LOCAL accounting — rounds are independent of n; message growth documents LOCAL (not CONGEST)",
        &["algorithm", "workload", "n", "rounds", "max msg (bits)", "total bits"],
    );
    let msg = SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING);
    for n in [20usize, 40, 80, 160] {
        let inst = Instance::shuffled("random tree", lmds_gen::trees::random_tree(n, 3), 3);
        let sol = solve("mds/theorem44", &inst, &msg);
        let stats = sol.messages.expect("message-passing stats");
        t.push_row(vec![
            "Thm 4.4".into(),
            inst.name.clone(),
            n.to_string(),
            sol.rounds.expect("distributed").to_string(),
            stats.max_message_bits().expect("message passing measures bits").to_string(),
            stats.total_message_bits().expect("message passing measures bits").to_string(),
        ]);
    }
    for n in [20usize, 40, 80] {
        let inst = Instance::shuffled("path", lmds_gen::basic::path(n), 5);
        let cfg = msg.clone().radii(Radii::practical(2, 2));
        let sol = solve("mds/algorithm1", &inst, &cfg);
        let stats = sol.messages.expect("message-passing stats");
        t.push_row(vec![
            "Alg 1 r=(2,2)".into(),
            inst.name.clone(),
            n.to_string(),
            sol.rounds.expect("distributed").to_string(),
            stats.max_message_bits().expect("message passing measures bits").to_string(),
            stats.total_message_bits().expect("message passing measures bits").to_string(),
        ]);
    }
    for len in [5usize, 10, 20] {
        let spec = AugmentationSpec {
            base_n: 4,
            base_density_percent: 40,
            fans: 1,
            fan_len: (2, 2),
            strips: 1,
            strip_len: (len, len),
            seed: 2,
        };
        let inst = Instance::shuffled(format!("aug strip({len})"), spec.generate(), 7);
        let cfg = msg.clone().radii(Radii::practical(2, 3));
        let sol = solve("mds/algorithm1", &inst, &cfg);
        let stats = sol.messages.expect("message-passing stats");
        t.push_row(vec![
            "Alg 1 r=(2,3)".into(),
            inst.name.clone(),
            inst.n().to_string(),
            sol.rounds.expect("distributed").to_string(),
            stats.max_message_bits().expect("message passing measures bits").to_string(),
            stats.total_message_bits().expect("message passing measures bits").to_string(),
        ]);
    }
    t
}

/// E10 — ablations: what each design decision of Algorithm 1 buys.
/// Every variant stays a valid dominating set; the sizes against the
/// optimum show the cost of dropping twin reduction, the interesting
/// filter, or the exact brute force. The ablation switches are not
/// solver configuration, so each variant is a direct
/// `algorithm1_with` call, measured by `analysis::mds_report`.
pub fn exp_ablation() -> Table {
    let mut t = Table::new(
        "E10 / ablations — Algorithm 1 design decisions (MDS size per variant; lower is better)",
        &[
            "workload",
            "n",
            "MDS",
            "full",
            "no twin reduction",
            "no interesting filter",
            "greedy brute",
        ],
    );
    let variants = [
        PipelineOptions::default(),
        PipelineOptions { twin_reduction: false, ..Default::default() },
        PipelineOptions { interesting_filter: false, ..Default::default() },
        PipelineOptions { exact_brute: false, ..Default::default() },
    ];
    let radii = Radii::practical(2, 3);
    let mut push = |name: &str, g: &Graph| {
        let inst = Instance::shuffled(name, g.clone(), 5);
        let sizes: Vec<usize> = variants
            .iter()
            .map(|&opts| {
                let set = lmds_core::algorithm1_with(&inst.graph, &inst.ids, radii, opts).solution;
                assert!(
                    is_dominating_set(&inst.graph, &set),
                    "ablation variant must stay a dominating set"
                );
                set.len()
            })
            .collect();
        let opt = lmds_core::analysis::mds_report(&inst.graph, sizes[0], OPT_BUDGET).opt;
        t.push_row(vec![
            name.into(),
            inst.n().to_string(),
            opt.to_string(),
            sizes[0].to_string(),
            sizes[1].to_string(),
            sizes[2].to_string(),
            sizes[3].to_string(),
        ]);
    };
    push("clique+pendants(8)", &lmds_gen::adversarial::clique_with_pendants(8));
    push("clique+pendants(12)", &lmds_gen::adversarial::clique_with_pendants(12));
    push("theta_ring(4,3)", &lmds_gen::composite::theta_ring(4, 3));
    push("necklace(4,6)", &lmds_gen::composite::necklace(4, 6));
    for seed in 0..3 {
        push(
            &format!("augmentation s{seed}"),
            &AugmentationSpec::standard(5, 2, 2, seed).generate(),
        );
    }
    t
}

/// E11 — Proposition 5.8 / Corollary 5.9: the interesting-cut forest:
/// three pairwise non-crossing families displaying the interesting
/// vertices of a 2-connected graph. (Structure analysis, no algorithm.)
pub fn exp_forest() -> Table {
    use lmds_core::forest::{interesting_cut_families, verify_families};
    let mut t = Table::new(
        "E11 / Prop 5.8 — interesting-cut families: ≤3, non-crossing, displaying the interesting vertices",
        &["graph", "n", "families used", "non-crossing", "interesting", "displayed"],
    );
    let graphs: Vec<(String, Graph)> = vec![
        ("C6".into(), lmds_gen::basic::cycle(6)),
        ("C9".into(), lmds_gen::basic::cycle(9)),
        ("C12".into(), lmds_gen::basic::cycle(12)),
        ("subdivided K2,4".into(), lmds_gen::adversarial::subdivided_k2t(4)),
        ("theta_ring(4,3)".into(), lmds_gen::composite::theta_ring(4, 3)),
        ("theta_ring(5,2)".into(), lmds_gen::composite::theta_ring(5, 2)),
    ];
    for (name, g) in graphs {
        let forest = interesting_cut_families(&g);
        let report = verify_families(&g, &forest, g.n() as u32);
        t.push_row(vec![
            name,
            g.n().to_string(),
            report.families_used.to_string(),
            report.noncrossing.to_string(),
            report.interesting.to_string(),
            report.displayed.to_string(),
        ]);
    }
    t
}

/// E12 — Proposition 3.1: the local-to-global transfer measured on
/// trees with the folklore algorithm (α = 3, k = 1, d = 1).
pub fn exp_prop31() -> Table {
    let mut t = Table::new(
        "E12 / Prop 3.1 — local-to-global transfer: global ratio ≤ (measured α)·(d+1)",
        &["workload", "n", "components", "max charge α", "global ratio", "α(d+1)", "holds"],
    );
    let mut cases: Vec<(String, Graph)> = vec![
        // Deep trees so the scale-5 layering produces several bands.
        ("caterpillar(40,1)".into(), lmds_gen::basic::caterpillar(40, 1)),
        ("spider(3,20)".into(), lmds_gen::basic::spider(3, 20)),
        ("path(60)".into(), lmds_gen::basic::path(60)),
    ];
    for seed in 0..3u64 {
        cases.push((format!("random tree s{seed}"), lmds_gen::trees::random_tree(45, seed)));
    }
    let cfg = SolveConfig::mds();
    for (name, g) in cases {
        let inst = Instance::sequential(name, g);
        let sol = solve("mds/trees-folklore", &inst, &cfg);
        let rep = lmds_asdim::prop31_report(&inst.graph, &sol.vertices, 1, None, OPT_BUDGET);
        t.push_row(vec![
            inst.name.clone(),
            inst.n().to_string(),
            rep.components.to_string(),
            fmt_ratio(rep.max_component_charge),
            fmt_ratio(rep.global_ratio),
            fmt_ratio(rep.implied_global_bound),
            rep.conclusion_holds().to_string(),
        ]);
    }
    t
}

/// E13 — bounded treewidth of `K_{2,t}`-minor-free workloads (the grid
/// minor theorem step of §4), plus agreement of the exact engine with
/// the naive branch and bound. (Substrate analysis comparing two exact
/// solvers.)
pub fn exp_treewidth() -> Table {
    use lmds_graph::exact::with_thread_engine;
    use lmds_graph::treewidth::min_fill_decomposition;
    let mut t = Table::new(
        "E13 / treewidth — K2,t-free workloads have small width independent of n; two exact solvers agree",
        &["workload", "n", "width (min-fill)", "MDS (engine)", "MDS (naive B&B)", "agree"],
    );
    let mut cases: Vec<(String, Graph)> = vec![
        ("strip(10)".into(), lmds_gen::ding::strip(10)),
        ("strip(30)".into(), lmds_gen::ding::strip(30)),
        ("fan(12)".into(), lmds_gen::ding::fan(12)),
        ("outerplanar(24)".into(), lmds_gen::outerplanar::random_maximal_outerplanar(24, 1)),
        ("theta_ring(5,3)".into(), lmds_gen::composite::theta_ring(5, 3)),
        ("necklace(6,6)".into(), lmds_gen::composite::necklace(6, 6)),
        ("grid(4,4) [control]".into(), lmds_gen::basic::grid(4, 4)),
    ];
    for seed in 0..2u64 {
        cases.push((
            format!("augmentation s{seed}"),
            AugmentationSpec::standard(5, 2, 2, seed).generate(),
        ));
    }
    for (name, g) in cases {
        let td = min_fill_decomposition(&g);
        td.validate(&g).expect("min-fill decomposition is valid");
        let engine = with_thread_engine(|e| e.solve_mds(&g, OPT_BUDGET)).ok().map(|s| s.len());
        let naive = lmds_graph::dominating::exact_mds_capped(&g, OPT_BUDGET).map(|s| s.len());
        let show = |v: Option<usize>| v.map_or("-".into(), |v| v.to_string());
        let agree = match (engine, naive) {
            (Some(a), Some(b)) => (a == b).to_string(),
            _ => "n/a".into(),
        };
        t.push_row(vec![
            name,
            g.n().to_string(),
            td.width().to_string(),
            show(engine),
            show(naive),
            agree,
        ]);
    }
    t
}

/// S0 — the registry sweep: every registered solver, run through the
/// uniform `Solver::solve` path by the [`BatchRunner`] across a shared
/// instance corpus. The service-facing view of the whole workspace.
pub fn exp_registry_sweep() -> Table {
    let mut t = Table::new(
        "S0 / registry sweep — every registered solver through the uniform Solver::solve path",
        &["solver", "mode", "instance", "n", "|S|", "valid", "rounds", "ratio", "wall (µs)"],
    );
    let reg = registry();
    let instances = vec![
        Instance::shuffled("path20", lmds_gen::basic::path(20), 1),
        Instance::shuffled("tree30", lmds_gen::trees::random_tree(30, 2), 2),
        Instance::shuffled(
            "outerplanar16",
            lmds_gen::outerplanar::random_maximal_outerplanar(16, 3),
            3,
        ),
        Instance::shuffled("augmentation", AugmentationSpec::standard(5, 2, 1, 4).generate(), 4),
    ];
    let sizes: std::collections::HashMap<String, usize> =
        instances.iter().map(|i| (i.name.clone(), i.n())).collect();
    let jobs: Vec<BatchJob> = reg
        .keys()
        .into_iter()
        .map(|key| {
            let solver = reg.get(key).expect("registered");
            // Prefer a distributed run when the solver supports one.
            let mode = if solver.descriptor().modes.contains(&ExecutionMode::LOCAL_ORACLE) {
                ExecutionMode::LOCAL_ORACLE
            } else {
                ExecutionMode::Centralized
            };
            let mut cfg = SolveConfig::new(solver.descriptor().problem)
                .mode(mode)
                .radii(Radii::practical(2, 2))
                .measure_ratio(true)
                .opt_budget(OPT_BUDGET);
            if key == "mds/algorithm2" {
                // A small affine control function keeps the derived
                // radii simulable on the sweep corpus (the default
                // K_{2,t} control yields radius 151).
                cfg = cfg.control(lmds_asdim::ControlFunction::Affine { a: 1, b: 1, dim: 1 });
            }
            BatchJob::new(key, cfg)
        })
        .collect();
    for rec in BatchRunner::new().run(reg, &jobs, &instances) {
        let sol =
            rec.result.unwrap_or_else(|e| panic!("sweep {}/{}: {e}", rec.solver, rec.instance));
        let n = sizes[&rec.instance];
        t.push_row(vec![
            rec.solver,
            sol.mode.to_string(),
            rec.instance,
            n.to_string(),
            sol.size().to_string(),
            sol.is_valid().to_string(),
            sol.rounds.map_or("-".into(), |r| r.to_string()),
            sol.ratio().map_or("-".into(), fmt_ratio),
            sol.wall.as_micros().to_string(),
        ]);
    }
    t
}

/// S1 — the LOCAL sweep: every distributed registry solver executed on
/// all four runtime kinds under sequential and adversarial
/// identifier policies, recording rounds, message bits (measured vs
/// n/a), and the decided-at histogram. The experiment also *asserts*
/// runtime equivalence: all backends must return the identical vertex
/// set and round count for each (solver, instance, policy) cell.
pub fn exp_local_sweep() -> Table {
    use lmds_api::{IdPolicy, RuntimeKind};
    let mut t = Table::new(
        "S1 / local-sweep — distributed solvers × runtime backends × id policies (bit-identical outputs; message bits measured only where messages exist)",
        &[
            "solver",
            "runtime",
            "id policy",
            "instance",
            "n",
            "|S|",
            "rounds",
            "max msg (bits)",
            "total bits",
            "decided/round",
        ],
    );
    let reg = registry();
    let instances = vec![
        Instance::sequential("tree40", lmds_gen::trees::random_tree(40, 2)),
        Instance::sequential("augmentation", AugmentationSpec::standard(4, 1, 1, 5).generate()),
    ];
    let policies = [IdPolicy::Sequential, IdPolicy::Adversarial { seed: 3 }];
    for key in reg.keys() {
        let solver = reg.get(key).expect("registered");
        if !solver.descriptor().modes.contains(&ExecutionMode::LOCAL_ORACLE) {
            continue; // centralized-only (exact baselines)
        }
        for inst in &instances {
            for policy in policies {
                let mut reference: Option<(Vec<usize>, Option<u32>)> = None;
                for kind in RuntimeKind::ALL {
                    let mut cfg = SolveConfig::new(solver.descriptor().problem)
                        .mode(ExecutionMode::Local(kind))
                        .radii(Radii::practical(2, 2))
                        .id_policy(policy);
                    if key == "mds/algorithm2" {
                        cfg =
                            cfg.control(lmds_asdim::ControlFunction::Affine { a: 1, b: 1, dim: 1 });
                    }
                    let sol = solve(key, inst, &cfg);
                    assert!(sol.is_valid(), "{key} {kind} on {}", inst.name);
                    match &reference {
                        None => reference = Some((sol.vertices.clone(), sol.rounds)),
                        Some((verts, rounds)) => {
                            assert_eq!(
                                (verts, rounds),
                                (&sol.vertices, &sol.rounds),
                                "{key} on {} under {policy}: {kind} diverges",
                                inst.name
                            );
                        }
                    }
                    let stats = sol.messages.as_ref().expect("distributed run");
                    let fmt_bits =
                        |b: Option<u64>| b.map_or_else(|| "n/a".into(), |v| v.to_string());
                    // Compact histogram: only rounds where vertices
                    // decided, as "round:count" pairs.
                    let hist = stats
                        .decided_at
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(r, &c)| format!("{r}:{c}"))
                        .collect::<Vec<_>>()
                        .join("|");
                    t.push_row(vec![
                        key.into(),
                        kind.to_string(),
                        policy.to_string(),
                        inst.name.clone(),
                        inst.n().to_string(),
                        sol.size().to_string(),
                        sol.rounds.expect("distributed").to_string(),
                        fmt_bits(stats.max_message_bits()),
                        fmt_bits(stats.total_message_bits()),
                        hist,
                    ]);
                }
            }
        }
    }
    t
}

/// The large-instance augmentation family for the engine-scale sweeps:
/// a small base with many long fans and strips, so `n` grows by an
/// order of magnitude while balls (and hence LOCAL views) stay bounded
/// — the regime Lemma 4.2 is about.
pub fn large_augmentation(target_n: usize, seed: u64) -> Instance {
    let strips = target_n / 120;
    let spec = AugmentationSpec {
        base_n: 10,
        base_density_percent: 30,
        fans: 4,
        fan_len: (8, 16),
        strips,
        strip_len: (55, 65),
        seed,
    };
    Instance::sequential(format!("aug{target_n}"), spec.generate())
}

/// S2 — the large-instance LOCAL sweep the `CutEngine` unlocks:
/// `mds/algorithm1` on instances one to two orders of magnitude past
/// the previous n≈41 ceiling (n ≥ 500 and n ≥ 1000 augmentations, and
/// an n ≥ 1000 sparse outerplanar graph), under both oracle kinds and
/// real message passing, asserting that every kind returns the oracle's
/// vertex set and round count.
///
/// Message passing floods whole views each round, as bits in 64-bit
/// blocks over a per-run numbering of the identifiers, so a round ORs
/// 64 vertices or edges per step; with on-demand decider statuses it
/// runs in the same order of time as the oracle. This experiment stays
/// out of the golden suite (timing column) — the `local-sweep` snapshot
/// is the drift gate and remains byte-identical.
pub fn exp_local_sweep_large() -> Table {
    use lmds_api::RuntimeKind;
    let mut t = Table::new(
        "S2 / local-sweep-large — Algorithm 1 at engine scale (n ≥ 500): oracle and message-passing backends, identical outputs",
        &["solver", "runtime", "instance", "n", "|S|", "rounds", "decided/round", "wall (ms)"],
    );
    let instances = vec![
        large_augmentation(520, 11),
        large_augmentation(1040, 12),
        Instance::sequential(
            "outerplanar1200",
            lmds_gen::outerplanar::random_outerplanar(1200, 25, 7),
        ),
    ];
    for inst in &instances {
        let mut reference: Option<(Vec<usize>, Option<u32>)> = None;
        for kind in [RuntimeKind::Oracle, RuntimeKind::ShardedOracle, RuntimeKind::MessagePassing] {
            let cfg =
                SolveConfig::mds().mode(ExecutionMode::Local(kind)).radii(Radii::practical(2, 2));
            let sol = solve("mds/algorithm1", inst, &cfg);
            assert!(sol.is_valid(), "mds/algorithm1 {kind} on {}", inst.name);
            match &reference {
                None => reference = Some((sol.vertices.clone(), sol.rounds)),
                Some((verts, rounds)) => assert_eq!(
                    (verts, rounds),
                    (&sol.vertices, &sol.rounds),
                    "mds/algorithm1 on {}: {kind} diverges",
                    inst.name
                ),
            }
            let stats = sol.messages.as_ref().expect("distributed run");
            let hist = stats
                .decided_at
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(r, &c)| format!("{r}:{c}"))
                .collect::<Vec<_>>()
                .join("|");
            t.push_row(vec![
                "mds/algorithm1".into(),
                kind.to_string(),
                inst.name.clone(),
                inst.n().to_string(),
                sol.size().to_string(),
                sol.rounds.expect("distributed").to_string(),
                hist,
                sol.wall.as_millis().to_string(),
            ]);
        }
    }
    t
}

/// Node budget after which the naive oracle "gives up" in the
/// exact-scale experiment (≈ seconds of wasted search per instance).
const NAIVE_GIVEUP_BUDGET: u64 = 2_000_000;

/// E14 — exact-scale: the [`lmds_graph::exact::ExactEngine`]
/// against the naive oracle it replaced, on two tiers:
///
/// * **corpus tier** — instances the naive solvers finish: both are
///   timed and the speedup recorded (plus a totals row — the ≥10×
///   acceptance line of the engine PR);
/// * **frontier tier** — instances where the naive search exhausts a
///   2M-node budget outright while the engine still solves exactly
///   (reductions + component split + treewidth DP), i.e. the new
///   largest-solvable sizes. Strips are the shape of Algorithm 1's
///   Lemma-4.2 residual components, so the `strip(40)` row (n = 80) is
///   the "residual components of n ≈ 60–80 now tractable" evidence.
pub fn exp_exact_scale() -> Table {
    use lmds_graph::exact::ExactEngine;
    use std::time::Instant;
    let mut t = Table::new(
        "E14 / exact-scale — exact engine (reduce + B&B/treewidth DP) vs the naive oracle",
        &[
            "problem",
            "instance",
            "n",
            "opt",
            "naive (µs)",
            "engine (µs)",
            "speedup",
            "forced",
            "components (dp/bnb)",
            "search nodes",
        ],
    );
    let mut engine = ExactEngine::new();
    let mut total_naive = 0f64;
    let mut total_engine = 0f64;

    #[derive(Clone, Copy, PartialEq)]
    enum Problem {
        Mds,
        Mvc,
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Tier {
        Corpus,
        Frontier,
    }

    let cases: Vec<(Problem, Tier, String, Graph)> = vec![
        // Corpus tier: the naive oracle still finishes.
        (
            Problem::Mds,
            Tier::Corpus,
            "augmentation(6,3,2)".into(),
            AugmentationSpec::standard(6, 3, 2, 3).generate(),
        ),
        (Problem::Mds, Tier::Corpus, "cycle60".into(), lmds_gen::basic::cycle(60)),
        (
            Problem::Mds,
            Tier::Corpus,
            "outerplanar80".into(),
            lmds_gen::outerplanar::random_maximal_outerplanar(80, 2),
        ),
        (
            Problem::Mds,
            Tier::Corpus,
            "outerplanar150".into(),
            lmds_gen::outerplanar::random_maximal_outerplanar(150, 2),
        ),
        (Problem::Mds, Tier::Corpus, "strip20".into(), lmds_gen::ding::strip(20)),
        (
            Problem::Mvc,
            Tier::Corpus,
            "augmentation(6,3,2)".into(),
            AugmentationSpec::standard(6, 3, 2, 3).generate(),
        ),
        (
            Problem::Mvc,
            Tier::Corpus,
            "outerplanar80".into(),
            lmds_gen::outerplanar::random_maximal_outerplanar(80, 2),
        ),
        (
            Problem::Mvc,
            Tier::Corpus,
            "outerplanar150".into(),
            lmds_gen::outerplanar::random_maximal_outerplanar(150, 2),
        ),
        // Frontier tier: naive exhausts its budget, the engine solves.
        (Problem::Mds, Tier::Frontier, "strip40".into(), lmds_gen::ding::strip(40)),
        (
            Problem::Mds,
            Tier::Frontier,
            "outerplanar300".into(),
            lmds_gen::outerplanar::random_maximal_outerplanar(300, 2),
        ),
        (
            Problem::Mds,
            Tier::Frontier,
            "sparse outerplanar300".into(),
            lmds_gen::outerplanar::random_outerplanar(300, 25, 7),
        ),
        (Problem::Mds, Tier::Frontier, "augmentation n≈290".into(), {
            let spec = lmds_gen::ding::AugmentationSpec {
                base_n: 10,
                base_density_percent: 30,
                fans: 4,
                fan_len: (8, 16),
                strips: 2,
                strip_len: (55, 65),
                seed: 13,
            };
            spec.generate()
        }),
        (
            Problem::Mvc,
            Tier::Frontier,
            "outerplanar300".into(),
            lmds_gen::outerplanar::random_maximal_outerplanar(300, 2),
        ),
    ];

    for (problem, tier, name, g) in &cases {
        let started = Instant::now();
        let naive = match problem {
            Problem::Mds => {
                lmds_graph::dominating::exact_mds_capped(g, NAIVE_GIVEUP_BUDGET).map(|s| s.len())
            }
            Problem::Mvc => {
                lmds_graph::vertex_cover::exact_vertex_cover_capped(g, NAIVE_GIVEUP_BUDGET)
                    .map(|s| s.len())
            }
        };
        let naive_us = started.elapsed().as_secs_f64() * 1e6;
        let started = Instant::now();
        let sol = match problem {
            Problem::Mds => engine.solve_mds(g, u64::MAX),
            Problem::Mvc => engine.solve_mvc(g, u64::MAX),
        }
        .unwrap_or_else(|e| panic!("engine on {name}: {e}"));
        let engine_us = started.elapsed().as_secs_f64() * 1e6;
        let stats = *engine.stats();
        assert!(
            tier == &Tier::Frontier || naive.is_some(),
            "{name}: corpus-tier instance must be naive-solvable"
        );
        if let Some(opt) = naive {
            assert_eq!(opt, sol.len(), "{name}: engine and naive oracle disagree");
            total_naive += naive_us;
            total_engine += engine_us;
        }
        t.push_row(vec![
            match problem {
                Problem::Mds => "MDS".into(),
                Problem::Mvc => "MVC".into(),
            },
            name.clone(),
            g.n().to_string(),
            sol.len().to_string(),
            match naive {
                Some(_) => format!("{naive_us:.0}"),
                None => format!("gave up ({naive_us:.0})"),
            },
            format!("{engine_us:.0}"),
            match naive {
                Some(_) => format!("{:.1}x", naive_us / engine_us.max(1.0)),
                None => "∞".into(),
            },
            stats.forced.to_string(),
            format!("{}/{}", stats.dp_components, stats.bnb_components),
            stats.search_nodes.to_string(),
        ]);
    }
    t.push_row(vec![
        "both".into(),
        "corpus total".into(),
        "-".into(),
        "-".into(),
        format!("{total_naive:.0}"),
        format!("{total_engine:.0}"),
        format!("{:.1}x", total_naive / total_engine.max(1.0)),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t
}

/// S3 / fault-sweep — graceful degradation of the LOCAL solvers under
/// injected faults: solver × fault kind × intensity × seed, every run
/// classified against the fault-free message-passing reference via
/// [`lmds_api::Solution::classify`]. Each row is one cell of the grid
/// (seeds aggregated): feasibility rate, how many runs stayed
/// bit-identical, mean ratio drift over the feasible runs, and the
/// totals from the replayed [`lmds_api::FaultReport`]s.
///
/// Three regimes the taxonomy separates, pinned by property tests in
/// `lmds-core` and re-measured here:
///
/// * the zero-fault plan is bit-identical to the message-passing
///   reference (the `none` rows must read `exact = seeds`),
/// * pure bounded asynchrony stays exactly correct for the
///   grace-hardened Theorem 4.4 machine (`skew=…` rows),
/// * message drops and crash-stop nodes degrade — Algorithm 1's
///   round-counting deciders go infeasible earlier than the
///   grace-hardened machines.
pub fn exp_fault_sweep() -> Table {
    use lmds_api::{CrashPolicy, Degradation, DropPolicy, FaultConfig};
    let mut t = Table::new(
        "S3 / fault-sweep — LOCAL solvers under message drops, crash-stop nodes, and bounded asynchrony (per cell: seeds aggregated, classified against the fault-free reference)",
        &[
            "solver",
            "instance",
            "fault",
            "seeds",
            "feasible",
            "exact",
            "mean drift",
            "dropped",
            "silent",
            "max stale",
        ],
    );
    let reg = registry();
    let instances = vec![
        Instance::sequential("tree40", lmds_gen::trees::random_tree(40, 2)),
        Instance::sequential("augmentation", AugmentationSpec::standard(4, 1, 1, 5).generate()),
    ];
    let zero = FaultConfig::default();
    let plans: Vec<(&str, FaultConfig)> = vec![
        ("none", zero),
        (
            "drop=bernoulli:50",
            FaultConfig { drop: DropPolicy::Bernoulli { per_mille: 50 }, ..zero },
        ),
        (
            "drop=bernoulli:150",
            FaultConfig { drop: DropPolicy::Bernoulli { per_mille: 150 }, ..zero },
        ),
        (
            "drop=bernoulli:300",
            FaultConfig { drop: DropPolicy::Bernoulli { per_mille: 300 }, ..zero },
        ),
        (
            "drop=hubs:100",
            FaultConfig { drop: DropPolicy::TargetedHubs { per_mille: 100 }, ..zero },
        ),
        (
            "drop=hubs:250",
            FaultConfig { drop: DropPolicy::TargetedHubs { per_mille: 250 }, ..zero },
        ),
        (
            "crash=random:1@2",
            FaultConfig { crash: CrashPolicy::Random { count: 1, round: 2 }, ..zero },
        ),
        (
            "crash=random:3@2",
            FaultConfig { crash: CrashPolicy::Random { count: 3, round: 2 }, ..zero },
        ),
        ("skew=1", FaultConfig { skew: 1, ..zero }),
        ("skew=2", FaultConfig { skew: 2, ..zero }),
        ("skew=3", FaultConfig { skew: 3, ..zero }),
    ];
    let seeds: &[u64] = &[1, 2, 3];
    for key in ["mds/theorem44", "mds/algorithm1"] {
        let solver = reg.get(key).expect("registered");
        for inst in &instances {
            let base = SolveConfig::new(solver.descriptor().problem).radii(Radii::practical(2, 2));
            let reference =
                solve(key, inst, &base.clone().mode(ExecutionMode::LOCAL_MESSAGE_PASSING));
            for (label, plan) in &plans {
                let mut feasible = 0usize;
                let mut exact = 0usize;
                let mut drift_sum = 0.0f64;
                let mut dropped = 0u64;
                let mut silent = 0usize;
                let mut max_stale = 0u32;
                for &seed in seeds {
                    let cfg = base.clone().mode(ExecutionMode::LOCAL_FAULTY).fault(FaultConfig {
                        seed: if plan.is_active() { seed } else { 0 },
                        ..*plan
                    });
                    let sol = solve(key, inst, &cfg);
                    if let Some(report) = &sol.fault {
                        dropped += report.messages_dropped;
                        silent += report.silent.len();
                        max_stale = max_stale.max(report.max_staleness);
                    }
                    match sol.classify(inst, &reference) {
                        Degradation::ExactlyCorrect => {
                            feasible += 1;
                            exact += 1;
                        }
                        Degradation::FeasibleDegraded { ratio_drift } => {
                            feasible += 1;
                            drift_sum += ratio_drift;
                        }
                        Degradation::Infeasible { .. } => {}
                    }
                }
                let mean_drift = if feasible > 0 {
                    format!("{:+.3}", drift_sum / feasible as f64)
                } else {
                    "n/a".into()
                };
                t.push_row(vec![
                    key.into(),
                    inst.name.clone(),
                    (*label).into(),
                    seeds.len().to_string(),
                    format!("{feasible}/{}", seeds.len()),
                    exact.to_string(),
                    mean_drift,
                    dropped.to_string(),
                    silent.to_string(),
                    max_stale.to_string(),
                ]);
            }
        }
    }
    t
}

/// The process's peak resident set so far, in MB: `VmHWM` of
/// `/proc/self/status`, or `None` where that file is absent.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Shared body of [`exp_scale`] and [`exp_scale_smoke`]: generate the
/// chain-composed K_{2,t}-minor-free family at each size (ascending),
/// run the centralized Algorithm-1 pipeline through the registry at
/// radii (1, 2) and at the pipeline's (3, 4), and record wall-clock for
/// both phases and the process's peak RSS after each row.
fn scale_rows(title: &str, sizes: &[usize], emit_json: bool) -> Table {
    use crate::timing::{calibrated, write_bench_json, BenchRow, Stats};
    use std::time::Instant;
    let mut t = Table::new(
        title,
        &[
            "instance",
            "n",
            "m",
            "gen (ms)",
            "radii",
            "solve (ms)",
            "|S|",
            "dominating",
            "peak RSS (MB)",
        ],
    );
    let stat = |us: f64| Stats { best: us, mean: us, median: us, p95: us };
    let mut rows: Vec<BenchRow> = Vec::new();
    let ((), calib_us) = calibrated(|| {
        for &target in sizes {
            let name = format!("scale_instance({target})");
            let start = Instant::now();
            let g = lmds_gen::ding::scale_instance(target, 42);
            let gen_us = start.elapsed().as_secs_f64() * 1e6;
            let (n, m) = (g.n(), g.m());
            let inst = Instance::sequential(name.clone(), g);
            rows.push(BenchRow {
                bench: "generate (scale_instance)".into(),
                workload: name.clone(),
                n,
                checksum: m,
                stats: stat(gen_us),
            });
            for (r1, r2) in [(1, 2), (3, 4)] {
                let cfg = SolveConfig::mds().radii(Radii::practical(r1, r2));
                let start = Instant::now();
                let sol = solve("mds/algorithm1", &inst, &cfg);
                let solve_us = start.elapsed().as_secs_f64() * 1e6;
                let valid = sol.verify(&inst).is_ok();
                t.push_row(vec![
                    name.clone(),
                    n.to_string(),
                    m.to_string(),
                    format!("{:.1}", gen_us / 1e3),
                    format!("{r1}/{r2}"),
                    format!("{:.1}", solve_us / 1e3),
                    sol.size().to_string(),
                    valid.to_string(),
                    peak_rss_mb().map_or("n/a".into(), |mb| format!("{mb:.1}")),
                ]);
                rows.push(BenchRow {
                    bench: format!("solve (mds/algorithm1, radii {r1}/{r2})"),
                    workload: name.clone(),
                    n,
                    checksum: sol.size(),
                    stats: stat(solve_us),
                });
            }
        }
    });
    if emit_json {
        write_bench_json("scale", 1, calib_us, &rows);
    }
    t
}

/// E15 — scale: the million-node frontier. The u32-compact CSR, bulk
/// edge-stream generator, and sharded Algorithm-1 phases together are
/// expected to solve the 10⁶-vertex chain-composed instance in
/// single-digit seconds on one core. Writes `results/BENCH_scale.json`
/// alongside the table so `benchdiff` can gate the scale path.
pub fn exp_scale() -> Table {
    scale_rows(
        "E15 / scale — centralized Algorithm 1 on the million-node chain-composed family \
         (peak RSS: the process's high-water mark so far)",
        &[10_000, 100_000, 1_000_000],
        true,
    )
}

/// E15b — scale-smoke: the CI tier of [`exp_scale`]. Small enough for a
/// debug-profile CI run; writes no JSON artifact so a smoke run never
/// clobbers the committed full-tier `BENCH_scale.json`.
pub fn exp_scale_smoke() -> Table {
    scale_rows(
        "E15b / scale-smoke — CI tier of the scale experiment, no JSON artifact \
         (peak RSS: the process's high-water mark so far)",
        &[2_000, 10_000],
        false,
    )
}

/// A table-building experiment entry point.
pub type ExperimentFn = fn() -> Table;

/// The experiment catalog: stable name → table builder. The single
/// source of truth shared by `reproduce` (`--list`, `--experiment`)
/// and [`all_experiments`].
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("registry", exp_registry_sweep),
    ("local-sweep", exp_local_sweep),
    ("local-sweep-large", exp_local_sweep_large),
    ("fault-sweep", exp_fault_sweep),
    ("table1", exp_table1),
    ("lemma32", exp_lemma32),
    ("lemma33", exp_lemma33),
    ("lemma42", exp_lemma42),
    ("alg1", exp_alg1),
    ("thm44", exp_thm44),
    ("mvc", exp_mvc),
    ("sanity", exp_sanity),
    ("rounds", exp_rounds),
    ("ablation", exp_ablation),
    ("forest", exp_forest),
    ("prop31", exp_prop31),
    ("treewidth", exp_treewidth),
    ("exact-scale", exp_exact_scale),
    ("scale", exp_scale),
    ("scale-smoke", exp_scale_smoke),
];

/// Runs every experiment (the `reproduce --experiment all` path).
pub fn all_experiments() -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, build)| build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanity_experiment_is_all_ok() {
        let t = exp_sanity();
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "true", "row failed: {row:?}");
        }
    }

    #[test]
    fn lemma42_residual_diameter_is_bounded() {
        let t = exp_lemma42();
        // Column 4 = max residual diameter must not grow with strip
        // length (column 0).
        let diams: Vec<u32> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        let max = diams.iter().copied().max().unwrap();
        assert!(max <= 16, "residual diameter grew: {diams:?}");
    }

    #[test]
    fn local_sweep_measures_bits_exactly_on_message_passing_rows() {
        let t = exp_local_sweep();
        // Every distributed solver × 2 instances × 2 policies × every
        // runtime kind (derived, so registering a new solver or runtime
        // cannot break this test with a stale hardcoded count).
        let distributed = registry()
            .keys()
            .iter()
            .filter(|&&key| {
                registry()
                    .get(key)
                    .expect("registered")
                    .descriptor()
                    .modes
                    .contains(&ExecutionMode::LOCAL_ORACLE)
            })
            .count();
        let kinds = lmds_localsim::RuntimeKind::ALL.len();
        assert_eq!(t.rows.len(), distributed * 2 * 2 * kinds, "{} rows", t.rows.len());
        for row in &t.rows {
            // The faulty runtime (with its default all-zero plan) is
            // message passing and measures real bits too.
            let measured = row[1] == "message-passing" || row[1] == "faulty";
            assert_eq!(row[7] != "n/a", measured, "max-bits column: {row:?}");
            assert_eq!(row[8] != "n/a", measured, "total-bits column: {row:?}");
            assert!(!row[9].is_empty(), "decided histogram: {row:?}");
        }
    }

    #[test]
    fn fault_sweep_baselines_are_exact_and_drops_report_losses() {
        let t = exp_fault_sweep();
        // 2 solvers × 2 instances × 11 fault plans.
        assert_eq!(t.rows.len(), 2 * 2 * 11, "{} rows", t.rows.len());
        for row in &t.rows {
            let seeds: usize = row[3].parse().unwrap();
            let exact: usize = row[5].parse().unwrap();
            match row[2].as_str() {
                // The zero-fault plan is the bit-identity contract:
                // every seed must replay the message-passing reference.
                "none" => assert_eq!(exact, seeds, "zero-fault cell degraded: {row:?}"),
                // Pure bounded asynchrony is absorbed by the grace
                // window: the Theorem 4.4 machine stays exactly correct
                // (the pinned monotone claim, re-measured here).
                f if f.starts_with("skew=") && row[0] == "mds/theorem44" => {
                    assert_eq!(exact, seeds, "skew degraded theorem44: {row:?}");
                }
                // Drop plans must actually lose messages.
                f if f.starts_with("drop=") => {
                    let dropped: u64 = row[7].parse().unwrap();
                    assert!(dropped > 0, "drop cell lost nothing: {row:?}");
                }
                // Crash plans must leave the crashed vertices silent.
                f if f.starts_with("crash=") => {
                    let silent: usize = row[8].parse().unwrap();
                    assert!(silent > 0, "crash cell reports no silent nodes: {row:?}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn registry_sweep_covers_every_solver_and_stays_valid() {
        let t = exp_registry_sweep();
        let keys = registry().keys();
        assert_eq!(t.rows.len(), keys.len() * 4, "every solver × every instance");
        for key in keys {
            assert!(t.rows.iter().any(|r| r[0] == key), "missing {key}");
        }
        for row in &t.rows {
            assert_eq!(row[5], "true", "invalid solution in sweep: {row:?}");
        }
    }
}
