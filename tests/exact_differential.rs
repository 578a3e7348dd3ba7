//! The differential fuzz harness for the exact engine: a deterministic
//! corpus spanning **every `lmds-gen` family × seeds**, on which the
//! engine must (1) return a *feasible* set and (2) agree with the naive
//! oracle (`lmds_graph::dominating` / `::vertex_cover`, the pre-engine
//! plain solvers kept in-tree for exactly this purpose) on the optimum
//! **size** — for MDS, MVC, and `B`-domination. Each of those tests
//! asserts that the engine's rule sent components to both of its
//! kernels (the tree-decomposition DP and branch and bound). The DP's
//! incremental min-fill elimination is pinned to its quadratic oracle
//! (`treewidth::min_fill_decomposition_naive`) the same way. The
//! paper's headline algorithms are then re-measured against the
//! engine's optima to pin their Theorem 4.1 / 4.4 ratio bounds.

use lmds_api::{Instance, SolveConfig, SolverRegistry};
use lmds_core::Radii;
use lmds_gen::ding::AugmentationSpec;
use lmds_graph::dominating::{dominates, exact_b_dominating, exact_mds, is_dominating_set};
use lmds_graph::exact::ExactEngine;
use lmds_graph::treewidth::{
    min_fill_decomposition, min_fill_decomposition_capped, min_fill_decomposition_naive,
};
use lmds_graph::vertex_cover::{exact_vertex_cover, is_vertex_cover};
use lmds_graph::Graph;

/// The deterministic corpus: every generator family, several seeds,
/// sized so the *naive* oracle still finishes (it is the bottleneck).
/// `cycle40`, `strip20` and `necklace4x6` are large enough for the
/// engine's rule to pick the DP.
fn corpus() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        // basic
        ("path13".into(), lmds_gen::basic::path(13)),
        ("cycle12".into(), lmds_gen::basic::cycle(12)),
        ("cycle40".into(), lmds_gen::basic::cycle(40)),
        ("star9".into(), lmds_gen::basic::star(9)),
        ("spider3x4".into(), lmds_gen::basic::spider(3, 4)),
        ("caterpillar6x2".into(), lmds_gen::basic::caterpillar(6, 2)),
        ("complete7".into(), lmds_gen::basic::complete(7)),
        ("grid4x4".into(), lmds_gen::basic::grid(4, 4)),
        ("k2_5".into(), lmds_gen::basic::complete_bipartite(2, 5)),
        // ding
        ("strip5".into(), lmds_gen::ding::strip(5)),
        ("strip20".into(), lmds_gen::ding::strip(20)),
        ("fan6".into(), lmds_gen::ding::fan(6)),
        // adversarial
        ("clique_pendants6".into(), lmds_gen::adversarial::clique_with_pendants(6)),
        ("subdivided_k2t4".into(), lmds_gen::adversarial::subdivided_k2t(4)),
        ("c6".into(), lmds_gen::adversarial::c6()),
        ("long_cycle21".into(), lmds_gen::adversarial::long_cycle(21)),
        // composite
        ("theta_ring4x2".into(), lmds_gen::composite::theta_ring(4, 2)),
        ("theta_chain3x2".into(), lmds_gen::composite::theta_chain(3, 2)),
        ("necklace3x5".into(), lmds_gen::composite::necklace(3, 5)),
        ("necklace4x6".into(), lmds_gen::composite::necklace(4, 6)),
        ("fan_caterpillar4x3".into(), lmds_gen::composite::fan_caterpillar(4, 3)),
        // structured trees
        ("kary_tree2d3".into(), lmds_gen::trees::complete_kary_tree(2, 3)),
        ("broom5x4".into(), lmds_gen::trees::broom(5, 4)),
    ];
    for seed in 0..3u64 {
        out.push((format!("tree_s{seed}"), lmds_gen::trees::random_tree(17, seed)));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(14, seed),
        ));
        out.push((
            format!("outerplanar_sparse_s{seed}"),
            lmds_gen::outerplanar::random_outerplanar(16, 30, seed),
        ));
        out.push((
            format!("augmentation_s{seed}"),
            AugmentationSpec::standard(4, 1, 1, seed).generate(),
        ));
        out.push((format!("gnp_s{seed}"), lmds_gen::random::connected_gnp(14, 25, seed)));
        out.push((
            format!("bounded_deg_s{seed}"),
            lmds_gen::random::random_bounded_degree(16, 3, seed),
        ));
        out.push((format!("regular_s{seed}"), lmds_gen::random::random_regular(12, 3, seed)));
    }
    out
}

/// Sums which kernel the engine's rule picked over a test's solves:
/// `(dp_components, bnb_components)`.
fn tally(kernels: &mut (usize, usize), engine: &ExactEngine) {
    kernels.0 += engine.stats().dp_components;
    kernels.1 += engine.stats().bnb_components;
}

/// Both backends — the tree-decomposition DP and branch and bound — must
/// have run, or the differential says nothing about one of them.
fn assert_both_kernels_ran((dp, bnb): (usize, usize)) {
    assert!(dp > 0, "no component reached the DP");
    assert!(bnb > 0, "no component reached branch and bound");
}

#[test]
fn every_backend_matches_the_naive_mds_oracle_on_the_corpus() {
    let mut engine = ExactEngine::new();
    let mut kernels = (0, 0);
    for (name, g) in corpus() {
        let oracle = exact_mds(&g).len();
        let sol = engine.solve_mds(&g, u64::MAX).unwrap_or_else(|e| panic!("{name}: {e}"));
        tally(&mut kernels, &engine);
        assert!(is_dominating_set(&g, &sol), "{name}: infeasible");
        assert_eq!(sol.len(), oracle, "{name}: wrong optimum");
    }
    assert_both_kernels_ran(kernels);
}

#[test]
fn every_backend_matches_the_naive_mvc_oracle_on_the_corpus() {
    let mut engine = ExactEngine::new();
    let mut kernels = (0, 0);
    for (name, g) in corpus() {
        let oracle = exact_vertex_cover(&g).len();
        let sol = engine.solve_mvc(&g, u64::MAX).unwrap_or_else(|e| panic!("{name}: {e}"));
        tally(&mut kernels, &engine);
        assert!(is_vertex_cover(&g, &sol), "{name}: infeasible");
        assert_eq!(sol.len(), oracle, "{name}: wrong optimum");
    }
    assert_both_kernels_ran(kernels);
}

/// The incremental min-fill elimination against its quadratic oracle:
/// the same bags and tree edges on the corpus and on the shapes served
/// exact solves decompose, and for every DP-sized cap the capped call
/// gives up exactly when the oracle's width exceeds the cap.
#[test]
fn min_fill_elimination_matches_the_naive_oracle() {
    let mut graphs = corpus();
    graphs.push(("strip100".into(), lmds_gen::ding::strip(100)));
    for seed in 0..3u64 {
        graphs.push((
            format!("sparse_outerplanar300_s{seed}"),
            lmds_gen::outerplanar::random_outerplanar(300, 25, seed),
        ));
        graphs.push((format!("scale800_s{seed}"), lmds_gen::ding::scale_instance(800, seed)));
    }
    graphs.push(("grid6x6".into(), lmds_gen::basic::grid(6, 6)));
    graphs.push(("k10_10".into(), lmds_gen::basic::complete_bipartite(10, 10)));
    for (name, g) in &graphs {
        let oracle = min_fill_decomposition_naive(g);
        assert_eq!(min_fill_decomposition(g), oracle, "{name}");
        for cap in 0..=8 {
            let expected = (oracle.width() <= cap).then(|| oracle.clone());
            assert_eq!(min_fill_decomposition_capped(g, cap), expected, "{name} cap {cap}");
        }
    }
}

/// A strip is one skinny component: the DP takes it and the width cap
/// rejects nothing (`K_{10,10}`'s test in `exact.rs` is the one it
/// rejects).
#[test]
fn strip_components_stay_under_the_width_cap() {
    let g = lmds_gen::ding::strip(20);
    let mut engine = ExactEngine::new();
    let kernels = |e: &ExactEngine| (e.stats().dp_components, e.stats().wide_components);
    engine.solve_mds(&g, u64::MAX).unwrap();
    assert_eq!(kernels(&engine), (1, 0));
    engine.solve_mvc(&g, u64::MAX).unwrap();
    assert_eq!(kernels(&engine), (1, 0));
}

/// `B`-domination differential: deterministic pseudo-random target
/// subsets per corpus instance, plus one dense set (every vertex except
/// multiples of 5) that leaves DP-sized components, engine vs the naive
/// `exact_b_dominating` oracle.
#[test]
fn every_backend_matches_the_naive_b_domination_oracle() {
    let mut engine = ExactEngine::new();
    let mut kernels = (0, 0);
    for (name, g) in corpus() {
        let mut rng = lmds_gen::rng::SmallRng::seed_from_u64(0xB_D0);
        let mut target_sets: Vec<Vec<usize>> = (0..3)
            .map(|_| g.vertices().filter(|_| rng.next_u64().is_multiple_of(3)).collect())
            .collect();
        target_sets.push(g.vertices().filter(|v| !v.is_multiple_of(5)).collect());
        for (trial, targets) in target_sets.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let oracle = exact_b_dominating(&g, targets).len();
            let sol = engine
                .solve_b_dominating(&g, targets, u64::MAX)
                .unwrap_or_else(|e| panic!("{name} t{trial}: {e}"));
            tally(&mut kernels, &engine);
            assert!(dominates(&g, &sol, targets), "{name} t{trial}: targets uncovered");
            assert_eq!(sol.len(), oracle, "{name} t{trial}: wrong optimum");
        }
    }
    assert_both_kernels_ran(kernels);
}

/// The optimum *sets*, not only their sizes: the vertex sets that
/// `solve_mds`, `solve_mvc` and `solve_b_dominating` (targets: every
/// third vertex) return, folded in order into one FNV-1a checksum. The
/// LOCAL deciders need every vertex to rebuild the same optimum, so an
/// optimum of the same size on other vertices is a regression too. The
/// corpus and `grid(5, 5)` reach branch and bound; the strips, sparse
/// outerplanar graphs and scale instances reach the DP.
#[test]
fn optimum_vertex_sets_are_pinned() {
    let mut graphs = corpus();
    graphs.push(("grid5x5".into(), lmds_gen::basic::grid(5, 5)));
    for k in [10, 40, 100] {
        graphs.push((format!("strip{k}"), lmds_gen::ding::strip(k)));
    }
    for seed in 0..3u64 {
        graphs.push((
            format!("sparse_outerplanar300_s{seed}"),
            lmds_gen::outerplanar::random_outerplanar(300, 25, seed),
        ));
        graphs.push((format!("scale800_s{seed}"), lmds_gen::ding::scale_instance(800, seed)));
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |set: &[usize]| {
        for &x in std::iter::once(&set.len()).chain(set) {
            for byte in (x as u64).to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    };
    let mut engine = ExactEngine::new();
    let mut kernels = (0, 0);
    for (name, g) in &graphs {
        let targets: Vec<usize> = g.vertices().step_by(3).collect();
        fold(&engine.solve_mds(g, u64::MAX).unwrap_or_else(|e| panic!("{name}: {e}")));
        tally(&mut kernels, &engine);
        fold(&engine.solve_mvc(g, u64::MAX).unwrap_or_else(|e| panic!("{name}: {e}")));
        tally(&mut kernels, &engine);
        fold(
            &engine
                .solve_b_dominating(g, &targets, u64::MAX)
                .unwrap_or_else(|e| panic!("{name}: {e}")),
        );
        tally(&mut kernels, &engine);
    }
    assert_both_kernels_ran(kernels);
    assert_eq!(hash, 0xb550_e8d9_93f7_518d, "optimum sets changed: checksum {hash:#018x}");
}

/// The registry seam: `mds/exact` and `mvc/exact` (the engine, default
/// config) verify and agree with the naive oracle.
#[test]
fn registry_exact_solvers_agree_across_backends() {
    let registry = SolverRegistry::with_defaults();
    for (name, g) in corpus().into_iter().step_by(4) {
        let inst = Instance::shuffled(&name, g.clone(), 7);
        let sol = registry
            .solve("mds/exact", &inst, &SolveConfig::mds())
            .unwrap_or_else(|e| panic!("mds/exact on {name}: {e}"));
        sol.verify(&inst).unwrap_or_else(|e| panic!("mds/exact on {name}: {e}"));
        let mds_oracle = exact_mds(&g).len();
        assert_eq!(sol.size(), mds_oracle, "mds/exact on {name}");
        assert_eq!(sol.optimum.expect("exact solvers attach their optimum").value, mds_oracle);
        let sol = registry
            .solve("mvc/exact", &inst, &SolveConfig::mvc())
            .unwrap_or_else(|e| panic!("mvc/exact on {name}: {e}"));
        sol.verify(&inst).unwrap_or_else(|e| panic!("mvc/exact on {name}: {e}"));
        assert_eq!(sol.size(), exact_vertex_cover(&g).len(), "mvc/exact on {name}");
    }
}

/// The paper's headline guarantees re-measured against the *new*
/// engine's optima: Algorithm 1 stays within the proved Theorem 4.1
/// constant (50) everywhere, and Theorem 4.4 stays within `2t − 1` on
/// the families with known `t` (trees `t = 2`, outerplanar `t = 3`).
#[test]
fn paper_ratio_bounds_hold_against_the_engine_optima() {
    let registry = SolverRegistry::with_defaults();
    let cfg = SolveConfig::mds().radii(Radii::practical(2, 2));
    for (name, g) in corpus() {
        let inst = Instance::shuffled(&name, g.clone(), 3);
        let opt = registry
            .solve("mds/exact", &inst, &SolveConfig::mds())
            .unwrap_or_else(|e| panic!("mds/exact on {name}: {e}"))
            .size()
            .max(1);
        let alg1 = registry
            .solve("mds/algorithm1", &inst, &cfg)
            .unwrap_or_else(|e| panic!("mds/algorithm1 on {name}: {e}"));
        alg1.verify(&inst).unwrap_or_else(|e| panic!("mds/algorithm1 on {name}: {e}"));
        assert!(
            alg1.size() <= 50 * opt,
            "{name}: Algorithm 1 broke the Theorem 4.1 constant ({} > 50·{opt})",
            alg1.size(),
        );
        let bound = if name.starts_with("tree") || name.starts_with("broom") {
            Some(3) // t = 2 ⟹ 2t − 1 = 3
        } else if name.starts_with("outerplanar") {
            Some(5) // t = 3 ⟹ 2t − 1 = 5
        } else {
            None
        };
        if let Some(factor) = bound {
            let thm44 = registry
                .solve("mds/theorem44", &inst, &SolveConfig::mds())
                .unwrap_or_else(|e| panic!("mds/theorem44 on {name}: {e}"));
            assert!(
                thm44.size() <= factor * opt,
                "{name}: Theorem 4.4 broke 2t−1 ({} > {factor}·{opt})",
                thm44.size(),
            );
        }
    }
}
