//! Equivalence suite for the shared-work [`CutEngine`]: on the full
//! generator corpus, every engine sweep must reproduce the naive
//! Definition-2.1 reference predicates **bit for bit** — the engine is
//! a pure performance rebuild, never a behavior change.
//!
//! Covered per graph × radius (radii 1–6):
//! * `X`: [`CutEngine::one_cut_mask`] vs [`local_cuts::is_local_one_cut`],
//!   and the monotonicity of the naive `X` in the radius that the fused
//!   sweeps rely on
//! * `I`: [`CutEngine::interesting_mask`] vs [`local_cuts::is_interesting`]
//! * pairs: [`CutEngine::two_cuts`] vs the naive all-pairs
//!   [`local_cuts::is_local_two_cut`] enumeration
//! * endpoints: [`CutEngine::two_cut_endpoint_mask`] vs the pair union
//! * per vertex: [`CutEngine::one_cut_at`], [`CutEngine::interesting_at`]
//!   and [`CutEngine::two_cut_endpoint_at`] vs the naive predicates and
//!   the three masks, on every vertex
//! * fused: [`CutEngine::one_cut_and_interesting_masks`] and
//!   [`CutEngine::one_cut_and_endpoint_masks`] vs the separate sweeps,
//!   at radius pairs with `r₁ < r₂`, `r₁ = r₂` and `r₁ > r₂`
//!
//! plus the structural invariants of `local_two_cuts` (ordering, dedup,
//! symmetry of the underlying predicate) and the identity quotient the
//! pipeline takes when a graph has no twins.
//!
//! [`CutEngine`]: lmds_core::local_cuts::CutEngine
//! [`CutEngine::one_cut_mask`]: lmds_core::local_cuts::CutEngine::one_cut_mask
//! [`CutEngine::interesting_mask`]: lmds_core::local_cuts::CutEngine::interesting_mask
//! [`CutEngine::two_cuts`]: lmds_core::local_cuts::CutEngine::two_cuts
//! [`CutEngine::two_cut_endpoint_mask`]: lmds_core::local_cuts::CutEngine::two_cut_endpoint_mask
//! [`CutEngine::one_cut_at`]: lmds_core::local_cuts::CutEngine::one_cut_at
//! [`CutEngine::interesting_at`]: lmds_core::local_cuts::CutEngine::interesting_at
//! [`CutEngine::two_cut_endpoint_at`]: lmds_core::local_cuts::CutEngine::two_cut_endpoint_at
//! [`CutEngine::one_cut_and_interesting_masks`]: lmds_core::local_cuts::CutEngine::one_cut_and_interesting_masks
//! [`CutEngine::one_cut_and_endpoint_masks`]: lmds_core::local_cuts::CutEngine::one_cut_and_endpoint_masks
//! [`local_cuts::is_local_one_cut`]: lmds_core::local_cuts::is_local_one_cut
//! [`local_cuts::is_interesting`]: lmds_core::local_cuts::is_interesting
//! [`local_cuts::is_local_two_cut`]: lmds_core::local_cuts::is_local_two_cut

use lmds_core::local_cuts::{self, CutEngine};
use lmds_core::radii::Radii;
use lmds_gen::ding::AugmentationSpec;
use lmds_graph::{Graph, InducedSubgraph};

/// The generator corpus: every family the experiments draw from, at
/// sizes where the naive reference stays affordable.
fn corpus() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("cycle5".into(), lmds_gen::basic::cycle(5)),
        ("cycle6".into(), lmds_gen::basic::cycle(6)),
        ("cycle13".into(), lmds_gen::basic::cycle(13)),
        ("path12".into(), lmds_gen::basic::path(12)),
        ("theta".into(), Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])),
        ("subdivided_k23".into(), lmds_gen::adversarial::subdivided_k2t(3)),
        ("subdivided_k25".into(), lmds_gen::adversarial::subdivided_k2t(5)),
        ("clique_pendants5".into(), lmds_gen::adversarial::clique_with_pendants(5)),
        ("clique_pendants8".into(), lmds_gen::adversarial::clique_with_pendants(8)),
        ("strip6".into(), lmds_gen::ding::strip(6)),
        ("fan5".into(), lmds_gen::ding::fan(5)),
        (
            "disconnected".into(),
            Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)]),
        ),
    ];
    for seed in 0..2u64 {
        out.push((
            format!("augmentation_s{seed}"),
            AugmentationSpec::standard(5, 2, 2, seed).generate(),
        ));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(18, seed),
        ));
        // The benchmarked chain family, where the separator prefilter
        // rejects most in-range pairs.
        out.push((format!("chain400_s{seed}"), lmds_gen::ding::scale_instance(400, seed)));
    }
    out
}

#[test]
fn engine_x_set_matches_naive_reference() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let mask = engine.one_cut_mask(&g, r);
            for v in g.vertices() {
                assert_eq!(mask[v], local_cuts::is_local_one_cut(&g, v, r), "{name} r={r} v={v}");
            }
        }
    }
}

#[test]
fn local_one_cuts_are_monotone_in_the_radius() {
    // The lemma the fused sweeps read X off the r₂ split by: for
    // 1 ≤ r ≤ r', an r'-local 1-cut is an r-local 1-cut. Checked on the
    // naive predicate, so it does not lean on the engine that uses it.
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        let x: Vec<Vec<bool>> = (1..=6u32)
            .map(|r| g.vertices().map(|v| local_cuts::is_local_one_cut(&g, v, r)).collect())
            .collect();
        for (k, wider) in x.iter().enumerate() {
            for (j, narrower) in x[..k].iter().enumerate() {
                for v in g.vertices().filter(|&v| wider[v]) {
                    assert!(narrower[v], "{name} v={v}: cut at r={} but not at r={}", k + 1, j + 1);
                }
            }
        }
        // At r = 0 the ball is the vertex alone.
        assert!(engine.one_cut_mask(&g, 0).iter().all(|&m| !m), "{name} r=0");
    }
}

#[test]
fn engine_interesting_set_matches_naive_reference() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let mask = engine.interesting_mask(&g, r);
            for v in g.vertices() {
                assert_eq!(mask[v], local_cuts::is_interesting(&g, v, r), "{name} r={r} v={v}");
            }
        }
    }
}

#[test]
fn engine_two_cuts_match_naive_all_pairs_enumeration() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let pairs = engine.two_cuts(&g, r);
            let mut naive = Vec::new();
            for u in g.vertices() {
                for v in (u + 1)..g.n() {
                    if local_cuts::is_local_two_cut(&g, u, v, r) {
                        naive.push((u, v));
                    }
                }
            }
            assert_eq!(pairs, naive, "{name} r={r}");
            // Endpoint mask is exactly the pair union.
            let endpoints = engine.two_cut_endpoint_mask(&g, r);
            let mut union = vec![false; g.n()];
            for &(a, b) in &naive {
                union[a] = true;
                union[b] = true;
            }
            assert_eq!(endpoints, union, "{name} r={r}");
        }
    }
}

#[test]
fn per_vertex_queries_match_naive_predicates_and_masks() {
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for r in 1..=6u32 {
            let one = engine.one_cut_mask(&g, r);
            let interesting = engine.interesting_mask(&g, r);
            let endpoints = engine.two_cut_endpoint_mask(&g, r);
            for v in g.vertices() {
                let at = format!("{name} r={r} v={v}");
                let x = engine.one_cut_at(&g, v, r);
                assert_eq!(x, local_cuts::is_local_one_cut(&g, v, r), "one-cut {at}");
                assert_eq!(x, one[v], "one-cut mask {at}");
                let i = engine.interesting_at(&g, v, r);
                assert_eq!(i, local_cuts::is_interesting(&g, v, r), "interesting {at}");
                assert_eq!(i, interesting[v], "interesting mask {at}");
                // Endpoint of some local minimal 2-cut: partners lie in
                // the ball (the pair predicate needs d(u, v) ≤ r).
                let e = engine.two_cut_endpoint_at(&g, v, r);
                let naive = lmds_graph::bfs::ball(&g, v, r)
                    .into_iter()
                    .any(|u| local_cuts::is_local_two_cut(&g, u, v, r));
                assert_eq!(e, naive, "endpoint {at}");
                assert_eq!(e, endpoints[v], "endpoint mask {at}");
            }
        }
    }
}

#[test]
fn fused_sweeps_match_the_separate_masks() {
    // (4, 2) and (6, 3) take the r₁ > r₂ branch: the BFS runs to r₁ and
    // the index reads its r₂ ball off the distances.
    let mut engine = CutEngine::new();
    for (name, g) in corpus() {
        for (one_cut, two_cut) in [(1, 2), (2, 2), (3, 4), (4, 2), (6, 3)] {
            let radii = Radii { one_cut, two_cut };
            let x = engine.one_cut_mask(&g, one_cut);
            let interesting = engine.interesting_mask(&g, two_cut);
            let counts = engine.pair_counts();
            let endpoints = engine.two_cut_endpoint_mask(&g, two_cut);
            let fused = engine.one_cut_and_interesting_masks(&g, radii);
            assert_eq!(fused, (x.clone(), interesting), "{name} {radii:?} interesting");
            assert_eq!(engine.pair_counts(), counts, "{name} {radii:?} counts");
            let fused = engine.one_cut_and_endpoint_masks(&g, radii);
            assert_eq!(fused, (x, endpoints), "{name} {radii:?} endpoints");
        }
    }
}

#[test]
fn full_vertex_sets_induce_the_graph_itself() {
    // A twin-free quotient keeps every vertex; the subgraph then borrows
    // the graph itself with identity maps, equal to the rebuilt one.
    let mut graphs = corpus();
    graphs.push(("chain20000".into(), lmds_gen::ding::scale_instance(20_000, 3)));
    graphs.push(("strip400".into(), lmds_gen::ding::strip(400)));
    graphs.push(("outerplanar3000".into(), lmds_gen::outerplanar::random_outerplanar(3000, 25, 1)));
    for (name, g) in graphs {
        let all: Vec<usize> = g.vertices().collect();
        let sub = InducedSubgraph::new(&g, &all);
        assert!(*sub.graph == g, "{name}: graph");
        assert_eq!(sub.host_vertices(), all, "{name}: to_host");
        assert!(g.vertices().all(|v| sub.from_host(v) == Some(v)), "{name}: from_host");
        // The rebuilding path: the same vertices inside one extra.
        let host = Graph::from_edges(g.n() + 1, &g.edges().collect::<Vec<_>>());
        assert!(*InducedSubgraph::new(&host, &all).graph == g, "{name}: rebuilt");
    }
}

#[test]
fn local_two_cuts_ordering_dedup_and_symmetry_invariants() {
    for (name, g) in corpus() {
        for r in [2u32, 4] {
            let pairs = local_cuts::local_two_cuts(&g, r);
            // Strictly lexicographically increasing ⟹ sorted + dedup'd.
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{name} r={r}: {pairs:?}");
            for &(u, v) in &pairs {
                assert!(u < v, "{name} r={r}: unnormalized pair ({u},{v})");
                // The predicate is symmetric in its endpoints.
                assert!(local_cuts::is_local_two_cut(&g, v, u, r), "{name} r={r} ({v},{u})");
            }
        }
    }
}

#[test]
fn engine_whole_graph_queries_match_module_functions() {
    // The public set-level functions are engine-backed; pin them to the
    // naive per-vertex filters once more at the integration level.
    for (name, g) in corpus() {
        for r in [1u32, 3] {
            let by_filter: Vec<usize> =
                g.vertices().filter(|&v| local_cuts::is_local_one_cut(&g, v, r)).collect();
            assert_eq!(local_cuts::local_one_cut_vertices(&g, r), by_filter, "{name} r={r}");
            let by_filter: Vec<usize> =
                g.vertices().filter(|&v| local_cuts::is_interesting(&g, v, r)).collect();
            assert_eq!(local_cuts::interesting_vertices(&g, r), by_filter, "{name} r={r}");
        }
    }
}

#[test]
fn fused_masks_and_pair_counts_are_pinned_off_the_chain_family() {
    // Out-of-family graphs at the pipeline's (3, 4), and a path whose
    // 301- to 601-entry balls are stored sorted: the fused masks and the
    // schedule-free pair counts, pinned from the engine that sorted
    // every stored ball. `profiled` is left out: the monotone skip makes
    // it depend on the order partners are met in.
    struct Pinned {
        name: &'static str,
        g: Graph,
        radii: Radii,
        /// `|X|` and the FNV-1a hash of `X`'s members.
        x: (usize, u64),
        interesting: Vec<usize>,
        endpoints: Vec<usize>,
        in_range: usize,
        exit_rejected: usize,
    }
    fn members(mask: &[bool]) -> Vec<usize> {
        mask.iter().enumerate().filter_map(|(v, &m)| m.then_some(v)).collect()
    }
    fn fnv(vs: &[usize]) -> u64 {
        vs.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| (h ^ v as u64).wrapping_mul(0x100_0000_01b3))
    }
    let r34 = Radii { one_cut: 3, two_cut: 4 };
    let path_interior: Vec<usize> = (1..2999).collect();
    let cases = [
        Pinned {
            name: "grid60",
            g: lmds_gen::basic::grid(60, 60),
            radii: r34,
            x: (0, fnv(&[])),
            interesting: vec![],
            endpoints: vec![1, 58, 60, 119, 3480, 3539, 3541, 3598],
            in_range: 68_430,
            exit_rejected: 0,
        },
        Pinned {
            name: "regular600",
            g: lmds_gen::random::random_regular(600, 4, 1),
            radii: r34,
            x: (386, 0x989e_332b_06cf_d073),
            interesting: vec![],
            endpoints: vec![],
            in_range: 42_413,
            exit_rejected: 0,
        },
        Pinned {
            name: "gnp300",
            g: lmds_gen::random::connected_gnp(300, 3, 1),
            radii: r34,
            x: (0, fnv(&[])),
            interesting: vec![],
            endpoints: vec![124, 191],
            in_range: 44_833,
            exit_rejected: 0,
        },
        Pinned {
            name: "path3000",
            g: lmds_gen::basic::path(3000),
            radii: Radii { one_cut: 300, two_cut: 300 },
            x: (2998, fnv(&path_interior)),
            interesting: vec![],
            endpoints: vec![],
            in_range: 854_850,
            exit_rejected: 854_250,
        },
    ];
    let mut engine = CutEngine::new();
    for case in &cases {
        let name = case.name;
        for interesting in [true, false] {
            let (x, pairs) = if interesting {
                engine.one_cut_and_interesting_masks(&case.g, case.radii)
            } else {
                engine.one_cut_and_endpoint_masks(&case.g, case.radii)
            };
            let x = members(&x);
            assert_eq!((x.len(), fnv(&x)), case.x, "{name} X");
            let want = if interesting { &case.interesting } else { &case.endpoints };
            assert_eq!(&members(&pairs), want, "{name} interesting={interesting}");
            let counts = engine.pair_counts();
            let got = (counts.in_range, counts.exit_rejected);
            assert_eq!(got, (case.in_range, case.exit_rejected), "{name}");
        }
    }
}
