//! Theorem 4.4: the 3-round `(2t−1)`-approximation for MDS (and the
//! `t`-approximation for MVC) on `K_{2,t}`-minor-free graphs.
//!
//! MDS algorithm (§5.5):
//! 1. replace `G` by its true-twin-less quotient `R` (minimum-identifier
//!    representatives);
//! 2. return `D₂(R) = { v ∈ R : γ(v) ≥ 2 }` — the vertices whose closed
//!    neighborhood cannot be dominated by a single *other* vertex,
//!    i.e. no `u ≠ v` has `N_R[v] ⊆ N_R[u]`.
//!
//! `D₂` dominates (Lemma 5.19) and `|D₂| ≤ (2t−1)·MDS` via the bipartite
//! minor bound of Lemma 5.18.
//!
//! MVC variant: the theorem statement extends to a `t`-approximation for
//! Minimum Vertex Cover. The proof sketch in the paper covers only MDS;
//! we implement the natural analogue whose ratio follows from the same
//! Lemma 5.18 argument: take every vertex of degree ≥ 2, plus the
//! smaller-identifier endpoint of every isolated edge. An optimal cover
//! `B` misses only an independent set `A` of degree-≥2 vertices, each
//! with two neighbors in `B`, so `|A| ≤ (t−1)|B|` and the returned set
//! has size ≤ `t·MVC`. This runs in 2 rounds: a degree-1 vertex must
//! learn its neighbor's degree to recognize an isolated edge.

use crate::algorithm1::twin_quotient;
use lmds_graph::{Graph, Vertex};
use lmds_localsim::IdAssignment;

/// Whether, in graph `rg`, some vertex `u ≠ v` satisfies
/// `N[v] ⊆ N[u]` (then `γ(v) ≤ 1` and `v ∉ D₂`).
///
/// Any such `u` is necessarily a neighbor of `v` (it must dominate `v`
/// itself), so this is a walk over `v`'s CSR neighbor slice with the
/// allocation-free subset test per candidate.
pub fn neighborhood_absorbed(rg: &Graph, v: Vertex) -> bool {
    rg.neighbors(v).iter().any(|&u| rg.closed_neighborhood_subset(v, u as Vertex))
}

/// `D₂` of a (twin-free) graph: vertices not absorbed by any neighbor.
pub fn d2_set(rg: &Graph) -> Vec<Vertex> {
    rg.vertices().filter(|&v| !neighborhood_absorbed(rg, v)).collect()
}

/// Theorem 4.4 MDS algorithm, centralized reference. Returns a
/// dominating set of `g` of size ≤ `(2t−1)·MDS(g)` when `g` is
/// `K_{2,t}`-minor-free. Identifier-canonical (matches the 3-round
/// LOCAL decider in [`crate::distributed`]).
pub fn theorem44_mds(g: &Graph, ids: &IdAssignment) -> Vec<Vertex> {
    let id_vec: Vec<u64> = g.vertices().map(|v| ids.id_of(v)).collect();
    let (_, reduced) = twin_quotient(g, &id_vec, true);
    d2_set(&reduced.graph).into_iter().map(|v| reduced.to_host(v)).collect()
}

/// Theorem 4.4 MVC variant, centralized reference: degree-≥2 vertices
/// plus the smaller-id endpoint of isolated edges. 2-round LOCAL.
pub fn theorem44_mvc(g: &Graph, ids: &IdAssignment) -> Vec<Vertex> {
    let mut out = Vec::new();
    for v in g.vertices() {
        match g.degree(v) {
            0 => {}
            1 => {
                let u = g.neighbors(v)[0] as Vertex;
                // Isolated edge: take the smaller-id endpoint.
                if g.degree(u) == 1 && ids.id_of(v) < ids.id_of(u) {
                    out.push(v);
                }
            }
            _ => out.push(v),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::dominating::{exact_mds, is_dominating_set};
    use lmds_graph::vertex_cover::{exact_vertex_cover, is_vertex_cover};
    use lmds_graph::GraphBuilder;
    use lmds_localsim::IdAssignment;

    fn seq(n: usize) -> IdAssignment {
        IdAssignment::sequential(n)
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn d2_dominates_twin_free_graphs() {
        // Lemma 5.19's consequence: on a twin-free graph, D2 dominates.
        let graphs = vec![
            lmds_gen::basic::path(9),
            cycle(8),
            lmds_gen::ding::strip(5),
            lmds_gen::outerplanar::random_maximal_outerplanar(10, 1),
        ];
        for g in &graphs {
            assert!(lmds_graph::twins::is_twin_free(g), "{g:?}");
            let d2 = d2_set(g);
            assert!(is_dominating_set(g, &d2), "{g:?}: D2 = {d2:?}");
        }
    }

    #[test]
    fn full_algorithm_dominates_with_twins() {
        let graphs = vec![
            lmds_gen::basic::complete(5),
            lmds_gen::adversarial::clique_with_pendants(6),
            Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            lmds_gen::ding::fan(5),
        ];
        for g in &graphs {
            let sol = theorem44_mds(g, &seq(g.n()));
            assert!(is_dominating_set(g, &sol), "{g:?}: {sol:?}");
        }
    }

    #[test]
    fn ratio_bound_on_k2t_free_families() {
        // Outerplanar graphs are K_{2,3}-minor-free: ratio ≤ 2·3−1 = 5.
        for seed in 0..6 {
            let g = lmds_gen::outerplanar::random_maximal_outerplanar(14, seed);
            let sol = theorem44_mds(&g, &seq(g.n()));
            let opt = exact_mds(&g).len();
            assert!(sol.len() <= 5 * opt, "seed={seed}: |D2|={} opt={opt}", sol.len());
        }
        // Trees are K_{2,2}-minor-free: ratio ≤ 3.
        for seed in 0..6 {
            let g = lmds_gen::trees::random_tree(20, seed);
            let sol = theorem44_mds(&g, &seq(g.n()));
            let opt = exact_mds(&g).len();
            assert!(sol.len() <= 3 * opt, "seed={seed}");
            assert!(is_dominating_set(&g, &sol));
        }
    }

    #[test]
    fn path_d2_is_interior() {
        // On a path, endpoints are absorbed by their neighbor; the
        // interior is D2.
        let g = lmds_gen::basic::path(6);
        let sol = theorem44_mds(&g, &seq(6));
        assert_eq!(sol, vec![1, 2, 3, 4]);
    }

    #[test]
    fn star_d2_is_center() {
        let g = lmds_gen::basic::star(5);
        let sol = theorem44_mds(&g, &seq(6));
        // Leaves are absorbed by the center (N[leaf] ⊆ N[center]);
        // the center is not absorbed (leaves don't cover other leaves).
        assert_eq!(sol, vec![0]);
    }

    #[test]
    fn clique_reduces_to_single_vertex() {
        let g = lmds_gen::basic::complete(6);
        let sol = theorem44_mds(&g, &seq(6));
        assert_eq!(sol, vec![0]);
        // With shuffled ids the kept representative follows the ids.
        let ids = IdAssignment::from_ids(vec![9, 4, 7, 1, 8, 6]);
        let sol2 = theorem44_mds(&g, &ids);
        assert_eq!(sol2, vec![3]);
    }

    #[test]
    fn mvc_variant_covers_and_ratio() {
        let graphs = vec![
            lmds_gen::basic::path(9),
            cycle(10),
            lmds_gen::ding::strip(6),
            lmds_gen::trees::random_tree(18, 4),
            Graph::from_edges(4, &[(0, 1), (2, 3)]), // isolated edges
        ];
        for g in &graphs {
            let sol = theorem44_mvc(g, &seq(g.n()));
            assert!(is_vertex_cover(g, &sol), "{g:?}: {sol:?}");
        }
        // Ratio ≤ t on trees (t = 2): degree-≥2 count ≤ 2·MVC.
        for seed in 0..5 {
            let g = lmds_gen::trees::random_tree(16, seed);
            let sol = theorem44_mvc(&g, &seq(g.n()));
            let opt = exact_vertex_cover(&g).len();
            assert!(sol.len() <= 2 * opt.max(1), "seed={seed}");
        }
    }

    #[test]
    fn isolated_edge_takes_one_endpoint() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(theorem44_mvc(&g, &seq(2)), vec![0]);
        let ids = IdAssignment::from_ids(vec![5, 2]);
        assert_eq!(theorem44_mvc(&g, &ids), vec![1]);
    }

    #[test]
    fn subdivided_k2t_d2() {
        // On the subdivided K_{2,t}, D2 contains both hubs (their
        // neighborhoods are not absorbed) and the solution dominates.
        let g = lmds_gen::adversarial::subdivided_k2t(4);
        let sol = theorem44_mds(&g, &seq(g.n()));
        assert!(is_dominating_set(&g, &sol));
        assert!(sol.contains(&0) && sol.contains(&1));
        // Ratio check: MDS = 2, t = 4 ⟹ bound (2·4−1)·2 = 14.
        assert!(sol.len() <= 14);
    }
}
