//! Folklore baselines from Table 1 (centralized references; the LOCAL
//! deciders live in [`crate::distributed`]).

use lmds_graph::{Graph, Vertex};
use lmds_localsim::IdAssignment;

/// Table 1, trees row (folklore, ratio 3, 2 rounds): on each component
/// with ≥ 3 vertices take all vertices of degree ≥ 2; a 2-vertex
/// component contributes its smaller-identifier endpoint; isolated
/// vertices take themselves.
///
/// On forests this is a 3-approximation; on arbitrary graphs it still
/// returns a dominating set (any vertex has either degree ≥ 2, or a
/// selected neighbor, or is handled by the small-component rules) —
/// only the ratio claim needs the forest.
pub fn trees_folklore(g: &Graph, ids: &IdAssignment) -> Vec<Vertex> {
    let mut out = Vec::new();
    for v in g.vertices() {
        match g.degree(v) {
            0 => out.push(v),
            1 => {
                let u = g.neighbors(v)[0] as Vertex;
                if g.degree(u) == 1 && ids.id_of(v) < ids.id_of(u) {
                    out.push(v);
                }
            }
            _ => out.push(v),
        }
    }
    out
}

/// Table 1, `K_{1,t}`-minor-free row (folklore, ratio `t`, 0 rounds):
/// take every vertex. Such graphs have `Δ ≤ t − 1`, so
/// `n ≤ (Δ+1)·MDS ≤ t·MDS`.
pub fn take_all(g: &Graph) -> Vec<Vertex> {
    g.vertices().collect()
}

/// Folklore 2-approximation for MVC on regular graphs (§1): take all
/// non-isolated vertices. (A `k`-regular graph has `kn/2` edges and any
/// `p` vertices cover at most `pk`, so `MVC ≥ n/2`.)
pub fn regular_mvc_take_all(g: &Graph) -> Vec<Vertex> {
    g.vertices().filter(|&v| g.degree(v) > 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::dominating::is_dominating_set;
    use lmds_graph::vertex_cover::is_vertex_cover;

    fn seq(n: usize) -> IdAssignment {
        IdAssignment::sequential(n)
    }

    /// Reference optima through the exact engine (the baselines'
    /// ratio claims are measured against it, like the harness does).
    fn exact_mds(g: &Graph) -> Vec<Vertex> {
        lmds_graph::exact::with_thread_engine(|e| e.solve_mds(g, u64::MAX))
            .expect("unbounded budget")
    }

    fn exact_vertex_cover(g: &Graph) -> Vec<Vertex> {
        lmds_graph::exact::with_thread_engine(|e| e.solve_mvc(g, u64::MAX))
            .expect("unbounded budget")
    }

    #[test]
    fn trees_folklore_dominates_and_is_3_approx() {
        for seed in 0..8 {
            let g = lmds_gen::trees::random_tree(25, seed);
            let sol = trees_folklore(&g, &seq(g.n()));
            assert!(is_dominating_set(&g, &sol), "seed={seed}");
            let opt = exact_mds(&g).len();
            assert!(sol.len() <= 3 * opt, "seed={seed}: {} > 3·{opt}", sol.len());
        }
    }

    #[test]
    fn trees_folklore_small_components() {
        // Isolated vertex, isolated edge, and a 3-path all at once.
        let g = Graph::from_edges(6, &[(1, 2), (3, 4), (4, 5)]);
        let sol = trees_folklore(&g, &seq(6));
        assert!(is_dominating_set(&g, &sol));
        assert!(sol.contains(&0)); // isolated
        assert!(sol.contains(&1) ^ sol.contains(&2)); // one endpoint
        assert!(sol.contains(&4)); // path center
    }

    #[test]
    fn trees_folklore_dominates_on_non_trees_too() {
        let g = lmds_gen::basic::cycle(9);
        let sol = trees_folklore(&g, &seq(9));
        assert!(is_dominating_set(&g, &sol));
        assert_eq!(sol.len(), 9); // every cycle vertex has degree 2
    }

    #[test]
    fn take_all_ratio_on_bounded_degree() {
        // Δ ≤ t−1 ⟹ n ≤ t·MDS.
        let t = 5;
        for seed in 0..5 {
            let g = lmds_gen::random::random_bounded_degree(18, t - 1, seed);
            let sol = take_all(&g);
            assert!(is_dominating_set(&g, &sol));
            let opt = exact_mds(&g).len();
            assert!(sol.len() <= t * opt, "seed={seed}: n={} opt={opt}", g.n());
        }
    }

    #[test]
    fn regular_mvc_two_approx() {
        for seed in 0..4 {
            let g = lmds_gen::random::random_regular(16, 3, seed);
            let sol = regular_mvc_take_all(&g);
            assert!(is_vertex_cover(&g, &sol));
            let opt = exact_vertex_cover(&g).len();
            assert!(sol.len() <= 2 * opt + 1, "seed={seed}: {} vs {opt}", sol.len());
        }
    }
}
