//! True-twin classes and the canonical twin-free quotient.
//!
//! Both of the paper's algorithms begin by replacing `G` with "the
//! true-twin-less graph associated to `G`": a largest induced subgraph
//! without true twins (`N[u] = N[v]`). Keeping the minimum-index vertex
//! of each twin class makes the quotient canonical and, in the LOCAL
//! model, computable in 2 rounds (each vertex learns `N[u]` for all its
//! neighbors and drops out if a smaller-ID twin exists).
//!
//! The key invariant (used in both Theorem 4.1 and Theorem 4.4) is
//! `MDS(G⁻) = MDS(G)`, tested here and property-tested downstream.

use crate::graph::{Graph, Vertex};
use crate::par;
use crate::subgraph::InducedSubgraph;

/// Below this vertex count the neighborhood-hash fill stays
/// single-threaded: spawning scoped workers costs more than hashing the
/// whole (small) graph. Above it the fill shards into disjoint key
/// ranges — each worker hashes the CSR rows of its own vertex range, so
/// the computed keys (and everything downstream) are identical for
/// every worker count.
const HASH_PARALLEL_THRESHOLD: usize = 1 << 15;

/// SplitMix64 finalizer: the per-element mixer of the commutative
/// neighborhood hash.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The partition of `V(G)` into true-twin classes.
///
/// Every vertex is in exactly one class; non-twin vertices form singleton
/// classes. Classes are sorted internally and ordered by their minimum
/// vertex.
pub fn twin_classes(g: &Graph) -> Vec<Vec<Vertex>> {
    // One ascending sweep builds the classes ordered by minimum member.
    // `rep[v] ≤ v`, so a class's representative is met before its other
    // members, and `rep` is overwritten in place with class indices.
    let mut rep = twin_representatives(g);
    let mut classes: Vec<Vec<Vertex>> = Vec::new();
    for v in 0..rep.len() {
        let class = if rep[v] == v {
            classes.push(Vec::new());
            classes.len() - 1
        } else {
            rep[rep[v]]
        };
        rep[v] = class;
        classes[class].push(v);
    }
    classes
}

/// `rep[v]` = the minimum vertex of `v`'s true-twin class (so `v` is a
/// kept representative iff `rep[v] == v`). This is the allocation-lean
/// core of the twin reduction.
///
/// Two vertices share a closed neighborhood iff they are true twins (or
/// identical), so the grouping hashes `N[v]` straight off the CSR
/// neighbor slices (a commutative 64-bit sum — no per-vertex key
/// allocation), sorts `(hash, vertex)` pairs, and confirms each
/// collision run with the exact slice comparison
/// [`Graph::are_true_twins`]. A class is never split across hash runs,
/// and each run is in ascending vertex order, so the first member seen
/// of each class is its minimum. The pair array lives only for the
/// call: no n-sized buffer outlasts it.
pub fn twin_representatives(g: &Graph) -> Vec<Vertex> {
    let n = g.n();
    let mut rep: Vec<Vertex> = (0..n).collect();
    let mut keyed: Vec<(u64, Vertex)> = vec![(0, 0); n];
    let workers = par::workers(n, HASH_PARALLEL_THRESHOLD, n);
    fill_neighborhood_keys(g, &mut keyed, workers);
    keyed.sort_unstable();
    let mut run_reps: Vec<Vertex> = Vec::new();
    for run in keyed.chunk_by(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
        run_reps.clear();
        for &(_, v) in run {
            match run_reps.iter().find(|&&r| g.are_true_twins(r, v)) {
                Some(&r) => rep[v] = r,
                None => run_reps.push(v),
            }
        }
    }
    rep
}

/// Fills `keyed[v]` with `(h, v)`, `h` the commutative closed-neighborhood
/// hash of `v`, for every `v < keyed.len()`, in `workers` contiguous
/// chunks (each worker hashes the CSR rows of its own disjoint vertex
/// range, so the output is identical for every worker count).
fn fill_neighborhood_keys(g: &Graph, keyed: &mut [(u64, Vertex)], workers: usize) {
    par::map_chunks(workers, keyed, &mut (), |_, v, slot| {
        let mut h = mix(v as u64);
        for &u in g.neighbors(v) {
            h = h.wrapping_add(mix(u as u64));
        }
        *slot = (h, v);
    });
}

/// The canonical twin-free reduction of a graph.
#[derive(Debug, Clone)]
pub struct TwinReduction<'g> {
    /// The quotient: `G` induced on the minimum vertex of every twin
    /// class (`G` itself, borrowed, when `G` is twin-free).
    pub reduced: InducedSubgraph<'g>,
    /// `representative[v]` is the kept host vertex of `v`'s twin class.
    pub representative: Vec<Vertex>,
}

impl<'g> TwinReduction<'g> {
    /// Computes the canonical twin-free quotient of `g` straight from
    /// the representative array (no intermediate class lists).
    pub fn compute(g: &'g Graph) -> Self {
        let representative = twin_representatives(g);
        let kept: Vec<Vertex> = g.vertices().filter(|&v| representative[v] == v).collect();
        let reduced = InducedSubgraph::new(g, &kept);
        TwinReduction { reduced, representative }
    }
}

/// Whether `g` contains no pair of true twins.
pub fn is_twin_free(g: &Graph) -> bool {
    twin_representatives(g).iter().enumerate().all(|(v, &r)| r == v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominating::{exact_mds, is_dominating_set};

    #[test]
    fn sharded_key_fill_matches_sequential() {
        // The parallel fill must be observation-free: identical keys for
        // every worker count (forced here, since the production gate may
        // resolve to one worker on small machines).
        let g = crate::Graph::from_edges(
            101,
            &(0..100).map(|i| (i, i + 1)).chain([(0, 50), (3, 97)]).collect::<Vec<_>>(),
        );
        let mut seq = vec![(0u64, 0); g.n()];
        fill_neighborhood_keys(&g, &mut seq, 1);
        for workers in [1, 2, 4, 7] {
            let mut par = vec![(0u64, 0); g.n()];
            fill_neighborhood_keys(&g, &mut par, workers);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn triangle_collapses_to_single_vertex() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let classes = twin_classes(&g);
        assert_eq!(classes, vec![vec![0, 1, 2]]);
        let red = TwinReduction::compute(&g);
        assert_eq!(red.reduced.graph.n(), 1);
        assert_eq!(red.representative, vec![0, 0, 0]);
    }

    #[test]
    fn path_is_twin_free() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_twin_free(&g));
        let red = TwinReduction::compute(&g);
        assert_eq!(red.reduced.graph.n(), 4);
    }

    #[test]
    fn k4_minus_edge_has_one_twin_pair() {
        // K4 minus edge {0,3}: vertices 1 and 2 are adjacent to everything
        // (including each other) → true twins. 0 and 3 are false twins.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let classes = twin_classes(&g);
        assert!(classes.contains(&vec![1, 2]));
        assert!(classes.contains(&vec![0]));
        assert!(classes.contains(&vec![3]));
        let red = TwinReduction::compute(&g);
        assert_eq!(red.reduced.graph.n(), 3);
        assert_eq!(red.representative[2], 1);
    }

    #[test]
    fn mds_preserved_by_reduction() {
        // Paper §2: MDS(G⁻) = MDS(G). Check on several graphs.
        let graphs = vec![
            Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]),
            Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            // Two triangles joined by an edge.
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
        ];
        for g in &graphs {
            let red = TwinReduction::compute(g);
            let mds_g = exact_mds(g).len();
            let mds_r = exact_mds(&red.reduced.graph).len();
            assert_eq!(mds_g, mds_r, "MDS changed under twin reduction for {g:?}");
            // A reduced-graph optimum, in host indices, dominates the
            // original graph as it is: every dropped vertex is a true
            // twin of its kept representative.
            let sol_host = red.reduced.set_to_host(&exact_mds(&red.reduced.graph));
            assert!(is_dominating_set(g, &sol_host));
        }
    }

    #[test]
    fn quotient_is_twin_free() {
        let graphs = vec![
            Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ];
        for g in &graphs {
            let red = TwinReduction::compute(g);
            assert!(is_twin_free(&red.reduced.graph), "{g:?}");
        }
    }
}
