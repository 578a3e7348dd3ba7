//! Simple structural properties: degrees, regularity, forests,
//! degeneracy.

use crate::graph::{Graph, Vertex};

/// Maximum degree `Δ(G)`; 0 for the empty graph.
pub fn max_degree(g: &Graph) -> usize {
    g.vertices().map(|v| g.degree(v)).max().unwrap_or(0)
}

/// Minimum degree `δ(G)`; 0 for the empty graph.
pub fn min_degree(g: &Graph) -> usize {
    g.vertices().map(|v| g.degree(v)).min().unwrap_or(0)
}

/// Whether all degrees are equal (vacuously true when `n ≤ 1`).
pub fn is_regular(g: &Graph) -> bool {
    max_degree(g) == min_degree(g)
}

/// Whether the graph is acyclic (a forest): `m = n − #components`.
pub fn is_forest(g: &Graph) -> bool {
    g.m() + crate::connectivity::num_components(g) == g.n()
}

/// Whether the graph is a tree: connected and acyclic.
pub fn is_tree(g: &Graph) -> bool {
    g.n() > 0 && crate::connectivity::is_connected(g) && is_forest(g)
}

/// The degeneracy of the graph and a degeneracy ordering (repeatedly
/// remove a minimum-degree vertex).
pub fn degeneracy(g: &Graph) -> (usize, Vec<Vertex>) {
    let n = g.n();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0;
    for _ in 0..n {
        let v =
            (0..n).filter(|&v| !removed[v]).min_by_key(|&v| (deg[v], v)).expect("vertices remain");
        degeneracy = degeneracy.max(deg[v]);
        removed[v] = true;
        order.push(v);
        for &u in g.neighbors(v) {
            let u = u as Vertex;
            if !removed[u] {
                deg[u] -= 1;
            }
        }
    }
    (degeneracy, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn degrees() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(max_degree(&g), 3);
        assert_eq!(min_degree(&g), 1);
        assert!(!is_regular(&g));
    }

    #[test]
    fn regular_cycle() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(5);
        b.cycle(&vs);
        let g = b.build();
        assert!(is_regular(&g));
        assert!(!is_forest(&g));
    }

    #[test]
    fn forests_and_trees() {
        let t = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert!(is_tree(&t));
        assert!(is_forest(&t));
        let f = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(is_forest(&f));
        assert!(!is_tree(&f));
        let c = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(!is_forest(&c));
    }

    #[test]
    fn degeneracy_of_tree_is_one() {
        let t = Graph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        let (d, order) = degeneracy(&t);
        assert_eq!(d, 1);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn degeneracy_of_complete_graph() {
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(degeneracy(&g).0, 4);
    }
}
