//! Tree decompositions via the min-fill elimination heuristic.
//!
//! The paper's asymptotic-dimension step rests on "`K_{2,t}` is planar,
//! so `K_{2,t}`-minor-free graphs have bounded treewidth by the grid
//! minor theorem" (§4). This module makes that quantitative: it builds
//! tree decompositions of the workloads, validates them, and reports
//! widths (the E8/E13 experiments show the workloads' widths stay small
//! and independent of size).
//!
//! The exact engine's DP kernels ([`crate::exact`]) run on these
//! decompositions, for residual components that are large but narrow.

use crate::graph::{Graph, Vertex};
use std::collections::HashSet;

/// A tree decomposition: bags and tree edges over bag indices.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Bags, each a sorted vertex set.
    pub bags: Vec<Vec<Vertex>>,
    /// Tree edges (bag indices).
    pub edges: Vec<(usize, usize)>,
}

/// Violations reported by [`TreeDecomposition::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompositionError {
    /// A vertex appears in no bag.
    VertexMissing(Vertex),
    /// An edge has no bag containing both endpoints.
    EdgeMissing(Vertex, Vertex),
    /// A vertex's bags do not form a connected subtree.
    NotConnected(Vertex),
    /// The bag graph is not a tree (`#edges != #bags − 1` or cyclic).
    NotATree,
}

impl TreeDecomposition {
    /// The width: `max |bag| − 1` (0 for the empty decomposition).
    pub fn width(&self) -> usize {
        self.bags.iter().map(Vec::len).max().unwrap_or(1).saturating_sub(1)
    }

    /// Full validation of the three tree-decomposition axioms plus
    /// treeness.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(&self, g: &Graph) -> Result<(), DecompositionError> {
        let b = self.bags.len();
        if b == 0 {
            return if g.n() == 0 { Ok(()) } else { Err(DecompositionError::VertexMissing(0)) };
        }
        // Treeness.
        if self.edges.len() != b - 1 {
            return Err(DecompositionError::NotATree);
        }
        let mut uf = crate::connectivity::UnionFind::new(b);
        for &(x, y) in &self.edges {
            if x >= b || y >= b || !uf.union(x, y) {
                return Err(DecompositionError::NotATree);
            }
        }
        // Vertex coverage + connectivity of occurrences.
        let mut occurs: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
        for (i, bag) in self.bags.iter().enumerate() {
            for &v in bag {
                occurs[v].push(i);
            }
        }
        // Adjacency of the bag tree.
        let mut tadj: Vec<Vec<usize>> = vec![Vec::new(); b];
        for &(x, y) in &self.edges {
            tadj[x].push(y);
            tadj[y].push(x);
        }
        for v in g.vertices() {
            if occurs[v].is_empty() {
                return Err(DecompositionError::VertexMissing(v));
            }
            // BFS within bags containing v.
            let inset: HashSet<usize> = occurs[v].iter().copied().collect();
            let mut seen = HashSet::new();
            let mut stack = vec![occurs[v][0]];
            seen.insert(occurs[v][0]);
            while let Some(x) = stack.pop() {
                for &y in &tadj[x] {
                    if inset.contains(&y) && seen.insert(y) {
                        stack.push(y);
                    }
                }
            }
            if seen.len() != inset.len() {
                return Err(DecompositionError::NotConnected(v));
            }
        }
        // Edge coverage.
        for (u, v) in g.edges() {
            let ok = self
                .bags
                .iter()
                .any(|bag| bag.binary_search(&u).is_ok() && bag.binary_search(&v).is_ok());
            if !ok {
                return Err(DecompositionError::EdgeMissing(u, v));
            }
        }
        Ok(())
    }
}

/// Builds a tree decomposition by min-fill elimination. Always valid;
/// width is a heuristic upper bound on the true treewidth (exact on
/// chordal graphs and most of the small structured workloads here).
pub fn min_fill_decomposition(g: &Graph) -> TreeDecomposition {
    let n = g.n();
    if n == 0 {
        return TreeDecomposition { bags: vec![], edges: vec![] };
    }
    // Working fill graph as adjacency sets.
    let mut adj: Vec<HashSet<Vertex>> =
        (0..n).map(|v| g.neighbors(v).iter().map(|&u| u as Vertex).collect()).collect();
    let mut eliminated = vec![false; n];
    let mut order: Vec<Vertex> = Vec::with_capacity(n);
    let mut position = vec![usize::MAX; n];
    let mut higher: Vec<Vec<Vertex>> = vec![Vec::new(); n];

    for step in 0..n {
        // Pick the non-eliminated vertex with minimum fill.
        let mut best = usize::MAX;
        let mut best_fill = usize::MAX;
        for v in 0..n {
            if eliminated[v] {
                continue;
            }
            let nb: Vec<Vertex> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            let mut fill = 0;
            for (i, &a) in nb.iter().enumerate() {
                for &b in &nb[i + 1..] {
                    if !adj[a].contains(&b) {
                        fill += 1;
                    }
                }
            }
            if fill < best_fill || (fill == best_fill && v < best) {
                best = v;
                best_fill = fill;
            }
        }
        let v = best;
        let nb: Vec<Vertex> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        // Make the neighborhood a clique.
        for (i, &a) in nb.iter().enumerate() {
            for &b in &nb[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        higher[v] = nb;
        eliminated[v] = true;
        position[v] = step;
        order.push(v);
    }

    // Bags: bag(v) = {v} ∪ higher(v); tree edge to the bag of the
    // earliest-eliminated higher neighbor.
    let mut bags: Vec<Vec<Vertex>> = Vec::with_capacity(n);
    let mut bag_of = vec![usize::MAX; n];
    for &v in &order {
        let mut bag = higher[v].clone();
        bag.push(v);
        bag.sort_unstable();
        bag_of[v] = bags.len();
        bags.push(bag);
    }
    let mut edges = Vec::new();
    for &v in &order {
        if let Some(&u) = higher[v].iter().min_by_key(|&&u| position[u]) {
            edges.push((bag_of[v], bag_of[u]));
        }
    }
    // Components without higher neighbors start new subtrees; join all
    // subtrees into one tree by linking their roots (bags may be
    // disjoint — allowed: an edge between disjoint bags keeps all three
    // axioms intact).
    let mut uf = crate::connectivity::UnionFind::new(bags.len());
    for &(x, y) in &edges {
        uf.union(x, y);
    }
    let mut root: Option<usize> = None;
    for i in 0..bags.len() {
        if uf.find(i) == i {
            if let Some(r) = root {
                edges.push((r, i));
                uf.union(r, i);
            } else {
                root = Some(i);
            }
        }
    }
    TreeDecomposition { bags, edges }
}

/// Heuristic treewidth upper bound: width of the min-fill decomposition.
pub fn treewidth_upper_bound(g: &Graph) -> usize {
    min_fill_decomposition(g).width()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn check(g: &Graph) -> TreeDecomposition {
        let td = min_fill_decomposition(g);
        td.validate(g).unwrap_or_else(|e| panic!("invalid decomposition for {g:?}: {e:?}"));
        td
    }

    #[test]
    fn tree_has_width_one() {
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        assert_eq!(check(&g).width(), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(9);
        b.cycle(&vs);
        let g = b.build();
        assert_eq!(check(&g).width(), 2);
    }

    #[test]
    fn complete_graph_width() {
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(check(&g).width(), 4);
    }

    #[test]
    fn outerplanar_has_width_two() {
        // Maximal outerplanar graphs are 2-trees: treewidth exactly 2.
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (0, 3), (3, 5)],
        );
        assert_eq!(check(&g).width(), 2);
    }

    #[test]
    fn disconnected_graphs_are_joined() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let td = check(&g);
        assert_eq!(td.width(), 1);
        assert_eq!(td.edges.len(), td.bags.len() - 1);
    }

    #[test]
    fn empty_and_singleton() {
        let td = min_fill_decomposition(&Graph::new(0));
        assert!(td.validate(&Graph::new(0)).is_ok());
        let g1 = Graph::new(1);
        let td1 = check(&g1);
        assert_eq!(td1.width(), 0);
    }

    #[test]
    fn validation_catches_violations() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        // Missing vertex 2.
        let bad = TreeDecomposition { bags: vec![vec![0, 1]], edges: vec![] };
        assert_eq!(bad.validate(&g), Err(DecompositionError::VertexMissing(2)));
        // Missing edge (1,2).
        let bad = TreeDecomposition { bags: vec![vec![0, 1], vec![2]], edges: vec![(0, 1)] };
        assert_eq!(bad.validate(&g), Err(DecompositionError::EdgeMissing(1, 2)));
        // Disconnected occurrences of vertex 0.
        let bad = TreeDecomposition {
            bags: vec![vec![0, 1], vec![1, 2], vec![0]],
            edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(bad.validate(&g), Err(DecompositionError::NotConnected(0)));
        // Not a tree.
        let bad =
            TreeDecomposition { bags: vec![vec![0, 1], vec![1, 2]], edges: vec![(0, 1), (0, 1)] };
        assert_eq!(bad.validate(&g), Err(DecompositionError::NotATree));
    }

    #[test]
    fn grid_width_grows_with_side() {
        // Negative control: k×k grids have treewidth k; the heuristic
        // must report a growing width (grids contain big K_{2,t} minors,
        // matching the paper's scope boundary).
        let small = {
            let mut g = Graph::new(9);
            for y in 0..3 {
                for x in 0..3 {
                    let v = y * 3 + x;
                    if x + 1 < 3 {
                        g.add_edge(v, v + 1);
                    }
                    if y + 1 < 3 {
                        g.add_edge(v, v + 3);
                    }
                }
            }
            g
        };
        let w3 = check(&small).width();
        assert!(w3 >= 3, "3x3 grid width {w3}");
    }
}
