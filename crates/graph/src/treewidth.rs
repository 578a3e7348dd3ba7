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
//!
//! The elimination picks the vertex of least fill, ties to the least
//! index, and after each step re-scores only the vertices whose fill
//! can have changed, so on bounded-degree graphs it is near-linear:
//! about 0.34 ms for `strip(400)` (n = 800) and 1.7 ms for
//! `random_outerplanar(3000, 25, 1)` on a 2-core box.
//! [`min_fill_decomposition_capped`] gives up with `None` at the first
//! bag wider than its cap, which is how the exact engine sends a dense
//! component to branch and bound without eliminating all of it.
//! [`min_fill_decomposition_naive`], the quadratic rescan it replaced,
//! is kept as the test oracle of the order.

use crate::graph::{Graph, Vertex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// A tree decomposition: bags and tree edges over bag indices.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// A bag (by index) is unsorted, repeats a vertex, or names a
    /// vertex outside the graph.
    BadBag(usize),
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
        // Well-formed bags: strictly increasing and in range, which the
        // coverage checks below rely on.
        for (i, bag) in self.bags.iter().enumerate() {
            if bag.windows(2).any(|w| w[0] >= w[1]) || bag.last().is_some_and(|&v| v >= g.n()) {
                return Err(DecompositionError::BadBag(i));
            }
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
///
/// This is [`min_fill_decomposition_capped`] without a cap; see there
/// for the order and the cost.
pub fn min_fill_decomposition(g: &Graph) -> TreeDecomposition {
    min_fill_decomposition_capped(g, usize::MAX).expect("an uncapped elimination always completes")
}

/// Min-fill elimination that gives up on wide graphs: the
/// decomposition of [`min_fill_decomposition`] when its width is at
/// most `cap`, `None` otherwise. The elimination stops at the first
/// bag wider than `cap`, so a dense graph costs only the steps before
/// it.
///
/// The order is least fill first, then least index — the order of
/// [`min_fill_decomposition_naive`], which pins it in the tests.
/// Eliminating `v` changes the fill of `N(v)` (their neighbourhoods
/// change) and, when it adds fill edges, of `N(N(v))` (a new edge
/// `{a, b}` inside `N(v)` lowers the fill of every common neighbour of
/// `a` and `b`); only those vertices are re-scored, and a min-queue
/// keyed `(fill, index)` yields the next vertex. On bounded-degree
/// graphs that makes the elimination near-linear, where the naive
/// rescan of every live vertex per step is quadratic.
pub fn min_fill_decomposition_capped(g: &Graph, cap: usize) -> Option<TreeDecomposition> {
    let n = g.n();
    let mut fg = FillGraph {
        adj: (0..n).map(|v| g.neighbors(v).iter().map(|&u| u as Vertex).collect()).collect(),
        mark: vec![0; n],
        epoch: 0,
    };
    let mut fill: Vec<usize> = (0..n).map(|v| fg.fill(v)).collect();
    let mut queue: BinaryHeap<Reverse<(usize, Vertex)>> =
        fill.iter().enumerate().map(|(v, &f)| Reverse((f, v))).collect();
    let mut eliminated = vec![false; n];
    let mut order: Vec<Vertex> = Vec::with_capacity(n);
    let mut higher: Vec<Vec<Vertex>> = vec![Vec::new(); n];
    let mut rescore: Vec<Vertex> = Vec::new();

    while let Some(Reverse((f, v))) = queue.pop() {
        // Entries of eliminated or re-scored vertices are stale.
        if eliminated[v] || f != fill[v] {
            continue;
        }
        if fg.adj[v].len() > cap {
            return None;
        }
        let nb = fg.eliminate(v);
        eliminated[v] = true;
        rescore.clear();
        rescore.extend_from_slice(&nb);
        if f > 0 {
            for &a in &nb {
                rescore.extend_from_slice(&fg.adj[a]);
            }
            rescore.sort_unstable();
            rescore.dedup();
        }
        for &y in &rescore {
            let fy = fg.fill(y);
            if fy != fill[y] {
                fill[y] = fy;
                queue.push(Reverse((fy, y)));
            }
        }
        higher[v] = nb;
        order.push(v);
    }
    Some(assemble(&order, &higher))
}

/// The live fill graph of an elimination: sorted adjacency rows from
/// which eliminated vertices are removed, plus epoch marks for the
/// neighbourhood tests of [`FillGraph::fill`].
struct FillGraph {
    adj: Vec<Vec<Vertex>>,
    mark: Vec<usize>,
    epoch: usize,
}

impl FillGraph {
    /// Fill of `y`: the non-adjacent pairs among its live neighbours.
    fn fill(&mut self, y: Vertex) -> usize {
        self.epoch += 1;
        let nb = &self.adj[y];
        for &a in nb {
            self.mark[a] = self.epoch;
        }
        // Each edge inside N(y) is seen from both ends.
        let linked: usize = nb
            .iter()
            .map(|&a| self.adj[a].iter().filter(|&&b| self.mark[b] == self.epoch).count())
            .sum();
        nb.len() * nb.len().saturating_sub(1) / 2 - linked / 2
    }

    /// Eliminates `v`: drops it from its neighbours' rows, makes its
    /// neighbourhood a clique, and returns that neighbourhood.
    fn eliminate(&mut self, v: Vertex) -> Vec<Vertex> {
        let nb = std::mem::take(&mut self.adj[v]);
        for &a in &nb {
            let row = &mut self.adj[a];
            row.retain(|&u| u != v);
            row.extend(nb.iter().copied().filter(|&b| b != a));
            row.sort_unstable();
            row.dedup();
        }
        nb
    }
}

/// The quadratic min-fill elimination: every step re-scores every live
/// vertex over `HashSet` adjacency. Kept as the test oracle of
/// [`min_fill_decomposition`], which must return the same bags and tree
/// edges; no production code calls it.
pub fn min_fill_decomposition_naive(g: &Graph) -> TreeDecomposition {
    let n = g.n();
    if n == 0 {
        return TreeDecomposition { bags: vec![], edges: vec![] };
    }
    // Working fill graph as adjacency sets.
    let mut adj: Vec<HashSet<Vertex>> =
        (0..n).map(|v| g.neighbors(v).iter().map(|&u| u as Vertex).collect()).collect();
    let mut eliminated = vec![false; n];
    let mut order: Vec<Vertex> = Vec::with_capacity(n);
    let mut higher: Vec<Vec<Vertex>> = vec![Vec::new(); n];

    for _ in 0..n {
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
        order.push(v);
    }
    assemble(&order, &higher)
}

/// The decomposition of an elimination `order`, where `higher[v]` is
/// `v`'s live neighbourhood when it was eliminated.
fn assemble(order: &[Vertex], higher: &[Vec<Vertex>]) -> TreeDecomposition {
    let n = order.len();
    let mut position = vec![usize::MAX; n];
    for (step, &v) in order.iter().enumerate() {
        position[v] = step;
    }
    // Bags: bag(v) = {v} ∪ higher(v); tree edge to the bag of the
    // earliest-eliminated higher neighbor.
    let mut bags: Vec<Vec<Vertex>> = Vec::with_capacity(n);
    let mut bag_of = vec![usize::MAX; n];
    for &v in order {
        let mut bag = higher[v].clone();
        bag.push(v);
        bag.sort_unstable();
        bag_of[v] = bags.len();
        bags.push(bag);
    }
    let mut edges = Vec::new();
    for &v in order {
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
    fn out_of_range_bag_is_reported() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let bad = TreeDecomposition { bags: vec![vec![0, 1], vec![1, 2, 3]], edges: vec![(0, 1)] };
        assert_eq!(bad.validate(&g), Err(DecompositionError::BadBag(1)));
    }

    #[test]
    fn unsorted_bag_is_reported() {
        // Edge coverage binary-searches the bags: an unsorted bag
        // would make the covered edge {0, 1} look missing.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let bad = TreeDecomposition { bags: vec![vec![1, 0], vec![1, 2]], edges: vec![(0, 1)] };
        assert_eq!(bad.validate(&g), Err(DecompositionError::BadBag(0)));
    }

    #[test]
    fn duplicate_in_bag_is_reported() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let bad = TreeDecomposition { bags: vec![vec![0, 1], vec![1, 2, 2]], edges: vec![(0, 1)] };
        assert_eq!(bad.validate(&g), Err(DecompositionError::BadBag(1)));
    }

    fn grid(side: usize) -> Graph {
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    edges.push((v, v + 1));
                }
                if y + 1 < side {
                    edges.push((v, v + side));
                }
            }
        }
        Graph::from_edges(side * side, &edges)
    }

    #[test]
    fn capped_elimination_gives_up_on_a_wide_grid() {
        // A 30×30 grid has treewidth 30; the order itself is pinned
        // against the naive oracle in `tests/exact_differential.rs`.
        assert!(min_fill_decomposition_capped(&grid(30), 5).is_none());
        assert_eq!(
            min_fill_decomposition_capped(&grid(3), 3),
            Some(min_fill_decomposition(&grid(3)))
        );
    }

    #[test]
    fn grid_width_grows_with_side() {
        // Negative control: k×k grids have treewidth k; the heuristic
        // must report a growing width (grids contain big K_{2,t} minors,
        // matching the paper's scope boundary).
        let w3 = check(&grid(3)).width();
        assert!(w3 >= 3, "3x3 grid width {w3}");
    }
}
