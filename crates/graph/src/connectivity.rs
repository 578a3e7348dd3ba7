//! Connected components and a union–find structure.
//!
//! The residual-component scan ([`components_avoiding`]) sits on the
//! Algorithm 1 hot path (Lemma 4.2's bounded-diameter pieces are its
//! output), so it comes with a [`Scratch`]-threaded variant that reuses
//! visited epochs across calls; both are built on a scan that writes
//! the components into caller-owned buffers, which the exact engine
//! reuses from one solve to the next.

use crate::graph::{Graph, Vertex};
use crate::scratch::{with_thread_scratch, Scratch};
use std::collections::VecDeque;

/// Assigns each vertex a component id in `0..k` (ids ordered by smallest
/// vertex in the component). Returns `(ids, k)`.
pub fn component_ids(g: &Graph) -> (Vec<usize>, usize) {
    let mut ids = vec![usize::MAX; g.n()];
    let mut k = 0;
    for s in g.vertices() {
        if ids[s] != usize::MAX {
            continue;
        }
        ids[s] = k;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as Vertex;
                if ids[v] == usize::MAX {
                    ids[v] = k;
                    q.push_back(v);
                }
            }
        }
        k += 1;
    }
    (ids, k)
}

/// The connected components as sorted vertex lists, ordered by smallest
/// vertex.
pub fn connected_components(g: &Graph) -> Vec<Vec<Vertex>> {
    let (ids, k) = component_ids(g);
    let mut comps = vec![Vec::new(); k];
    for v in g.vertices() {
        comps[ids[v]].push(v);
    }
    comps
}

/// Number of connected components.
pub fn num_components(g: &Graph) -> usize {
    component_ids(g).1
}

/// Whether the graph is connected. The empty graph is considered
/// connected (it has ≤ 1 components).
pub fn is_connected(g: &Graph) -> bool {
    num_components(g) <= 1
}

/// Components of `G − removed` as sorted vertex lists (vertices of the
/// original graph), ordered by smallest vertex. `removed` is a boolean
/// mask of length `n`. Runs through the thread-pooled [`Scratch`].
pub fn components_avoiding(g: &Graph, removed: &[bool]) -> Vec<Vec<Vertex>> {
    with_thread_scratch(|s| components_avoiding_with(g, s, removed))
}

/// [`components_avoiding`] through an explicit [`Scratch`] (its visited
/// epochs are reused; no per-call `n`-sized allocation).
pub fn components_avoiding_with(
    g: &Graph,
    scratch: &mut Scratch,
    removed: &[bool],
) -> Vec<Vec<Vertex>> {
    debug_assert_eq!(removed.len(), g.n());
    let (mut verts, mut ends) = (Vec::new(), Vec::new());
    components_into(g, scratch, |v| !removed[v], &mut verts, &mut ends);
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let comp = verts[start..end].to_vec();
            start = end;
            comp
        })
        .collect()
}

/// The components of the subgraph induced by the vertices `keep`
/// admits, written flat into reused buffers: component `k` is
/// `verts[ends[k − 1]..ends[k]]` (from 0 for `k = 0`), sorted, and the
/// components are ordered by smallest vertex, as in
/// [`components_avoiding`]. Both buffers are cleared first; the exact
/// engine splits every instance through this without allocating.
pub(crate) fn components_into(
    g: &Graph,
    scratch: &mut Scratch,
    keep: impl Fn(Vertex) -> bool,
    verts: &mut Vec<Vertex>,
    ends: &mut Vec<usize>,
) {
    scratch.begin(g.n());
    verts.clear();
    ends.clear();
    for s in g.vertices() {
        if !keep(s) || !scratch.visit(s) {
            continue;
        }
        // The component's own slice of `verts` is its BFS queue.
        let start = verts.len();
        verts.push(s);
        let mut head = start;
        while head < verts.len() {
            let u = verts[head];
            head += 1;
            for &v in g.neighbors(u) {
                let v = v as Vertex;
                if keep(v) && scratch.visit(v) {
                    verts.push(v);
                }
            }
        }
        verts[start..].sort_unstable();
        ends.push(verts.len());
    }
}

/// Number of components of `G − removed` (see [`components_avoiding`]).
pub fn num_components_avoiding(g: &Graph, removed: &[bool]) -> usize {
    components_avoiding(g, removed).len()
}

/// Disjoint-set union with path compression and union by size.
///
/// # Example
///
/// ```
/// use lmds_graph::connectivity::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n] }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_basic() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let comps = connected_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
        assert_eq!(num_components(&g), 3);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
    }

    #[test]
    fn components_avoiding_cut() {
        // Path 0-1-2-3-4: removing 2 yields {0,1} and {3,4}.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut removed = vec![false; 5];
        removed[2] = true;
        let comps = components_avoiding(&g, &removed);
        assert_eq!(comps, vec![vec![0, 1], vec![3, 4]]);
        assert_eq!(num_components_avoiding(&g, &removed), 2);
    }

    #[test]
    fn components_avoiding_nothing_matches_plain() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let removed = vec![false; 5];
        assert_eq!(components_avoiding(&g, &removed), connected_components(&g));
    }

    #[test]
    fn union_find_sizes() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(0), uf.find(2));
    }
}
