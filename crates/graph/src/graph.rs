//! The core undirected simple graph type.

use crate::csr::Csr;
use crate::errors::GraphError;

/// Index of a vertex in a [`Graph`].
///
/// Vertices are always `0..n`. LOCAL-model identifiers (arbitrary
/// `O(log n)`-bit labels) are a separate concept layered on top by the
/// `lmds-localsim` crate.
pub type Vertex = usize;

/// Maximum number of vertices a [`Graph`] can hold.
///
/// Adjacency rows are stored as `u32` (the compact-CSR scale layout),
/// so vertex indices must fit in 32 bits. Constructors validate the cap
/// *before* allocating anything proportional to `n`, so an absurd
/// requested size fails fast with
/// [`GraphError::TooManyVertices`] instead of attempting a huge
/// allocation.
pub const MAX_VERTICES: usize = u32::MAX as usize;

/// An undirected simple graph with sorted adjacency, stored as
/// compressed sparse rows ([`Csr`]).
///
/// Invariants maintained by all constructors and mutators:
/// * no self-loops, no parallel edges;
/// * every adjacency row is sorted ascending (so `has_edge` is a binary
///   search and iteration order is deterministic).
///
/// The sorted-adjacency API ([`Graph::neighbors`], [`Graph::degree`],
/// [`Graph::has_edge`], …) is a set of thin views over the CSR arrays:
/// `neighbors` returns a contiguous slice of the flat neighbor array and
/// `degree` is an offset subtraction. Build graphs in bulk
/// ([`Graph::from_edges`], [`GraphBuilder::build`]) — incremental
/// [`Graph::add_edge`] splices the flat arrays and costs O(n + m) per
/// call (see the [`csr`](crate::csr) module docs).
///
/// # Example
///
/// ```
/// use lmds_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert!(g.has_edge(0, 3));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    csr: Csr,
    m: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`] (adjacency rows are
    /// `u32`-compact).
    pub fn new(n: usize) -> Self {
        assert!(n <= MAX_VERTICES, "vertex count {n} exceeds the u32-compact capacity");
        Graph { csr: Csr::new(n), m: 0 }
    }

    /// Creates a graph with `n` vertices and the given edges.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or an edge is a self-loop. Use
    /// [`Graph::try_from_edges`] for a fallible variant.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        Self::try_from_edges(n, edges.iter().copied()).expect("invalid edge list")
    }

    /// Fallible variant of [`Graph::from_edges`]. Validates every edge,
    /// then bulk-builds the CSR store in O(n + m) (duplicate edges are
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyVertices`] when `n` exceeds
    /// [`MAX_VERTICES`] (checked before any allocation), and
    /// [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`] on
    /// the first offending edge.
    pub fn try_from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (Vertex, Vertex)>,
    {
        if n > MAX_VERTICES {
            return Err(GraphError::TooManyVertices { n });
        }
        let iter = edges.into_iter();
        let mut arcs = Vec::with_capacity(iter.size_hint().0);
        for (u, v) in iter {
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if u >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            arcs.push((u, v));
        }
        let (csr, m) = Csr::from_arcs(n, &arcs);
        Ok(Graph { csr, m })
    }

    /// Builds a graph from an edge list that is already sorted and
    /// deduplicated, in O(n + m) with no sort: each edge `(u, v)` has
    /// `u < v`, and the list is strictly increasing. The LOCAL
    /// simulator's views hold their edges this way.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyVertices`] when `n` exceeds
    /// [`MAX_VERTICES`] (checked before any allocation), and on the first
    /// offending edge [`GraphError::SelfLoop`],
    /// [`GraphError::VertexOutOfRange`] or, when it is not above the
    /// edge before it or has `u > v`, [`GraphError::UnsortedEdges`].
    ///
    /// ```
    /// use lmds_graph::{Graph, GraphError};
    ///
    /// let g = Graph::try_from_sorted_edges(4, &[(0, 1), (0, 3), (1, 2)]).unwrap();
    /// assert_eq!(g, Graph::from_edges(4, &[(1, 2), (3, 0), (0, 1)]));
    /// let err = Graph::try_from_sorted_edges(4, &[(1, 2), (0, 3)]).unwrap_err();
    /// assert_eq!(err, GraphError::UnsortedEdges { index: 1 });
    /// ```
    pub fn try_from_sorted_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Result<Self, GraphError> {
        if n > MAX_VERTICES {
            return Err(GraphError::TooManyVertices { n });
        }
        for (index, &(u, v)) in edges.iter().enumerate() {
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if u >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if u > v || (index > 0 && edges[index - 1] >= (u, v)) {
                return Err(GraphError::UnsortedEdges { index });
            }
        }
        Ok(Graph { csr: Csr::from_sorted_edges(n, edges), m: edges.len() })
    }

    /// Bulk-builds from arcs already known to be valid (in-range, no
    /// self-loops) — the internal fast path for derived graphs whose
    /// edges come from an existing `Graph`.
    pub(crate) fn from_arcs_unchecked(n: usize, arcs: &[(Vertex, Vertex)]) -> Self {
        debug_assert!(n <= MAX_VERTICES);
        debug_assert!(arcs.iter().all(|&(u, v)| u != v && u < n && v < n));
        let (csr, m) = Csr::from_arcs(n, arcs);
        Graph { csr, m }
    }

    /// [`Graph::from_arcs_unchecked`] in place, reusing this graph's
    /// storage (see [`Csr::refill`]).
    pub(crate) fn refill_from_arcs_unchecked(&mut self, n: usize, arcs: &[(Vertex, Vertex)]) {
        debug_assert!(n <= MAX_VERTICES);
        debug_assert!(arcs.iter().all(|&(u, v)| u != v && u < n && v < n));
        self.m = self.csr.refill(n, arcs);
    }

    /// Wraps pre-validated CSR parts — the zero-copy snapshot ingest
    /// path ([`crate::io::from_snapshot`]). The caller guarantees the
    /// full CSR contract (see [`Csr::from_parts_unchecked`]) and that
    /// `neighbors.len() == 2 * m`.
    pub(crate) fn from_csr_parts_unchecked(
        offsets: Vec<usize>,
        neighbors: Vec<u32>,
        m: usize,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), 2 * m);
        Graph { csr: Csr::from_parts_unchecked(offsets, neighbors), m }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.csr.n()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n() == 0
    }

    /// Read access to the CSR backing store (flat offsets/neighbors).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Adds a new isolated vertex and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds [`MAX_VERTICES`] vertices.
    pub fn add_vertex(&mut self) -> Vertex {
        assert!(self.n() < MAX_VERTICES, "vertex count would exceed the u32-compact capacity");
        self.csr.push_vertex()
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge was
    /// new, `false` if it already existed.
    ///
    /// O(n + m) per call — the CSR rows are spliced in place. Prefer the
    /// bulk constructors for anything bigger than incremental repairs.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        self.try_add_edge(u, v).expect("invalid edge")
    }

    /// Fallible variant of [`Graph::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::VertexOutOfRange`] if an endpoint is out of range.
    pub fn try_add_edge(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        let n = self.n();
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if self.csr.insert_arc(u, v) {
            self.csr.insert_arc(v, u);
            self.m += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Removes the edge `{u, v}` if present. Returns `true` if removed.
    /// O(n + m) per call (row splice).
    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if u >= self.n() || v >= self.n() || u == v {
            return false;
        }
        if self.csr.remove_arc(u, v) {
            self.csr.remove_arc(v, u);
            self.m -= 1;
            true
        } else {
            false
        }
    }

    /// The degree of `v`, in O(1) (CSR offset subtraction).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: Vertex) -> usize {
        self.csr.degree(v)
    }

    /// The (sorted) open neighborhood of `v`, as a contiguous slice of
    /// the `u32`-compact CSR neighbor array. Widening an element back
    /// to a [`Vertex`] index is a lossless `as usize`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: Vertex) -> &[u32] {
        self.csr.row(v)
    }

    /// The closed neighborhood `N[v]` as a sorted vector.
    pub fn closed_neighborhood(&self, v: Vertex) -> Vec<Vertex> {
        let row = self.csr.row(v);
        let mut out = Vec::with_capacity(row.len() + 1);
        let split = row.partition_point(|&u| (u as usize) < v);
        out.extend(row[..split].iter().map(|&u| u as Vertex));
        out.push(v);
        out.extend(row[split..].iter().map(|&u| u as Vertex));
        out
    }

    /// Whether `N[v] ⊆ N[u]` (closed neighborhoods), without
    /// allocating: a sorted two-pointer walk over the CSR rows with `v`
    /// and `u` merged in virtually. This is the `γ(v) ≤ 1` test behind
    /// the paper's `D₂` set (Theorem 4.4).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn closed_neighborhood_subset(&self, v: Vertex, u: Vertex) -> bool {
        // Every x ∈ N[v] must satisfy x == u or x ∈ N(u). All values
        // compared are in-range row entries, so the u32 casts are exact.
        let (u32_, v32) = (u as u32, v as u32);
        let row_u = self.csr.row(u);
        let mut iu = 0usize;
        let mut check = |x: u32| -> bool {
            if x == u32_ {
                return true;
            }
            while iu < row_u.len() && row_u[iu] < x {
                iu += 1;
            }
            iu < row_u.len() && row_u[iu] == x
        };
        let row_v = self.csr.row(v);
        let split = row_v.partition_point(|&x| x < v32);
        row_v[..split].iter().all(|&x| check(x))
            && check(v32)
            && row_v[split..].iter().all(|&x| check(x))
    }

    /// Whether the edge `{u, v}` exists. Out-of-range arguments yield
    /// `false`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        u < self.n() && v < self.n() && self.csr.has_arc(u, v)
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<Vertex> {
        0..self.n()
    }

    /// Iterator over all edges as `(u, v)` with `u < v`, in lexicographic
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices().flat_map(move |u| {
            self.csr
                .row(u)
                .iter()
                .map(|&v| v as Vertex)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Returns `true` if `u` and `v` are *true twins*, i.e.
    /// `N[u] == N[v]` (which requires `uv ∈ E`).
    pub fn are_true_twins(&self, u: Vertex, v: Vertex) -> bool {
        if u == v || !self.has_edge(u, v) {
            return false;
        }
        // N[u] == N[v]  ⟺  N(u) \ {v} == N(v) \ {u}.
        if self.degree(u) != self.degree(v) {
            return false;
        }
        let mut iu = self.csr.row(u).iter().filter(|&&x| x as Vertex != v);
        let mut iv = self.csr.row(v).iter().filter(|&&x| x as Vertex != u);
        loop {
            match (iu.next(), iv.next()) {
                (None, None) => return true,
                (Some(a), Some(b)) if a == b => continue,
                _ => return false,
            }
        }
    }

    /// Builds the disjoint union of `self` and `other`; vertices of
    /// `other` are shifted by `self.n()`. Returns the shift offset.
    ///
    /// # Panics
    ///
    /// Panics if the combined vertex count exceeds [`MAX_VERTICES`].
    pub fn disjoint_union(&mut self, other: &Graph) -> usize {
        assert!(
            other.n() <= MAX_VERTICES - self.n(),
            "union vertex count would exceed the u32-compact capacity"
        );
        let offset = self.n();
        self.csr.append_shifted(&other.csr, offset);
        self.m += other.m;
        offset
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())?;
        if self.n() <= 16 {
            write!(f, " edges={:?}", self.edges().collect::<Vec<_>>())?;
        }
        Ok(())
    }
}

/// Incremental builder that grows the vertex set on demand.
///
/// Useful for generators that discover vertices as they emit edges.
///
/// # Example
///
/// ```
/// use lmds_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let u = b.fresh_vertex();
/// let v = b.fresh_vertex();
/// b.edge(u, v);
/// let g = b.build();
/// assert_eq!(g.n(), 2);
/// assert!(g.has_edge(0, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized with `n` vertices.
    pub fn with_vertices(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Allocates and returns a fresh vertex.
    pub fn fresh_vertex(&mut self) -> Vertex {
        self.n += 1;
        self.n - 1
    }

    /// Allocates `k` fresh vertices and returns them.
    pub fn fresh_vertices(&mut self, k: usize) -> Vec<Vertex> {
        (0..k).map(|_| self.fresh_vertex()).collect()
    }

    /// Records the edge `{u, v}`, growing the vertex set if needed.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`.
    pub fn edge(&mut self, u: Vertex, v: Vertex) -> &mut Self {
        assert_ne!(u, v, "self-loop in builder");
        self.n = self.n.max(u + 1).max(v + 1);
        self.edges.push((u, v));
        self
    }

    /// Records a path through the listed vertices.
    pub fn path(&mut self, verts: &[Vertex]) -> &mut Self {
        for w in verts.windows(2) {
            self.edge(w[0], w[1]);
        }
        self
    }

    /// Records a cycle through the listed vertices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 vertices are given.
    pub fn cycle(&mut self, verts: &[Vertex]) -> &mut Self {
        assert!(verts.len() >= 3, "cycle needs at least 3 vertices");
        self.path(verts);
        self.edge(verts[verts.len() - 1], verts[0]);
        self
    }

    /// Number of vertices allocated so far.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Finalizes the builder into a [`Graph`].
    pub fn build(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_empty());
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_edge_dedups_and_sorts() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(2, 0));
        assert!(!g.add_edge(0, 2));
        assert!(g.add_edge(2, 1));
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(3);
        assert_eq!(g.try_add_edge(1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = Graph::new(3);
        assert_eq!(g.try_add_edge(0, 9), Err(GraphError::VertexOutOfRange { vertex: 9, n: 3 }));
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.m(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn closed_neighborhood_is_sorted_and_contains_self() {
        let g = Graph::from_edges(5, &[(2, 0), (2, 4), (2, 3)]);
        assert_eq!(g.closed_neighborhood(2), vec![0, 2, 3, 4]);
        assert_eq!(g.closed_neighborhood(1), vec![1]);
        assert_eq!(g.closed_neighborhood(0), vec![0, 2]);
        // Self is the largest element.
        let g2 = Graph::from_edges(5, &[(4, 0), (4, 1)]);
        assert_eq!(g2.closed_neighborhood(4), vec![0, 1, 4]);
    }

    #[test]
    fn edges_are_lexicographic() {
        let g = Graph::from_edges(4, &[(3, 1), (0, 2), (0, 1)]);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn true_twins_triangle() {
        // In a triangle every pair is a pair of true twins.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(g.are_true_twins(0, 1));
        assert!(g.are_true_twins(1, 2));
        // In a path, endpoints are not twins (no edge / different N[·]).
        let p = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!p.are_true_twins(0, 2));
        assert!(!p.are_true_twins(0, 1));
    }

    #[test]
    fn closed_subset_matches_definition() {
        // Star: every leaf's N[·] is inside the center's, not vice versa.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        for leaf in 1..4 {
            assert!(g.closed_neighborhood_subset(leaf, 0));
            assert!(!g.closed_neighborhood_subset(0, leaf));
        }
        // Path: interior endpoints are incomparable; N[v] ⊆ N[v] always.
        let p = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.closed_neighborhood_subset(2, 2));
        assert!(p.closed_neighborhood_subset(0, 1));
        assert!(!p.closed_neighborhood_subset(1, 0));
        assert!(!p.closed_neighborhood_subset(1, 2));
        // Cross-check against the allocating definition on a few graphs.
        for g in [&g, &p, &Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])] {
            for v in g.vertices() {
                for u in g.vertices() {
                    let nv = g.closed_neighborhood(v);
                    let nu = g.closed_neighborhood(u);
                    let expect = nv.iter().all(|x| nu.binary_search(x).is_ok());
                    assert_eq!(g.closed_neighborhood_subset(v, u), expect, "{v} ⊆ {u}");
                }
            }
        }
    }

    #[test]
    fn true_twins_require_edge() {
        // Two vertices with the same open neighborhood but no edge are
        // *false* twins, not true twins.
        let g = Graph::from_edges(4, &[(0, 2), (1, 2), (0, 3), (1, 3)]);
        assert!(!g.are_true_twins(0, 1));
    }

    #[test]
    fn disjoint_union_shifts() {
        let mut g = Graph::from_edges(2, &[(0, 1)]);
        let h = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let off = g.disjoint_union(&h);
        assert_eq!(off, 2);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn builder_shapes() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(5);
        b.cycle(&vs);
        let g = b.build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 5);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }
}
