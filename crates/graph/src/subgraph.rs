//! Induced subgraphs with vertex mappings back to the host graph.

use crate::graph::{Graph, Vertex};
use std::borrow::Cow;

/// Sentinel for "host vertex not in the subgraph" in the inverse map.
const ABSENT: usize = usize::MAX;

/// An induced subgraph `G[S]` together with the mapping between its own
/// vertex indices (`0..|S|`) and the host graph's vertices.
///
/// When `S` is every host vertex (a twin quotient of a twin-free
/// graph), the subgraph *is* the host: `graph` borrows it and both maps
/// are the identity, with nothing copied or stored. Every other `S`
/// builds `G[S]` and stores both maps.
///
/// # Example
///
/// ```
/// use lmds_graph::{Graph, InducedSubgraph};
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let sub = InducedSubgraph::new(&g, &[1, 2, 3]);
/// assert_eq!(sub.graph.n(), 3);
/// assert_eq!(sub.graph.m(), 2);
/// assert_eq!(sub.to_host(0), 1);
/// assert_eq!(sub.from_host(3), Some(2));
/// assert_eq!(sub.from_host(4), None);
///
/// // Every vertex: the host itself, borrowed.
/// let all = InducedSubgraph::new(&g, &[0, 1, 2, 3, 4]);
/// assert!(std::ptr::eq(&*all.graph, &g));
/// assert_eq!((all.to_host(3), all.from_host(3)), (3, Some(3)));
/// ```
#[derive(Debug, Clone)]
pub struct InducedSubgraph<'g> {
    /// The induced subgraph, on vertices `0..|S|`: the host graph
    /// itself, borrowed, when `S` is every host vertex.
    pub graph: Cow<'g, Graph>,
    /// The vertex maps, or `None` when both are the identity.
    maps: Option<HostMaps>,
}

/// The two vertex maps of a subgraph on a proper subset of its host.
#[derive(Debug, Clone)]
struct HostMaps {
    /// `to_host[i]` is the host vertex for subgraph vertex `i` (sorted
    /// ascending).
    to_host: Vec<Vertex>,
    /// Inverse mapping: `from_host[v]` is the subgraph index of host
    /// vertex `v`, or `ABSENT` (sentinel, half the footprint of an
    /// `Option` per entry — this array is sized to the *host* graph).
    from_host: Vec<usize>,
}

impl<'g> InducedSubgraph<'g> {
    /// Builds `G[S]`. `s` may be unsorted and contain duplicates; it is
    /// canonicalized first. A set that covers every vertex borrows `g`
    /// with identity maps instead of rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if a vertex of `s` is out of range for `g`.
    pub fn new(g: &'g Graph, s: &[Vertex]) -> Self {
        let verts = crate::canonical_set(s.to_vec());
        // Sorted and distinct, so n entries ending at n − 1 are exactly
        // 0..n; an out-of-range entry fails this and panics below.
        if verts.len() == g.n() && verts.last().is_some_and(|&v| v + 1 == g.n()) {
            return Self::whole(g);
        }
        let mut from_host = vec![ABSENT; g.n()];
        for (i, &v) in verts.iter().enumerate() {
            from_host[v] = i;
        }
        // Collect local arcs, then bulk-build the CSR store once —
        // incremental insertion would splice the flat arrays per edge.
        let mut arcs = Vec::new();
        for (i, &v) in verts.iter().enumerate() {
            for &u in g.neighbors(v) {
                let j = from_host[u as usize];
                if j != ABSENT && i < j {
                    arcs.push((i, j));
                }
            }
        }
        let sub = Graph::from_arcs_unchecked(verts.len(), &arcs);
        InducedSubgraph {
            graph: Cow::Owned(sub),
            maps: Some(HostMaps { to_host: verts, from_host }),
        }
    }

    /// `G[V(G)]`: `g` itself, borrowed, with identity maps.
    pub fn whole(g: &'g Graph) -> Self {
        InducedSubgraph { graph: Cow::Borrowed(g), maps: None }
    }

    /// Host vertex corresponding to subgraph vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn to_host(&self, i: Vertex) -> Vertex {
        match &self.maps {
            Some(maps) => maps.to_host[i],
            None => {
                assert!(i < self.graph.n(), "vertex {i} out of range for n={}", self.graph.n());
                i
            }
        }
    }

    /// Subgraph index of host vertex `v`, if `v` is in the subgraph.
    pub fn from_host(&self, v: Vertex) -> Option<Vertex> {
        match &self.maps {
            Some(maps) => maps.from_host.get(v).copied().filter(|&i| i != ABSENT),
            None => (v < self.graph.n()).then_some(v),
        }
    }

    /// The host vertices of the subgraph, sorted ascending (a fresh
    /// vector: identity maps store no list).
    pub fn host_vertices(&self) -> Vec<Vertex> {
        match &self.maps {
            Some(maps) => maps.to_host.clone(),
            None => self.graph.vertices().collect(),
        }
    }

    /// Maps a set of subgraph vertices to host vertices (sorted).
    pub fn set_to_host(&self, s: &[Vertex]) -> Vec<Vertex> {
        crate::canonical_set(s.iter().map(|&i| self.to_host(i)))
    }
}

/// `G[C]` for `C = order`, with local vertex `i` standing for host
/// vertex `order[i]`: the instance to build when the local numbering
/// carries meaning, such as a canonical identifier order. `order` holds
/// distinct host vertices in any order.
///
/// Unlike [`InducedSubgraph::new`], nothing here is sized to `g`:
/// membership is a binary search over `C` sorted by host vertex, so a
/// call costs O((|C| + Σ_{v∈C} deg v) · log |C|), which is what callers
/// looping over thousands of small components need. Adjacency rows come
/// out sorted, as in every [`Graph`].
///
/// ```
/// use lmds_graph::{induced_in_order, Graph};
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let local = induced_in_order(&g, &[3, 1, 2]);
/// assert_eq!(local.m(), 2);
/// assert!(local.has_edge(0, 2)); // 3–2
/// assert!(local.has_edge(1, 2)); // 1–2
/// ```
///
/// # Panics
///
/// Panics if a vertex of `order` is out of range for `g`.
pub fn induced_in_order(g: &Graph, order: &[Vertex]) -> Graph {
    let mut out = Graph::new(0);
    induce_in_order_into(g, order, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// [`induced_in_order`] into reused storage: rebuilds `out` as `G[order]`
/// in place, with `by_host` and `arcs` as its working buffers.
pub(crate) fn induce_in_order_into(
    g: &Graph,
    order: &[Vertex],
    by_host: &mut Vec<(Vertex, Vertex)>,
    arcs: &mut Vec<(Vertex, Vertex)>,
    out: &mut Graph,
) {
    by_host.clear();
    by_host.extend(order.iter().copied().zip(0..));
    by_host.sort_unstable();
    // Each edge once, from its smaller host endpoint; arc orientation
    // does not matter to the CSR build.
    arcs.clear();
    for (i, &v) in order.iter().enumerate() {
        for &w in g.neighbors(v) {
            let w = w as Vertex;
            if v < w {
                if let Ok(j) = by_host.binary_search_by_key(&w, |&(v, _)| v) {
                    arcs.push((i, by_host[j].1));
                }
            }
        }
    }
    out.refill_from_arcs_unchecked(order.len(), arcs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn induced_cycle_segment() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(6);
        b.cycle(&vs);
        let g = b.build();
        let sub = InducedSubgraph::new(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.n(), 3);
        assert_eq!(sub.graph.m(), 2); // the chord 0-2 does not exist in C6
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(1, 2));
        assert!(!sub.graph.has_edge(0, 2));
    }

    #[test]
    fn mapping_roundtrip() {
        let g = Graph::from_edges(6, &[(0, 3), (3, 5), (5, 1)]);
        let sub = InducedSubgraph::new(&g, &[5, 3, 1]);
        assert_eq!(sub.host_vertices(), &[1, 3, 5]);
        for i in 0..3 {
            assert_eq!(sub.from_host(sub.to_host(i)), Some(i));
        }
        assert_eq!(sub.set_to_host(&[0, 2]), vec![1, 5]);
    }

    #[test]
    fn duplicates_are_canonicalized() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let sub = InducedSubgraph::new(&g, &[1, 1, 0]);
        assert_eq!(sub.graph.n(), 2);
        assert!(sub.graph.has_edge(0, 1));
    }

    #[test]
    fn full_sets_copy_the_graph_with_identity_maps() {
        // A full set borrows the host rather than copying it.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let sub = InducedSubgraph::new(&g, &[4, 2, 0, 3, 1, 2]);
        assert!(matches!(sub.graph, Cow::Borrowed(h) if std::ptr::eq(h, &g)));
        assert_eq!(*sub.graph, g);
        assert_eq!(sub.host_vertices(), &[0, 1, 2, 3, 4]);
        assert!(g.vertices().all(|v| sub.from_host(v) == Some(v) && sub.to_host(v) == v));
        assert_eq!(sub.from_host(5), None);
        assert_eq!(sub.set_to_host(&[3, 1]), vec![1, 3]);
        // The rebuilding path, on a host with one more vertex, agrees.
        let host = Graph::from_edges(6, &g.edges().collect::<Vec<_>>());
        assert_eq!(*InducedSubgraph::new(&host, &[0, 1, 2, 3, 4]).graph, g);
        assert_eq!(InducedSubgraph::new(&Graph::new(0), &[]).graph.n(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_vertices_panic_even_at_full_length() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        InducedSubgraph::new(&g, &[0, 1, 5]);
    }

    #[test]
    fn induced_in_order_matches_induced_subgraph_and_has_edge() {
        // An 8-cycle with chords, a tail 7–8–…–11 and a chord into it;
        // a graph with two components; the empty graph.
        let mut edges: Vec<(Vertex, Vertex)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        edges.extend([(7, 8), (8, 9), (9, 10), (10, 11), (0, 4), (1, 5), (2, 6), (0, 11)]);
        let graphs = [
            Graph::from_edges(12, &edges),
            Graph::from_edges(6, &[(0, 3), (3, 5), (5, 1), (1, 0), (2, 4)]),
            Graph::new(0),
        ];
        for g in &graphs {
            let n = g.n();
            // Sorted orders: exactly `InducedSubgraph::new`'s graph.
            for s in [(0..n).collect::<Vec<_>>(), (0..n).step_by(2).collect(), (1..n).collect()] {
                assert_eq!(induced_in_order(g, &s), *InducedSubgraph::new(g, &s).graph);
            }
            // A permuted order: local i stands for order[i].
            let order: Vec<Vertex> = (0..n).rev().filter(|v| v % 3 != 1).collect();
            let local = induced_in_order(g, &order);
            assert_eq!(local.n(), order.len());
            for i in 0..order.len() {
                for j in 0..order.len() {
                    assert_eq!(local.has_edge(i, j), g.has_edge(order[i], order[j]), "{i} {j}");
                }
            }
        }
    }
}
