//! The knowledge a vertex has after `k` rounds: its *view*.

use lmds_graph::{Graph, Vertex};

/// What a vertex knows after `rounds` rounds of LOCAL communication:
/// identifiers of vertices in `N^rounds[v]` and all edges incident to
/// `N^{rounds-1}[v]`.
///
/// The view speaks the language of *identifiers*, not host vertex
/// indices — algorithms defined on views cannot accidentally peek at
/// global structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalView {
    center: u64,
    rounds: u32,
    /// Known vertex ids, sorted.
    verts: Vec<u64>,
    /// Known edges (by id, smaller first), sorted.
    edges: Vec<(u64, u64)>,
}

impl LocalView {
    /// The round-0 view: the vertex knows only itself.
    pub fn initial(center: u64) -> Self {
        LocalView { center, rounds: 0, verts: vec![center], edges: Vec::new() }
    }

    /// Constructs a view directly, sorting and deduplicating its lists
    /// (used by [`crate::oracle_view`] and tests).
    pub fn from_parts(
        center: u64,
        rounds: u32,
        mut verts: Vec<u64>,
        mut edges: Vec<(u64, u64)>,
    ) -> Self {
        verts.sort_unstable();
        verts.dedup();
        for e in &mut edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        debug_assert!(verts.binary_search(&center).is_ok());
        LocalView { center, rounds, verts, edges }
    }

    /// A view from lists that are already sorted, deduplicated and
    /// normalized (smaller id first) — the order block knowledge lists
    /// them in.
    pub(crate) fn from_sorted(
        center: u64,
        rounds: u32,
        verts: Vec<u64>,
        edges: Vec<(u64, u64)>,
    ) -> Self {
        debug_assert!(verts.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.0 < e.1));
        debug_assert!(verts.binary_search(&center).is_ok());
        LocalView { center, rounds, verts, edges }
    }

    /// The identifier of the vertex owning this view.
    pub fn center_id(&self) -> u64 {
        self.center
    }

    /// Rounds of communication this view reflects.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The radius `r` such that the induced subgraph `G[N^r[v]]` is
    /// *certified complete* in this view: all its vertices and all edges
    /// between them are known. Equals `rounds − 1` (0 at round 0: the
    /// vertex trivially knows `G[{v}]`... only after it knows it has no
    /// incident edges — which it does not at round 0, hence the
    /// saturating subtraction).
    pub fn certified_radius(&self) -> u32 {
        self.rounds.saturating_sub(1)
    }

    /// Known vertex ids, sorted.
    pub fn vertex_ids(&self) -> &[u64] {
        &self.verts
    }

    /// Known edges (smaller id first), sorted.
    pub fn edge_ids(&self) -> &[(u64, u64)] {
        &self.edges
    }

    /// Whether `id` is a known vertex.
    pub fn contains_vertex(&self, id: u64) -> bool {
        self.verts.binary_search(&id).is_ok()
    }

    /// Whether the edge `{a, b}` is known.
    pub fn contains_edge(&self, a: u64, b: u64) -> bool {
        let e = (a.min(b), a.max(b));
        self.edges.binary_search(&e).is_ok()
    }

    /// Known neighbors of `id` (complete iff `id` is within the
    /// certified radius of the center).
    pub fn neighbors_of(&self, id: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for &(a, b) in &self.edges {
            if a == id {
                out.push(b);
            } else if b == id {
                out.push(a);
            }
        }
        out.sort_unstable();
        out
    }

    /// Merges another view into this one (set union). The result
    /// represents knowledge after receiving `other` in a message. Both
    /// lists are kept sorted and deduplicated, so each union is one
    /// linear merge pass. With [`LocalView::learn_edge`] per sender this
    /// is the naive flood that block knowledge is tested against.
    pub fn merge(&mut self, other: &LocalView) {
        union_sorted(&mut self.verts, &other.verts);
        union_sorted(&mut self.edges, &other.edges);
    }

    /// Records the edge `{a, b}` (used when a message arrives over a
    /// port, revealing the link itself).
    pub fn learn_edge(&mut self, a: u64, b: u64) {
        let e = (a.min(b), a.max(b));
        if let Err(pos) = self.edges.binary_search(&e) {
            self.edges.insert(pos, e);
        }
        for id in [a, b] {
            if let Err(pos) = self.verts.binary_search(&id) {
                self.verts.insert(pos, id);
            }
        }
    }

    /// Advances the round counter (after a communication round).
    pub fn advance_round(&mut self) {
        self.rounds += 1;
    }

    /// Materializes the known subgraph as a [`Graph`] over local indices,
    /// returning the id of each local vertex. The center is included;
    /// index lookup via binary search on the returned (sorted) id list.
    /// Local indices follow id order, so the edges stay sorted and the
    /// graph is built from them without sorting
    /// ([`Graph::try_from_sorted_edges`]).
    pub fn to_graph(&self) -> (Graph, Vec<u64>) {
        let ids = self.verts.clone();
        let index = |id: u64| ids.binary_search(&id).expect("edge endpoint known");
        let local_edges: Vec<(usize, usize)> =
            self.edges.iter().map(|&(a, b)| (index(a), index(b))).collect();
        let graph = Graph::try_from_sorted_edges(ids.len(), &local_edges)
            .expect("a view's edges are sorted, distinct and loop-free");
        (graph, ids)
    }

    /// The local index of the center in [`LocalView::to_graph`]'s output.
    pub fn center_index(&self) -> Vertex {
        self.verts.binary_search(&self.center).expect("center is known")
    }

    /// Message size in bits when this view is sent to a neighbor, with
    /// `id_bits` bits per identifier.
    pub fn size_bits(&self, id_bits: u32) -> u64 {
        (self.verts.len() as u64 + 2 * self.edges.len() as u64) * id_bits as u64
    }
}

/// Replaces `into` by the union of itself and `other`, both sorted and
/// deduplicated, in one merge pass.
fn union_sorted<T: Copy + Ord>(into: &mut Vec<T>, other: &[T]) {
    if other.is_empty() {
        return;
    }
    let a = into.as_slice();
    let mut out = Vec::with_capacity(a.len() + other.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < other.len() {
        match a[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(other[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&other[j..]);
    *into = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_equals_the_sort_based_union() {
        // Random overlapping views (ids drawn from a small range, so the
        // views share many vertices and edges) against the
        // concatenate-sort-dedup union: one `merge`, and one round of
        // the naive flood (`learn_edge` + `merge` per sender) from up to
        // four senders.
        let mut state = 0x5EEDu64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        fn sort_union(views: &[&LocalView], extra: &[(u64, u64)]) -> (Vec<u64>, Vec<(u64, u64)>) {
            let mut verts: Vec<u64> = views.iter().flat_map(|v| v.vertex_ids()).copied().collect();
            verts.sort_unstable();
            verts.dedup();
            let mut edges: Vec<(u64, u64)> =
                views.iter().flat_map(|v| v.edge_ids()).chain(extra).copied().collect();
            edges.sort_unstable();
            edges.dedup();
            (verts, edges)
        }
        for _ in 0..300 {
            let range = 2 + next(40);
            let senders = 1 + next(4);
            let mut mk = |center: u64| {
                let verts: Vec<u64> =
                    (0..next(range + 1)).map(|_| next(range)).chain([center]).collect();
                let edges: Vec<(u64, u64)> = (0..next(2 * range))
                    .map(|_| (next(range), next(range)))
                    .filter(|(a, b)| a != b)
                    .collect();
                LocalView::from_parts(center, 1, verts, edges)
            };
            let x = mk(0);
            let ys: Vec<LocalView> = (1..=senders).map(&mut mk).collect();

            let mut merged = x.clone();
            merged.merge(&ys[0]);
            let (verts, edges) = sort_union(&[&x, &ys[0]], &[]);
            assert_eq!(merged.vertex_ids(), verts.as_slice());
            assert_eq!(merged.edge_ids(), edges.as_slice());
            assert_eq!(merged.center_id(), 0);

            let mut looped = x.clone();
            for y in &ys {
                looped.learn_edge(0, y.center_id());
                looped.merge(y);
            }
            let inbox: Vec<&LocalView> = ys.iter().collect();
            let spokes: Vec<(u64, u64)> = (1..=senders).map(|c| (0, c)).collect();
            let (verts, edges) = sort_union(&[&[&x][..], &inbox].concat(), &spokes);
            assert_eq!(looped.vertex_ids(), verts.as_slice());
            assert_eq!(looped.edge_ids(), edges.as_slice());
        }
    }

    #[test]
    fn initial_view() {
        let v = LocalView::initial(7);
        assert_eq!(v.center_id(), 7);
        assert_eq!(v.rounds(), 0);
        assert_eq!(v.certified_radius(), 0);
        assert_eq!(v.vertex_ids(), &[7]);
        assert!(v.edge_ids().is_empty());
    }

    #[test]
    fn merge_and_learn() {
        let mut a = LocalView::initial(0);
        let b = LocalView::initial(1);
        a.learn_edge(0, 1);
        a.merge(&b);
        a.advance_round();
        assert_eq!(a.rounds(), 1);
        assert_eq!(a.vertex_ids(), &[0, 1]);
        assert!(a.contains_edge(1, 0));
        assert_eq!(a.neighbors_of(0), vec![1]);
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let mk = |edges: &[(u64, u64)]| {
            let mut v = LocalView::initial(0);
            for &(a, b) in edges {
                v.learn_edge(a, b);
            }
            v
        };
        let x = mk(&[(0, 1), (1, 2)]);
        let y = mk(&[(0, 3), (1, 2)]);
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy.vertex_ids(), yx.vertex_ids());
        assert_eq!(xy.edge_ids(), yx.edge_ids());
        let mut again = xy.clone();
        again.merge(&y);
        assert_eq!(again.edge_ids(), xy.edge_ids());
    }

    #[test]
    fn to_graph_roundtrip() {
        let v = LocalView::from_parts(5, 2, vec![5, 9, 3], vec![(9, 5), (3, 5)]);
        let (g, ids) = v.to_graph();
        assert_eq!(ids, vec![3, 5, 9]);
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(1, 2)); // 5-9
        assert!(g.has_edge(0, 1)); // 3-5
        assert!(!g.has_edge(0, 2));
        assert_eq!(v.center_index(), 1);
    }

    #[test]
    fn to_graph_matches_a_sorting_build() {
        // Views of random graphs: the sorted-edge build must equal the
        // build that sorts its rows, edge for edge.
        let mut state = 0xC0FFEEu64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..200 {
            let range = 2 + next(60);
            let verts: Vec<u64> =
                (0..next(range + 1)).map(|_| 3 * next(range)).chain([0]).collect();
            let k = verts.len() as u64;
            let edges: Vec<(u64, u64)> = (0..next(3 * range))
                .map(|_| (verts[next(k) as usize], verts[next(k) as usize]))
                .filter(|(a, b)| a != b)
                .collect();
            let view = LocalView::from_parts(0, 2, verts, edges);
            let (g, ids) = view.to_graph();
            assert_eq!(ids, view.vertex_ids());
            let index = |id: u64| ids.binary_search(&id).unwrap();
            let local: Vec<(usize, usize)> =
                view.edge_ids().iter().map(|&(a, b)| (index(a), index(b))).collect();
            assert_eq!(g, Graph::from_edges(ids.len(), &local));
            assert_eq!(g.m(), view.edge_ids().len());
        }
    }

    #[test]
    fn size_accounting() {
        let v = LocalView::from_parts(0, 1, vec![0, 1, 2], vec![(0, 1), (0, 2)]);
        assert_eq!(v.size_bits(10), (3 + 4) * 10);
    }
}
