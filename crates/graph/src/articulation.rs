//! Articulation points (cut vertices) and bridges, via an iterative
//! Tarjan lowpoint DFS (iterative so million-vertex paths cannot blow the
//! stack — local 1-cut detection runs this on every ball).

use crate::graph::{Graph, Vertex};
use crate::scratch::SubsetScratch;

/// Result of the lowpoint DFS: articulation points and bridges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutStructure {
    /// `true` for every articulation point (1-cut vertex).
    pub is_articulation: Vec<bool>,
    /// All bridges `(u, v)` with `u < v`, sorted.
    pub bridges: Vec<(Vertex, Vertex)>,
}

/// Computes articulation points and bridges of `g` (over all components).
pub fn cut_structure(g: &Graph) -> CutStructure {
    let n = g.n();
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut is_art = vec![false; n];
    let mut bridges = Vec::new();
    let mut timer: u32 = 0;

    // Iterative DFS frame: (vertex, neighbor index).
    let mut stack: Vec<(Vertex, usize)> = Vec::new();
    for root in g.vertices() {
        if disc[root] != u32::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0usize;
        stack.push((root, 0));
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < g.degree(u) {
                let v = g.neighbors(u)[*i] as Vertex;
                *i += 1;
                if disc[v] == u32::MAX {
                    parent[v] = u;
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    if u == root {
                        root_children += 1;
                    }
                    stack.push((v, 0));
                } else if v != parent[u] {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if low[u] >= disc[p] && p != root {
                        is_art[p] = true;
                    }
                    if low[u] > disc[p] {
                        bridges.push((p.min(u), p.max(u)));
                    }
                }
            }
        }
        if root_children >= 2 {
            is_art[root] = true;
        }
    }
    bridges.sort_unstable();
    CutStructure { is_articulation: is_art, bridges }
}

/// All articulation points, sorted.
pub fn articulation_points(g: &Graph) -> Vec<Vertex> {
    cut_structure(g)
        .is_articulation
        .iter()
        .enumerate()
        .filter_map(|(v, &a)| a.then_some(v))
        .collect()
}

/// Whether `v` is a cut vertex of `g`, i.e. `{v}` is a 1-cut: removing it
/// increases the number of connected components.
pub fn is_cut_vertex(g: &Graph, v: Vertex) -> bool {
    cut_structure(g).is_articulation[v]
}

/// Whether the graph is 2-connected: connected, `n ≥ 3`, and without
/// articulation points.
pub fn is_biconnected(g: &Graph) -> bool {
    g.n() >= 3 && crate::connectivity::is_connected(g) && articulation_points(g).is_empty()
}

/// Whether `v` is a cut vertex of the induced subgraph `G[set]`,
/// computed *without materializing the subgraph*: a vertex is an
/// articulation point iff two of its neighbors (within `set`) end up in
/// different components once it is removed, so one BFS over
/// `G[set] − {v}` from the first such neighbor decides it. `O(|set| +
/// |E(G[set])|)` time, zero allocations through the reusable
/// [`SubsetScratch`] — the arena variant behind the local-1-cut sweep of
/// the Algorithm 1 `CutEngine` (`set` is a ball `N^r[v]` there).
///
/// `set` must contain `v` and must be a list of distinct in-range
/// vertices; it does not need to be sorted. Agrees with
/// [`cut_structure`] on the extracted subgraph for every input
/// (property-tested against it).
pub fn is_cut_vertex_within(g: &Graph, ws: &mut SubsetScratch, set: &[Vertex], v: Vertex) -> bool {
    debug_assert!(set.contains(&v), "set must contain the candidate cut vertex");
    ws.begin(g.n(), set);
    let Some(&start) = g.neighbors(v).iter().find(|&&u| ws.contains(u as Vertex)) else {
        return false; // isolated within the subset: removal deletes its own component
    };
    let start = start as Vertex;
    // Flood G[set] − {v} from `start`; pre-visiting v walls it off.
    ws.visit(v);
    ws.visit(start);
    ws.queue.push(start);
    let mut head = 0;
    while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        for &w in g.neighbors(u) {
            let w = w as Vertex;
            if ws.contains(w) && ws.visit(w) {
                ws.queue.push(w);
            }
        }
    }
    g.neighbors(v).iter().any(|&u| ws.contains(u as Vertex) && !ws.visited(u as Vertex))
}

/// The vertices that separate the neighbors of an anchor `a` inside
/// `G[set] − a`, computed *without materializing the subgraph*: sets
/// `out[i]` (one flag per entry of `set`, `out` cleared first) iff
/// `set[i] ≠ a` and
///
/// * removing `v = set[i]` leaves the neighbors of `a` in `set ∖ {v}`
///   in two or more components of `G[set] − {a, v}`, or
/// * `a` is itself a cut vertex of `G[set]` (its neighbors in `set`
///   already span two components of `G[set] − a`) — then every vertex
///   of `set ∖ {a}` is marked.
///
/// One iterative lowpoint DFS (Tarjan's articulation-point technique)
/// over `G[set] − a`, rooted at a neighbor of `a`: a non-root vertex
/// separates exactly when some DFS child subtree with lowpoint ≥ its
/// discovery time contains a neighbor of `a` (the root's side holds
/// another), and the root when two of its child subtrees do.
/// `O(|set| + |E(G[set])|)` time, zero allocations through the reusable
/// [`SubsetScratch`].
///
/// `set` must contain `a` and must be a list of distinct in-range
/// vertices; it does not need to be sorted. This is the `CutEngine`'s
/// separator prefilter: with `set = N^r[u]`, a pair `{u, v}` can only be
/// a minimal 2-cut of `G[N^r[u] ∪ N^r[v]]` if `v` is marked for `u`.
pub fn neighbor_separators_within(
    g: &Graph,
    ws: &mut SubsetScratch,
    set: &[Vertex],
    a: Vertex,
    out: &mut Vec<bool>,
) {
    debug_assert!(set.contains(&a), "set must contain the anchor");
    out.clear();
    out.resize(set.len(), false);
    ws.begin(g.n(), set);
    ws.mark_adj_a(g.neighbors(a));
    let Some(&root) = g.neighbors(a).iter().find(|&&w| ws.contains(w as Vertex)) else {
        return; // no neighbor of `a` in the set: nothing to separate
    };
    let root = root as Vertex;
    // The DFS skips `a` by name, so it runs on `G[set] − a`.
    ws.visit(root);
    ws.disc[root] = 0;
    ws.low[root] = 0;
    let mut timer = 1u32;
    let mut root_branches = 0usize;
    ws.stack.push((root, 0, true));
    while let Some(top) = ws.stack.last_mut() {
        let v = top.0;
        if let Some(&w) = g.neighbors(v).get(top.1 as usize) {
            top.1 += 1;
            let w = w as Vertex;
            if w == a || !ws.contains(w) {
                continue;
            }
            if ws.visit(w) {
                ws.disc[w] = timer;
                ws.low[w] = timer;
                timer += 1;
                let anchored = ws.adj_a(w);
                ws.stack.push((w, 0, anchored));
            } else {
                // The tree edge to the parent lowers `low[v]` to
                // `disc[parent]` at most, which the `≥` test tolerates.
                ws.low[v] = ws.low[v].min(ws.disc[w]);
            }
            continue;
        }
        let (child, _, anchored) = ws.stack.pop().expect("the loop saw a top frame");
        // Fold the finished subtree into its parent.
        let Some(top) = ws.stack.last_mut() else { break };
        top.2 |= anchored;
        let p = top.0;
        ws.low[p] = ws.low[p].min(ws.low[child]);
        if anchored && ws.low[child] >= ws.disc[p] {
            if p == root {
                root_branches += 1;
            } else {
                ws.mark_sep(p);
            }
        }
    }
    if root_branches >= 2 {
        ws.mark_sep(root);
    }
    let a_is_cut =
        g.neighbors(a).iter().any(|&w| ws.contains(w as Vertex) && !ws.visited(w as Vertex));
    for (flag, &v) in out.iter_mut().zip(set) {
        *flag = v != a && (a_is_cut || ws.is_sep(v));
    }
}

/// Reference implementation of [`is_cut_vertex`] by explicit removal;
/// used by tests and kept public for cross-validation in property tests.
pub fn is_cut_vertex_naive(g: &Graph, v: Vertex) -> bool {
    if g.degree(v) == 0 {
        // Removing an isolated vertex merely deletes its own component.
        return false;
    }
    let before = crate::connectivity::num_components(g);
    let mut removed = vec![false; g.n()];
    removed[v] = true;
    let after = crate::connectivity::num_components_avoiding(g, &removed);
    after > before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn path_interior_vertices_are_cuts() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(5);
        b.path(&vs);
        let g = b.build();
        assert_eq!(articulation_points(&g), vec![1, 2, 3]);
        assert_eq!(cut_structure(&g).bridges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn cycle_has_no_cuts() {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(6);
        b.cycle(&vs);
        let g = b.build();
        assert!(articulation_points(&g).is_empty());
        assert!(cut_structure(&g).bridges.is_empty());
        assert!(is_biconnected(&g));
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // Bowtie: triangles {0,1,2} and {2,3,4} share vertex 2.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        assert_eq!(articulation_points(&g), vec![2]);
        assert!(cut_structure(&g).bridges.is_empty());
        assert!(!is_biconnected(&g));
    }

    #[test]
    fn star_center_is_cut() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(articulation_points(&g), vec![0]);
        assert!(is_cut_vertex(&g, 0));
        assert!(!is_cut_vertex(&g, 1));
        let cs = cut_structure(&g);
        assert_eq!(cs.bridges.len(), 4);
    }

    #[test]
    fn disconnected_graph_handled_per_component() {
        // Two paths: 0-1-2 and 3-4-5.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_eq!(articulation_points(&g), vec![1, 4]);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let n = 200_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(n, &edges);
        let aps = articulation_points(&g);
        assert_eq!(aps.len(), n - 2);
    }

    #[test]
    fn within_variant_matches_extracted_subgraph() {
        use crate::bfs;
        use crate::subgraph::InducedSubgraph;
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(12);
        b.cycle(&vs);
        let mut g = b.build();
        g.add_edge(0, 6);
        g.add_edge(3, 9);
        let mut ws = SubsetScratch::new();
        for v in g.vertices() {
            for r in [1u32, 2, 3, 100] {
                let ball = bfs::ball(&g, v, r);
                let sub = InducedSubgraph::new(&g, &ball);
                let local = sub.from_host(v).unwrap();
                let expect = cut_structure(&sub.graph).is_articulation[local];
                assert_eq!(is_cut_vertex_within(&g, &mut ws, &ball, v), expect, "v={v} r={r}");
            }
        }
        // Disconnected subsets and isolated-within-subset centers.
        let g2 = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert!(is_cut_vertex_within(&g2, &mut ws, &[0, 1, 2, 3, 4, 5], 1));
        assert!(is_cut_vertex_within(&g2, &mut ws, &[0, 1, 2, 3, 4, 5], 4));
        assert!(!is_cut_vertex_within(&g2, &mut ws, &[0, 1, 2, 3, 4, 5], 0));
        assert!(!is_cut_vertex_within(&g2, &mut ws, &[1, 3], 1));
    }

    /// [`neighbor_separators_within`] by its definition: extract
    /// `G[set]`, delete the anchor (and each candidate) explicitly, and
    /// count the components that hold a neighbor of the anchor.
    fn separators_by_removal(g: &Graph, set: &[Vertex], a: Vertex) -> Vec<bool> {
        use crate::subgraph::InducedSubgraph;
        let sub = InducedSubgraph::new(g, set);
        let h = &sub.graph;
        let la = sub.from_host(a).unwrap();
        let spread = |removed: &[Vertex]| {
            let mut mask = vec![false; h.n()];
            for &x in removed {
                mask[x] = true;
            }
            crate::connectivity::components_avoiding(h, &mask)
                .iter()
                .filter(|comp| comp.iter().any(|&w| h.has_edge(w, la)))
                .count()
        };
        let a_is_cut = spread(&[la]) >= 2;
        set.iter()
            .map(|&v| {
                let lv = sub.from_host(v).unwrap();
                lv != la && (a_is_cut || spread(&[la, lv]) >= 2)
            })
            .collect()
    }

    #[test]
    fn neighbor_separators_match_explicit_removal() {
        use crate::bfs;
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(12);
        b.cycle(&vs);
        let mut g = b.build();
        g.add_edge(0, 6);
        g.add_edge(3, 9);
        let mut ws = SubsetScratch::new();
        let mut out = Vec::new();
        for v in g.vertices() {
            for r in [1u32, 2, 3, 100] {
                let mut ball = bfs::ball(&g, v, r);
                neighbor_separators_within(&g, &mut ws, &ball, v, &mut out);
                assert_eq!(out, separators_by_removal(&g, &ball, v), "v={v} r={r}");
                // Order-free: the flags follow the entries of `set`.
                ball.reverse();
                neighbor_separators_within(&g, &mut ws, &ball, v, &mut out);
                assert_eq!(out, separators_by_removal(&g, &ball, v), "v={v} r={r} reversed");
            }
        }
    }

    #[test]
    fn neighbor_separators_edge_cases() {
        let mut ws = SubsetScratch::new();
        let mut out = Vec::new();
        let mut check = |g: &Graph, set: &[Vertex], a: Vertex, expect: &[bool]| {
            neighbor_separators_within(g, &mut ws, set, a, &mut out);
            assert_eq!(out, expect, "set={set:?} a={a}");
            assert_eq!(out, separators_by_removal(g, set, a), "set={set:?} a={a}");
        };
        // Disconnected set: C4 (anchor 0, neighbors 1 and 3 joined
        // through 2) beside the edge 4–5, which separates nothing.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        check(&g, &[0, 1, 2, 3, 4, 5], 0, &[false, false, true, false, false, false]);
        check(&g, &[0, 1, 2, 3, 4, 5], 4, &[false; 6]);
        // An anchor that is a cut vertex of its set marks everything.
        let g2 = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        check(&g2, &[0, 1, 2, 3, 4, 5], 1, &[true, false, true, true, true, true]);
        // Anchor with no neighbor in the set.
        check(&g, &[0, 2], 0, &[false, false]);
        check(&g, &[4], 4, &[false]);
        // A set that omits some of the anchor's neighbors: 0 sees 1, 2
        // and 3, joined in G − 0 by the path 1–4–2–5–3. With 3 left out,
        // only 4 still splits the neighbors that remain.
        let g3 = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (4, 2), (2, 5), (5, 3)]);
        check(&g3, &[0, 1, 2, 3, 4, 5], 0, &[false, false, true, false, true, true]);
        check(&g3, &[0, 1, 2, 4, 5], 0, &[false, false, false, true, false]);
    }

    #[test]
    fn matches_naive_on_small_graphs() {
        // Exhaustive-ish cross-check on a few structured graphs.
        let graphs = vec![
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]),
            Graph::from_edges(1, &[]),
        ];
        for g in &graphs {
            let cs = cut_structure(g);
            for v in g.vertices() {
                assert_eq!(cs.is_articulation[v], is_cut_vertex_naive(g, v), "vertex {v} in {g:?}");
            }
        }
    }
}
