//! Articulation points (cut vertices) and bridges, via an iterative
//! Tarjan lowpoint DFS (iterative so million-vertex paths cannot blow the
//! stack), and the two per-ball kernels of the `CutEngine`, which never
//! materialize a subgraph:
//!
//! * [`is_cut_vertex_in_ball`] — whether a ball's center is a cut vertex
//!   of the ball: a flood of the ball minus its center that stops as soon
//!   as it has reached every neighbor of the center.
//! * [`neighbor_separators_within`] — one lowpoint DFS around an anchor:
//!   its separator flags, how many components of the set minus the
//!   anchor hold a neighbor of it, and, for a cut anchor, each such
//!   component's exits. It labels no vertex with its component.

use crate::graph::{Graph, Vertex};
use crate::scratch::{DfsFrame, Scratch, SubsetScratch};

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

/// Whether `u` is a cut vertex of its ball `G[N^r[u]]`, read off the
/// BFS from `u` alone that `dist` holds, run out to radius `r` or
/// further: a vertex `w` is in the ball iff `dist.distance(w) ≤ r`, so
/// there is no member list to build and no set to mark. A vertex is a
/// cut vertex iff its neighbors lie in two or more components once it is
/// removed, so one flood of `G[N^r[u]] − u` from `u`'s first neighbor
/// decides it, and the flood returns `false` as soon as it has reached
/// every neighbor of `u` (for `r ≥ 1` all of `N(u)` is in the ball), so
/// a vertex that is no cut vertex mostly stops well short of its whole
/// ball. `r = 0` answers `false`: the ball is `{u}`.
///
/// `O(|N^r[u]| + |E(G[N^r[u]])|)` time at worst, zero allocations
/// through the reusable [`SubsetScratch`] — the `X` test of the
/// Algorithm 1 `CutEngine`. Agrees with [`cut_structure`] on the
/// extracted ball for every input (property-tested against it).
pub fn is_cut_vertex_in_ball(
    g: &Graph,
    ws: &mut SubsetScratch,
    dist: &Scratch,
    r: u32,
    u: Vertex,
) -> bool {
    debug_assert_eq!(dist.distance(u), Some(0), "dist must hold a BFS from u");
    let neighbors = g.neighbors(u);
    if r == 0 || neighbors.len() < 2 {
        return false;
    }
    ws.begin(g.n(), &[]);
    ws.mark_adj_a(neighbors);
    // Flood G[N^r[u]] − u from the first neighbor; pre-visiting u walls
    // it off.
    let start = neighbors[0] as Vertex;
    ws.visit(u);
    ws.visit(start);
    ws.queue.push(start);
    let mut unreached = neighbors.len() - 1;
    let mut head = 0;
    while head < ws.queue.len() {
        let x = ws.queue[head];
        head += 1;
        for &w in g.neighbors(x) {
            let w = w as Vertex;
            if ws.visited(w) || dist.distance(w).is_none_or(|d| d > r) {
                continue;
            }
            ws.visit(w);
            if ws.adj_a(w) {
                unreached -= 1;
                if unreached == 0 {
                    return false;
                }
            }
            ws.queue.push(w);
        }
    }
    true
}

/// What [`neighbor_separators_within`] finds in `G[set] − a`: the
/// separator flags, how many components hold a neighbor of the anchor
/// `a`, and, when there are two or more (`a` is a cut vertex of
/// `G[set]`), each component's *exits*: its neighbors outside `set`. All
/// buffers are reused across calls.
///
/// Exits are recorded for cut vertices only. That is the one case the
/// `CutEngine`'s exit test reads, and it spares every other anchor
/// collecting and sorting them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnchorSplit {
    /// One flag per entry of `set`; see [`neighbor_separators_within`].
    pub separators: Vec<bool>,
    /// Component `k`'s exits are `exits[exit_bounds[k]..exit_bounds[k + 1]]`.
    /// Components are numbered in discovery order: component `k` holds
    /// the `k`-th neighbor of `a`, in adjacency order, that no earlier
    /// component holds.
    exit_bounds: Vec<usize>,
    exits: Vec<Vertex>,
    /// How many components of `G[set] − a` hold a neighbor of `a`.
    components: usize,
}

impl AnchorSplit {
    /// How many components of `G[set] − a` hold a neighbor of `a`.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Whether `a` is a cut vertex of `G[set]`: its neighbors lie in two
    /// or more components of `G[set] − a`.
    pub fn is_cut(&self) -> bool {
        self.component_count() >= 2
    }

    /// The exits of component `k`, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics unless `a` is a cut vertex of `G[set]` ([`AnchorSplit::is_cut`])
    /// and `k < component_count()`.
    pub fn exits(&self, k: usize) -> &[Vertex] {
        assert!(self.is_cut(), "exits are recorded for cut vertices only");
        &self.exits[self.exit_bounds[k]..self.exit_bounds[k + 1]]
    }

    /// Empties the split.
    fn reset(&mut self) {
        self.separators.clear();
        self.exit_bounds.clear();
        self.exit_bounds.push(0);
        self.exits.clear();
        self.components = 0;
    }

    /// Closes the component whose exits were pushed since the last
    /// bound: sorts and deduplicates them in place.
    fn close_component(&mut self) {
        let lo = *self.exit_bounds.last().expect("bounds start at 0");
        self.exits[lo..].sort_unstable();
        let mut end = lo;
        for i in lo..self.exits.len() {
            if end == lo || self.exits[i] != self.exits[end - 1] {
                self.exits[end] = self.exits[i];
                end += 1;
            }
        }
        self.exits.truncate(end);
        self.exit_bounds.push(end);
    }
}

/// Splits `G[set] − a` around an anchor `a`, computed *without
/// materializing the subgraph*. Fills `out` (see [`AnchorSplit`]):
///
/// * `out.separators[i]` is set iff `set[i] ≠ a` and either removing
///   `v = set[i]` leaves the neighbors of `a` in `set ∖ {v}` in two or
///   more components of `G[set] − {a, v}`, or `a` is itself a cut vertex
///   of `G[set]` (its neighbors in `set` already span two components of
///   `G[set] − a`) — then every vertex of `set ∖ {a}` is marked;
/// * [`AnchorSplit::component_count`] counts the components of
///   `G[set] − a` that hold a neighbor of `a`; [`AnchorSplit::is_cut`]
///   tells whether `a` is a cut vertex of `G[set]`, and if so each
///   component gets its sorted exits, its neighbors outside `set`.
///
/// One iterative lowpoint DFS (Tarjan's articulation-point technique)
/// over `G[set] − a`, rooted at a neighbor of `a` and restarted at every
/// neighbor of `a` it has not reached, one component per restart: in
/// the first component a non-root vertex separates exactly when some
/// DFS child subtree with lowpoint ≥ its discovery time contains a
/// neighbor of `a` (the root's side holds another), and the root when
/// two of its child subtrees do. The DFS skips the vertices outside
/// `set`, and those are the exits: once a restart shows that `a` is a
/// cut vertex, the first component's exits are collected by one scan,
/// and later components record theirs as the DFS meets them.
/// `O(|set| + |E(G[set])| + x log x)` time for `x` exit arcs, zero
/// allocations through the reusable [`SubsetScratch`] and `out`.
///
/// `set` must contain `a` and must be a list of distinct in-range
/// vertices; it does not need to be sorted. This is the `CutEngine`'s
/// pair prefilter: with `set = N^r[u]`, a pair `{u, v}` can only be a
/// minimal 2-cut of `G[N^r[u] ∪ N^r[v]]` if `v` is marked for `u`, and,
/// when `u` is a cut vertex of its ball, if `N^r[v]` holds an exit of
/// every component.
pub fn neighbor_separators_within(
    g: &Graph,
    ws: &mut SubsetScratch,
    set: &[Vertex],
    a: Vertex,
    out: &mut AnchorSplit,
) {
    debug_assert!(set.contains(&a), "set must contain the anchor");
    out.reset();
    ws.begin(g.n(), set);
    ws.mark_adj_a(g.neighbors(a));
    // Each frame walks its vertex's CSR row with a cursor of its own.
    let csr = g.csr();
    let heads = csr.neighbor_array();
    let frame = |v: Vertex, anchored: bool| {
        let (next, end) = csr.row_bounds(v);
        DfsFrame { v, next, end, anchored }
    };
    // The DFS skips `a` by name, so it runs on `G[set] − a`.
    let mut timer = 0u32;
    for &root in g.neighbors(a) {
        let root = root as Vertex;
        if !ws.contains(root) || ws.visited(root) {
            continue;
        }
        if out.components == 1 {
            // A second component: `a` is a cut vertex after all, and
            // everything visited so far is in the first one.
            for &x in set {
                if x != a && ws.visited(x) {
                    let outside = g.neighbors(x).iter().filter(|&&y| !ws.contains(y as Vertex));
                    out.exits.extend(outside.map(|&y| y as Vertex));
                }
            }
            out.close_component();
        }
        let record_exits = out.components > 0;
        ws.visit(root);
        out.components += 1;
        ws.disc[root] = timer;
        ws.low[root] = timer;
        timer += 1;
        let mut root_branches = 0usize;
        ws.stack.push(frame(root, true));
        // The top frame's row is walked with its cursor in a local, which
        // goes back into the frame only when a tree edge opens a child.
        'frames: while let Some(&DfsFrame { v, mut next, end, .. }) = ws.stack.last() {
            while next < end {
                let w = heads[next] as Vertex;
                next += 1;
                if w == a {
                    continue;
                }
                if !ws.contains(w) {
                    if record_exits {
                        out.exits.push(w);
                    }
                    continue;
                }
                if ws.visit(w) {
                    ws.disc[w] = timer;
                    ws.low[w] = timer;
                    timer += 1;
                    let anchored = ws.adj_a(w);
                    ws.stack.last_mut().expect("v's frame is on top").next = next;
                    ws.stack.push(frame(w, anchored));
                    continue 'frames;
                }
                // The tree edge to the parent lowers `low[v]` to
                // `disc[parent]` at most, which the `≥` test tolerates.
                ws.low[v] = ws.low[v].min(ws.disc[w]);
            }
            let DfsFrame { v: child, anchored, .. } =
                ws.stack.pop().expect("the loop saw a top frame");
            // Fold the finished subtree into its parent.
            let Some(top) = ws.stack.last_mut() else { break };
            top.anchored |= anchored;
            let p = top.v;
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
        if record_exits {
            out.close_component();
        }
    }
    let a_is_cut = out.is_cut();
    out.separators.extend(set.iter().map(|&v| v != a && (a_is_cut || ws.is_sep(v))));
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
        // Disconnected: two paths and an isolated vertex.
        let g2 = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (mut ws, mut dist, mut ball) = (SubsetScratch::new(), Scratch::new(), Vec::new());
        for g in [&g, &g2] {
            for v in g.vertices() {
                for r in [1u32, 2, 3, 4, 5, 6, 100] {
                    let sub = InducedSubgraph::new(g, &bfs::ball(g, v, r));
                    let local = sub.from_host(v).unwrap();
                    let expect = cut_structure(&sub.graph).is_articulation[local];
                    // Membership comes from the distances alone, so a BFS
                    // run past `r` must give the same answer.
                    for reach in [r, r + 2] {
                        bfs::ball_of_set_into(g, &mut dist, &[v], reach, &mut ball);
                        let got = is_cut_vertex_in_ball(g, &mut ws, &dist, r, v);
                        assert_eq!(got, expect, "v={v} r={r} reach={reach} {g:?}");
                    }
                }
                // Radius 0: the ball is the center alone.
                assert!(!is_cut_vertex_in_ball(g, &mut ws, &dist, 0, v));
            }
        }
        let cut_at = |ws: &mut SubsetScratch, dist: &mut Scratch, v: Vertex| {
            bfs::ball_of_set_into(&g2, dist, &[v], 100, &mut Vec::new());
            is_cut_vertex_in_ball(&g2, ws, dist, 100, v)
        };
        assert!(cut_at(&mut ws, &mut dist, 1));
        assert!(cut_at(&mut ws, &mut dist, 4));
        assert!(!cut_at(&mut ws, &mut dist, 0));
        assert!(!cut_at(&mut ws, &mut dist, 6), "isolated center");
    }

    /// [`neighbor_separators_within`] by its definition: extract
    /// `G[set]`, delete the anchor (and each candidate) explicitly, and
    /// keep the components that hold a neighbor of the anchor. Returns
    /// the separator flags, whether removing the anchor adds a component
    /// ([`is_cut_vertex_naive`]) and each component's exits.
    fn split_by_removal(
        g: &Graph,
        set: &[Vertex],
        a: Vertex,
    ) -> (Vec<bool>, bool, Vec<Vec<Vertex>>) {
        use crate::subgraph::InducedSubgraph;
        let sub = InducedSubgraph::new(g, set);
        let h = &sub.graph;
        let la = sub.from_host(a).unwrap();
        let anchored = |removed: &[Vertex]| -> Vec<Vec<Vertex>> {
            let mut mask = vec![false; h.n()];
            for &x in removed {
                mask[x] = true;
            }
            crate::connectivity::components_avoiding(h, &mask)
                .into_iter()
                .filter(|comp| comp.iter().any(|&w| h.has_edge(w, la)))
                .collect()
        };
        // Discovery order: by the smallest neighbor of the anchor inside
        // (local indices keep the host order).
        let mut comps = anchored(&[la]);
        comps.sort_by_key(|comp| comp.iter().copied().filter(|&w| h.has_edge(w, la)).min());
        let a_is_cut = is_cut_vertex_naive(h, la);
        let local = |v: Vertex| sub.from_host(v).unwrap();
        let flags = set
            .iter()
            .map(|&v| local(v) != la && (a_is_cut || anchored(&[la, local(v)]).len() >= 2))
            .collect();
        let exits = comps
            .iter()
            .map(|comp| {
                crate::canonical_set(
                    comp.iter()
                        .flat_map(|&x| g.neighbors(sub.to_host(x)))
                        .map(|&y| y as Vertex)
                        .filter(|&y| sub.from_host(y).is_none()),
                )
            })
            .collect();
        (flags, a_is_cut, exits)
    }

    /// Runs [`neighbor_separators_within`] and checks every output
    /// against [`split_by_removal`].
    fn check_split(g: &Graph, ws: &mut SubsetScratch, set: &[Vertex], a: Vertex) -> AnchorSplit {
        let mut out = AnchorSplit::default();
        neighbor_separators_within(g, ws, set, a, &mut out);
        let (flags, cut, exits) = split_by_removal(g, set, a);
        assert_eq!(out.separators, flags, "flags set={set:?} a={a}");
        assert_eq!(out.component_count(), exits.len(), "components set={set:?} a={a}");
        assert_eq!(out.is_cut(), cut, "cut set={set:?} a={a}");
        if out.is_cut() {
            for (k, expect) in exits.iter().enumerate() {
                assert_eq!(out.exits(k), expect, "exits of {k} set={set:?} a={a}");
            }
        }
        out
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
        for v in g.vertices() {
            for r in [1u32, 2, 3, 100] {
                let mut ball = bfs::ball(&g, v, r);
                check_split(&g, &mut ws, &ball, v);
                // Order-free: the outputs follow the entries of `set`.
                ball.reverse();
                check_split(&g, &mut ws, &ball, v);
            }
        }
    }

    #[test]
    fn neighbor_separators_match_explicit_removal_on_random_graphs() {
        // Random graphs whose DFS frames walk long rows (two hubs joined
        // to most vertices), short ones (an isolated vertex, a pendant,
        // the inner vertex of a pendant path: anchors of degree 0, 1 and
        // 2), and sets that are the whole graph.
        use crate::bfs;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut ws = SubsetScratch::new();
        for _ in 0..40 {
            let core = 8 + next(25) as usize;
            let mut edges = Vec::new();
            for _ in 0..next(2 * core as u64) {
                let (u, v) = (next(core as u64) as usize, next(core as u64) as usize);
                if u != v {
                    edges.push((u, v));
                }
            }
            for hub in [0, 1] {
                for v in 2..core {
                    if next(4) != 0 {
                        edges.push((hub, v));
                    }
                }
            }
            // core: isolated, core + 1 — core + 2 — 2: a pendant path.
            edges.extend([(core + 1, core + 2), (core + 2, 2)]);
            let g = Graph::from_edges(core + 3, &edges);
            let all: Vec<Vertex> = g.vertices().collect();
            for a in g.vertices() {
                for r in [1u32, 2, 100] {
                    let ball = bfs::ball(&g, a, r);
                    check_split(&g, &mut ws, &ball, a);
                }
                check_split(&g, &mut ws, &all, a);
            }
            let degrees = [core, core + 1, core + 2].map(|v| g.degree(v));
            assert_eq!(degrees, [0, 1, 2]);
        }
    }

    #[test]
    fn neighbor_separators_edge_cases() {
        let mut ws = SubsetScratch::new();
        let mut check = |g: &Graph, set: &[Vertex], a: Vertex, expect: &[bool]| {
            let out = check_split(g, &mut ws, set, a);
            assert_eq!(out.separators, expect, "set={set:?} a={a}");
            out
        };
        // Disconnected set: C4 (anchor 0, neighbors 1 and 3 joined
        // through 2) beside the edge 4–5, which separates nothing and
        // holds no neighbor of the anchor.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        let out = check(&g, &[0, 1, 2, 3, 4, 5], 0, &[false, false, true, false, false, false]);
        assert_eq!(out.component_count(), 1);
        assert!(!out.is_cut());
        check(&g, &[0, 1, 2, 3, 4, 5], 4, &[false; 6]);
        // An anchor that is a cut vertex of its set marks everything.
        let g2 = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        check(&g2, &[0, 1, 2, 3, 4, 5], 1, &[true, false, true, true, true, true]);
        // Anchor with no neighbor in the set: no component at all.
        let out = check(&g, &[0, 2], 0, &[false, false]);
        assert_eq!(out.component_count(), 0);
        check(&g, &[4], 4, &[false]);
        // A set that omits some of the anchor's neighbors: 0 sees 1, 2
        // and 3, joined in G − 0 by the path 1–4–2–5–3. With 3 left out,
        // only 4 still splits the neighbors that remain.
        let g3 = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (4, 2), (2, 5), (5, 3)]);
        check(&g3, &[0, 1, 2, 3, 4, 5], 0, &[false, false, true, false, true, true]);
        check(&g3, &[0, 1, 2, 4, 5], 0, &[false, false, false, true, false]);
        // Leaving 4 out as well cuts 0: {1} exits to 4, {2, 5} to 3 and 4.
        let out = check(&g3, &[0, 1, 2, 5], 0, &[false, true, true, true]);
        assert_eq!(out.component_count(), 2);
        assert_eq!((out.exits(0), out.exits(1)), (&[4][..], &[3, 4][..]));
        // A ball with an exit-less component: on the path 0–…–5, the
        // ball N^1[1] = {0, 1, 2} splits at 1 into the leaf {0}, with no
        // exit, and {2}, which exits to 3.
        let p6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let out = check(&p6, &[0, 1, 2], 1, &[true, false, true]);
        assert!(out.is_cut());
        assert_eq!((out.exits(0), out.exits(1)), (&[][..], &[3][..]));
        // Two components may share an exit: the 4-cycle 1–2–3–4 around
        // the ball N^1[2] = {1, 2, 3} of its vertex 2.
        let c4 = Graph::from_edges(5, &[(1, 2), (2, 3), (3, 4), (4, 1), (0, 1)]);
        let out = check(&c4, &[1, 2, 3], 2, &[true, false, true]);
        assert_eq!((out.exits(0), out.exits(1)), (&[0, 4][..], &[4][..]));
    }

    #[test]
    #[should_panic(expected = "cut vertices only")]
    fn exits_are_not_recorded_for_non_cut_anchors() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut out = AnchorSplit::default();
        neighbor_separators_within(&g, &mut SubsetScratch::new(), &[0, 1, 2, 3], 0, &mut out);
        assert!(!out.is_cut());
        out.exits(0);
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
