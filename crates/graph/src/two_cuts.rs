//! Minimal 2-cuts (separation pairs) and the separation predicate.
//!
//! Following the paper (§2): *a `k`-cut of a graph `G` is a minimal
//! subset of `k` vertices whose removal increases the number of connected
//! components of `G`*. So a 2-cut `{u, v}` requires that neither `{u}`
//! nor `{v}` alone is a cut.

use crate::connectivity::UnionFind;
use crate::graph::{Graph, Vertex};
use crate::scratch::SubsetScratch;

/// Whether removing the set `s` disconnects two vertices that were
/// connected in `g` (i.e. `s` "separates" `g`).
///
/// This is the robust phrasing of "removal increases the number of
/// connected components": it is unaffected by components fully contained
/// in `s`.
pub fn separates(g: &Graph, s: &[Vertex]) -> bool {
    let mut removed = vec![false; g.n()];
    for &v in s {
        removed[v] = true;
    }
    // Union-find over G − s.
    let mut uf = UnionFind::new(g.n());
    for (u, v) in g.edges() {
        if !removed[u] && !removed[v] {
            uf.union(u, v);
        }
    }
    // s separates iff some removed vertex has neighbors in ≥ 2 distinct
    // components of G − s reachable from each other through s only.
    // Equivalently: two non-removed vertices adjacent to s that were
    // connected in G are no longer connected. Check pairs of neighbors of
    // the cut set.
    let mut boundary: Vec<Vertex> = Vec::new();
    for &c in s {
        for &x in g.neighbors(c) {
            let x = x as Vertex;
            if !removed[x] {
                boundary.push(x);
            }
        }
    }
    boundary.sort_unstable();
    boundary.dedup();
    if boundary.len() < 2 {
        return false;
    }
    // All boundary vertices were connected in G (they touch the connected
    // set s only if s itself is connected — which it need not be!). So we
    // must verify "connected in G" per pair. Compute components of G once.
    let (gids, _) = crate::connectivity::component_ids(g);
    let anchor = boundary[0];
    for &b in &boundary[1..] {
        if gids[b] == gids[anchor] && uf.find(b) != uf.find(anchor) {
            return true;
        }
        // Different G-components: compare within each; handled by grouping.
    }
    // Group boundary by G-component and check each group for a split.
    let mut groups: std::collections::HashMap<usize, Vec<Vertex>> =
        std::collections::HashMap::new();
    for &b in &boundary {
        groups.entry(gids[b]).or_default().push(b);
    }
    for group in groups.values() {
        let a = group[0];
        for &b in &group[1..] {
            if uf.find(a) != uf.find(b) {
                return true;
            }
        }
    }
    false
}

/// Whether `{v}` is a (minimal) 1-cut of `g`.
pub fn is_one_cut(g: &Graph, v: Vertex) -> bool {
    separates(g, &[v])
}

/// Whether `{u, v}` is a **minimal** 2-cut of `g`: removal separates,
/// and neither vertex alone separates.
pub fn is_minimal_two_cut(g: &Graph, u: Vertex, v: Vertex) -> bool {
    u != v && !separates(g, &[u]) && !separates(g, &[v]) && separates(g, &[u, v])
}

/// All minimal 2-cuts of `g`, as pairs `(u, v)` with `u < v`, sorted.
///
/// Quadratic in `n` with a union-find pass per pair; intended for the
/// small ball subgraphs used in local-cut detection and for tests.
pub fn minimal_two_cuts(g: &Graph) -> Vec<(Vertex, Vertex)> {
    let n = g.n();
    // Precompute which single vertices separate (articulation points).
    let arts = crate::articulation::cut_structure(g).is_articulation;
    let mut out = Vec::new();
    for u in 0..n {
        if arts[u] {
            continue;
        }
        for (v, &v_is_art) in arts.iter().enumerate().skip(u + 1) {
            if v_is_art {
                continue;
            }
            if separates(g, &[u, v]) {
                out.push((u, v));
            }
        }
    }
    out
}

/// Everything the local-cut predicates need to know about a candidate
/// pair `{a, b}` inside an induced subgraph `H = G[set]`, gathered in a
/// single component scan of `H − {a, b}` (see [`pair_profile_within`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairProfile {
    /// Number of connected components of `H − {a, b}`.
    pub components: usize,
    /// Components adjacent to `a` but not to `b`.
    pub only_a: usize,
    /// Components adjacent to `b` but not to `a`.
    pub only_b: usize,
    /// Components containing a vertex non-adjacent to `a`.
    pub witnesses_nonadj_a: usize,
    /// Components containing a vertex non-adjacent to `b`.
    pub witnesses_nonadj_b: usize,
}

impl PairProfile {
    /// Whether `{a, b}` is a **minimal** 2-cut of `H`, *assuming `H` is
    /// connected and contains the edge-or-path-connected pair `a, b`*:
    /// removal separates iff `H − {a, b}` falls into ≥ 2 pieces, and
    /// neither vertex alone separates iff no piece hangs off only one of
    /// them. Exactly [`is_minimal_two_cut`] on connected hosts
    /// (property-tested); meaningless if `H` is disconnected.
    pub fn is_minimal_two_cut(&self) -> bool {
        self.components >= 2 && self.only_a == 0 && self.only_b == 0
    }
}

/// Profiles the pair `{a, b}` inside `H = G[set]` without materializing
/// `H`: one BFS sweep over `H − {a, b}` (membership, anchor adjacency,
/// and visited flags all live in the reusable [`SubsetScratch`])
/// classifies every component by its attachment to `a`/`b` and counts
/// the paper's witness components (those containing a vertex
/// non-adjacent to an anchor — the §3.2 interestingness condition).
///
/// `O(|set| + |E(H)|)` time, zero allocations. `set` must be a list of
/// in-range vertices containing `a` and `b` (`a ≠ b`); it does not need
/// to be sorted, and it may list a vertex more than once (membership is
/// a mark, and each vertex is visited once), so the union of two balls
/// can be passed as the two lists back to back. This replaces the
/// former double extraction (`is_minimal_two_cut` on a fresh subgraph +
/// [`components_attached`] on a second copy) on the `CutEngine` hot
/// path.
pub fn pair_profile_within(
    g: &Graph,
    ws: &mut SubsetScratch,
    set: &[Vertex],
    a: Vertex,
    b: Vertex,
) -> PairProfile {
    debug_assert!(a != b, "a pair needs two distinct vertices");
    ws.begin(g.n(), set);
    ws.mark_adj_a(g.neighbors(a));
    ws.mark_adj_b(g.neighbors(b));
    // Wall off the anchors so the flood stays inside H − {a, b}.
    ws.visit(a);
    ws.visit(b);
    let mut profile = PairProfile::default();
    for &s in set {
        if s == a || s == b || !ws.visit(s) {
            continue;
        }
        let head0 = ws.queue.len();
        ws.queue.push(s);
        let mut head = head0;
        let (mut adj_a, mut adj_b, mut nonadj_a, mut nonadj_b) = (false, false, false, false);
        while head < ws.queue.len() {
            let u = ws.queue[head];
            head += 1;
            if ws.adj_a(u) {
                adj_a = true;
            } else {
                nonadj_a = true;
            }
            if ws.adj_b(u) {
                adj_b = true;
            } else {
                nonadj_b = true;
            }
            for &w in g.neighbors(u) {
                let w = w as Vertex;
                if ws.contains(w) && ws.visit(w) {
                    ws.queue.push(w);
                }
            }
        }
        profile.components += 1;
        if adj_a && !adj_b {
            profile.only_a += 1;
        }
        if adj_b && !adj_a {
            profile.only_b += 1;
        }
        if nonadj_a {
            profile.witnesses_nonadj_a += 1;
        }
        if nonadj_b {
            profile.witnesses_nonadj_b += 1;
        }
    }
    profile
}

/// The connected components of `G − {u, v}`, sorted lists of original
/// vertices, ordered by smallest vertex. These are the "components
/// attached to the cut" in the paper's terminology.
pub fn components_attached(g: &Graph, u: Vertex, v: Vertex) -> Vec<Vec<Vertex>> {
    let mut removed = vec![false; g.n()];
    removed[u] = true;
    removed[v] = true;
    crate::connectivity::components_avoiding(g, &removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn cycle_opposite_pairs_are_two_cuts() {
        let g = cycle(6);
        // Any non-adjacent pair of C6 is a minimal 2-cut.
        assert!(is_minimal_two_cut(&g, 0, 3));
        assert!(is_minimal_two_cut(&g, 0, 2));
        // Adjacent vertices do not separate a cycle.
        assert!(!is_minimal_two_cut(&g, 0, 1));
        let cuts = minimal_two_cuts(&g);
        assert_eq!(cuts.len(), 9); // C(6,2)=15 pairs − 6 adjacent.
    }

    #[test]
    fn path_has_no_minimal_two_cut_with_interior() {
        // On a path every interior vertex is already a 1-cut, so no pair
        // containing it is a *minimal* 2-cut.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_one_cut(&g, 1));
        assert!(!is_minimal_two_cut(&g, 1, 2));
        assert!(minimal_two_cuts(&g).is_empty());
    }

    #[test]
    fn theta_graph_separation_pair() {
        // Two vertices joined by three internally disjoint paths of
        // length 2: u=0, v=1, middles 2,3,4.
        let g = Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]);
        assert!(is_minimal_two_cut(&g, 0, 1));
        assert_eq!(components_attached(&g, 0, 1), vec![vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn complete_graph_has_no_cuts() {
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        assert!(minimal_two_cuts(&g).is_empty());
        for v in 0..5 {
            assert!(!is_one_cut(&g, v));
        }
    }

    #[test]
    fn pair_profile_matches_naive_predicates_on_connected_subsets() {
        use crate::bfs;
        use crate::subgraph::InducedSubgraph;
        let mut ws = SubsetScratch::new();
        let graphs = vec![
            cycle(6),
            cycle(12),
            Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]), // theta
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 5)]),
        ];
        for g in &graphs {
            for u in g.vertices() {
                for v in g.vertices() {
                    if u == v {
                        continue;
                    }
                    // H = joint ball, always connected for reachable pairs.
                    for r in [2u32, 100] {
                        if !matches!(bfs::distance(g, u, v), Some(d) if d <= r) {
                            continue;
                        }
                        let set = bfs::ball_of_set(g, &[u, v], r);
                        let sub = InducedSubgraph::new(g, &set);
                        let (lu, lv) = (sub.from_host(u).unwrap(), sub.from_host(v).unwrap());
                        let profile = pair_profile_within(g, &mut ws, &set, u, v);
                        assert_eq!(
                            profile.is_minimal_two_cut(),
                            is_minimal_two_cut(&sub.graph, lu, lv),
                            "{g:?} u={u} v={v} r={r}"
                        );
                        // Witness counts against the extracted-component scan.
                        let comps = components_attached(&sub.graph, lu, lv);
                        assert_eq!(profile.components, comps.len(), "{g:?} u={u} v={v} r={r}");
                        let count = |anchor: Vertex| {
                            comps
                                .iter()
                                .filter(|c| {
                                    c.iter().any(|&w| !sub.graph.has_edge(w, anchor) && w != anchor)
                                })
                                .count()
                        };
                        assert_eq!(profile.witnesses_nonadj_a, count(lu), "{g:?} u={u} v={v}");
                        assert_eq!(profile.witnesses_nonadj_b, count(lv), "{g:?} u={u} v={v}");
                        // The union as the two balls back to back, in no
                        // order, lists their common vertices twice.
                        let mut both = bfs::ball(g, u, r);
                        both.extend(bfs::ball(g, v, r));
                        both.reverse();
                        let again = pair_profile_within(g, &mut ws, &both, u, v);
                        assert_eq!(again, profile, "{g:?} u={u} v={v} r={r}: repeats");
                    }
                }
            }
        }
    }

    #[test]
    fn separates_ignores_swallowed_components() {
        // Graph: triangle {0,1,2} plus isolated vertex 3. Removing {3, 0}
        // does not separate anything.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        assert!(!separates(&g, &[3, 0]));
        assert!(!separates(&g, &[3]));
    }

    #[test]
    fn separates_across_disconnected_host() {
        // Two disjoint paths; cutting the middle of one separates within
        // that component only.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert!(separates(&g, &[1]));
        assert!(separates(&g, &[4]));
        assert!(!separates(&g, &[0, 3]));
    }

    #[test]
    fn square_with_diagonal() {
        // C4 with chord {0,2}: {0,2} is a minimal 2-cut; {1,3} is not a
        // cut (0-2 edge keeps things connected)? Removing {1,3} leaves
        // edge 0-2, still connected → not a cut.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert!(is_minimal_two_cut(&g, 0, 2));
        assert!(!is_minimal_two_cut(&g, 1, 3));
    }
}

/// Whether two 2-cuts *cross* (paper §5.3): the two vertices of `c1`
/// lie in different components of `G − c2`, **and** vice versa.
///
/// Cuts sharing a vertex never cross (the shared vertex is in no
/// component of the complement).
pub fn cuts_cross(g: &Graph, c1: (Vertex, Vertex), c2: (Vertex, Vertex)) -> bool {
    let split = |cut: (Vertex, Vertex), other: (Vertex, Vertex)| -> bool {
        let (a, b) = other;
        if a == cut.0 || a == cut.1 || b == cut.0 || b == cut.1 {
            return false;
        }
        let comps = components_attached(g, cut.0, cut.1);
        let side = |x: Vertex| comps.iter().position(|c| c.binary_search(&x).is_ok());
        side(a) != side(b)
    };
    split(c2, c1) && split(c1, c2)
}

/// Greedily partitions `cuts` into pairwise non-crossing families
/// (first-fit). The paper's Corollary 5.9 shows three families always
/// suffice for interesting cuts (via SPQR trees); this greedy
/// constructive check is what the Lemma 3.3 experiments verify against.
pub fn partition_noncrossing(g: &Graph, cuts: &[(Vertex, Vertex)]) -> Vec<Vec<(Vertex, Vertex)>> {
    let mut families: Vec<Vec<(Vertex, Vertex)>> = Vec::new();
    for &c in cuts {
        let mut placed = false;
        for fam in &mut families {
            if fam.iter().all(|&d| !cuts_cross(g, c, d)) {
                fam.push(c);
                placed = true;
                break;
            }
        }
        if !placed {
            families.push(vec![c]);
        }
    }
    families
}

#[cfg(test)]
mod crossing_tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn c6_opposite_cuts_pairwise_cross() {
        // The paper's example: {0,3}, {1,4}, {2,5} pairwise cross, so
        // three non-crossing families are necessary.
        let g = cycle(6);
        let cuts = [(0, 3), (1, 4), (2, 5)];
        for (i, &a) in cuts.iter().enumerate() {
            for &b in &cuts[i + 1..] {
                assert!(cuts_cross(&g, a, b), "{a:?} vs {b:?}");
            }
        }
        let fams = partition_noncrossing(&g, &cuts);
        assert_eq!(fams.len(), 3);
    }

    #[test]
    fn nested_cuts_do_not_cross() {
        // On C8, cuts {0,4} and {1,3} do not cross: 1 and 3 are on the
        // same side of {0,4}.
        let g = cycle(8);
        assert!(!cuts_cross(&g, (0, 4), (1, 3)));
        assert!(cuts_cross(&g, (0, 4), (2, 6)));
        let fams = partition_noncrossing(&g, &[(0, 4), (1, 3), (2, 6)]);
        assert_eq!(fams.len(), 2);
    }

    #[test]
    fn shared_vertex_cuts_do_not_cross() {
        let g = cycle(6);
        assert!(!cuts_cross(&g, (0, 3), (0, 2)));
    }

    #[test]
    fn diameter_cuts_on_c8_need_four_families() {
        // Taking ALL opposite cuts is the wrong selection: on C8 they
        // pairwise cross and the greedy partition needs 4 families —
        // exactly why Proposition 5.8 picks a smarter set.
        let g = cycle(8);
        let all_opposite: Vec<(Vertex, Vertex)> = (0..4).map(|i| (i, i + 4)).collect();
        assert_eq!(partition_noncrossing(&g, &all_opposite).len(), 4);
    }

    #[test]
    fn proposition_5_8_cycle_selection_fits_three_families() {
        // The paper's C-node selection (§5.3, case "k ≥ 8 and k even"):
        // P1 = {v0,v_{k-3}}, {v1,v_{k-4}}, …, {v_{k/2-3}, v_{k/2}};
        // P2 = {v_{k/2-2}, v_{k-1}}, {v_{k/2-1}, v_{k-2}}.
        // Each P_i is internally non-crossing, and every vertex of the
        // cycle appears in some selected cut.
        for k in [8usize, 10, 12] {
            let g = cycle(k);
            let mut p1: Vec<(Vertex, Vertex)> = Vec::new();
            for i in 0..=(k / 2 - 3) {
                let (a, b) = (i, k - 3 - i);
                p1.push((a.min(b), a.max(b)));
            }
            let p2: Vec<(Vertex, Vertex)> = vec![(k / 2 - 2, k - 1), (k / 2 - 1, k - 2)];
            for fam in [&p1, &p2] {
                for (i, &a) in fam.iter().enumerate() {
                    for &b in &fam[i + 1..] {
                        assert!(!cuts_cross(&g, a, b), "C_{k}: {a:?} x {b:?}");
                    }
                }
            }
            // Coverage: every vertex sits in a selected cut.
            let mut covered = vec![false; k];
            for &(a, b) in p1.iter().chain(&p2) {
                covered[a] = true;
                covered[b] = true;
            }
            assert!(covered.iter().all(|&c| c), "C_{k}: {covered:?}");
            // The greedy packing of the union uses ≤ 3 families
            // (Corollary 5.9's budget).
            let union: Vec<(Vertex, Vertex)> = p1.iter().chain(&p2).copied().collect();
            let fams = partition_noncrossing(&g, &union);
            assert!(fams.len() <= 3, "C_{k}: {} families", fams.len());
        }
    }
}
