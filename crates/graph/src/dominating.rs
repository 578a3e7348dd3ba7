//! Dominating-set toolkit: predicates, greedy and exact solvers,
//! `B`-dominating sets `MDS(G, B)`, and lower bounds.
//!
//! The exact solver is a plain branch-and-bound over set cover with a
//! packing lower bound, kept as the oracle that
//! [`crate::exact::ExactEngine`] is differentially tested against. A
//! `B`-domination instance takes its dominators from `N[B]`, so it is
//! always feasible.
//!
//! The greedy ([`greedy_dominating_set`], [`greedy_b_dominating`], and
//! the incumbent of both branch and bounds) is one lazy set-cover
//! greedy: each pick takes the candidate covering the most targets
//! still uncovered, ties to the smallest index. Gains only fall, so a
//! max-heap of possibly stale gains yields the eager scan's picks
//! without rescanning every candidate per pick.

use crate::graph::{Graph, Vertex};
use crate::scratch::{with_thread_scratch, Scratch};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Whether `set` dominates every vertex of `g`.
pub fn is_dominating_set(g: &Graph, set: &[Vertex]) -> bool {
    with_thread_scratch(|s| {
        mark_dominated(g, s, set);
        g.vertices().all(|v| s.visited(v))
    })
}

/// Whether `set` dominates every vertex of `targets` (i.e. `set` is
/// `B`-dominating for `B = targets`).
pub fn dominates(g: &Graph, set: &[Vertex], targets: &[Vertex]) -> bool {
    with_thread_scratch(|s| dominates_with(g, s, set, targets))
}

/// [`dominates`] through an explicit [`Scratch`] (epoch marks instead of
/// a fresh `n`-sized boolean array per call).
///
/// # Panics
///
/// Panics if a vertex of `set` or `targets` is out of range.
pub fn dominates_with(
    g: &Graph,
    scratch: &mut Scratch,
    set: &[Vertex],
    targets: &[Vertex],
) -> bool {
    mark_dominated(g, scratch, set);
    scratch.check(targets);
    targets.iter().all(|&t| scratch.visited(t))
}

/// Opens a scratch epoch and marks `N[set]` visited.
fn mark_dominated(g: &Graph, scratch: &mut Scratch, set: &[Vertex]) {
    scratch.begin(g.n());
    scratch.check(set);
    for &s in set {
        scratch.visit(s);
        for &u in g.neighbors(s) {
            scratch.visit(u as Vertex);
        }
    }
}

/// The set of vertices dominated by `set` (sorted).
pub fn dominated_by(g: &Graph, set: &[Vertex]) -> Vec<Vertex> {
    with_thread_scratch(|scratch| {
        mark_dominated(g, scratch, set);
        (0..g.n()).filter(|&v| scratch.visited(v)).collect()
    })
}

/// Greedy dominating set: repeatedly pick the vertex covering the most
/// still-undominated vertices (ties broken by smallest index, so the
/// result is deterministic).
pub fn greedy_dominating_set(g: &Graph) -> Vec<Vertex> {
    greedy_b_dominating(g, &g.vertices().collect::<Vec<_>>())
}

/// Greedy `B`-dominating set: dominate all of `targets` using vertices
/// of `N[targets]`.
///
/// Returns a (not necessarily minimum) `B`-dominating set. Every target
/// can dominate itself, so there is always one.
pub fn greedy_b_dominating(g: &Graph, targets: &[Vertex]) -> Vec<Vertex> {
    CoverInstance::new(g, targets).greedy()
}

/// The set-cover greedy: `covers[c]` lists the target indices
/// (`< targets`) candidate `c` covers. Each pick is the candidate whose
/// cover holds the most targets still uncovered, ties to the smallest
/// index; returns the picks in order.
///
/// Lazy: every candidate waits in a max-heap under the gain it had when
/// last scored. Gains only fall, so an entry whose gain went stale goes
/// back at its current gain, and the first current entry popped is the
/// eager scan's pick.
///
/// # Panics
///
/// Panics if some target lies in no cover (an infeasible instance).
pub(crate) fn greedy_cover(covers: &[Vec<u32>], targets: usize) -> Vec<u32> {
    let mut covered = vec![false; targets];
    let mut remaining = targets;
    let mut queue: BinaryHeap<(usize, Reverse<u32>)> = covers
        .iter()
        .enumerate()
        .filter(|(_, cov)| !cov.is_empty())
        .map(|(c, cov)| (cov.len(), Reverse(c as u32)))
        .collect();
    let mut picks = Vec::new();
    while remaining > 0 {
        let (gain, Reverse(c)) = queue.pop().expect("infeasible greedy cover instance");
        let cov = &covers[c as usize];
        let now = cov.iter().filter(|&&t| !covered[t as usize]).count();
        if now < gain {
            if now > 0 {
                queue.push((now, Reverse(c)));
            }
            continue;
        }
        picks.push(c);
        for &t in cov {
            if !std::mem::replace(&mut covered[t as usize], true) {
                remaining -= 1;
            }
        }
    }
    picks
}

/// Exact minimum dominating set of `g`.
///
/// Branch and bound; practical for graphs up to roughly 80 vertices
/// (sparse). For larger inputs use [`exact_mds_capped`] and fall back to
/// bounds.
///
/// # Panics
///
/// Panics if the internal search budget (very large) is exhausted; see
/// [`exact_mds_capped`] for a fallible variant.
pub fn exact_mds(g: &Graph) -> Vec<Vertex> {
    exact_mds_capped(g, u64::MAX).expect("unbounded budget cannot be exhausted")
}

/// Exact minimum dominating set with a node-expansion budget.
///
/// Returns `None` if the budget was exhausted before optimality was
/// proven.
pub fn exact_mds_capped(g: &Graph, budget: u64) -> Option<Vec<Vertex>> {
    let targets: Vec<Vertex> = g.vertices().collect();
    exact_b_dominating_capped(g, &targets, budget)
}

/// Exact minimum `B`-dominating set: the smallest `S ⊆ N[targets]` with
/// `targets ⊆ N[S]`. This is `MDS(G, B)` from the paper (§2). Every
/// target can dominate itself, so the instance is always feasible.
///
/// # Panics
///
/// Panics if the internal (unbounded) budget is exhausted — it cannot be.
pub fn exact_b_dominating(g: &Graph, targets: &[Vertex]) -> Vec<Vertex> {
    exact_b_dominating_capped(g, targets, u64::MAX).expect("unbounded budget cannot be exhausted")
}

/// Budgeted variant of [`exact_b_dominating`]. Returns `None` if the
/// budget was exhausted before optimality was proven.
pub fn exact_b_dominating_capped(
    g: &Graph,
    targets: &[Vertex],
    budget: u64,
) -> Option<Vec<Vertex>> {
    CoverInstance::new(g, targets).solve(budget)
}

/// A domination instance lowered to set cover: dominate `targets` using
/// closed neighborhoods of the candidates `N[targets]`.
struct CoverInstance {
    targets: Vec<Vertex>,
    candidates: Vec<Vertex>,
    /// For each candidate, the sorted list of target indices it covers.
    covers: Vec<Vec<u32>>,
    /// For each target index, the candidate indices covering it.
    covered_by: Vec<Vec<usize>>,
}

const NONE: usize = usize::MAX;

impl CoverInstance {
    fn new(g: &Graph, targets: &[Vertex]) -> Self {
        let targets = crate::canonical_set(targets.to_vec());
        let mut target_idx = vec![NONE; g.n()];
        for (i, &t) in targets.iter().enumerate() {
            target_idx[t] = i;
        }
        let mut candidates: Vec<Vertex> = Vec::new();
        for &t in &targets {
            candidates.push(t);
            candidates.extend(g.neighbors(t).iter().map(|&u| u as Vertex));
        }
        let candidates = crate::canonical_set(candidates);
        let mut covers = Vec::with_capacity(candidates.len());
        let mut covered_by = vec![Vec::new(); targets.len()];
        for (ci, &c) in candidates.iter().enumerate() {
            let mut cov: Vec<u32> = Vec::new();
            if target_idx[c] != NONE {
                cov.push(target_idx[c] as u32);
            }
            for &u in g.neighbors(c) {
                if target_idx[u as usize] != NONE {
                    cov.push(target_idx[u as usize] as u32);
                }
            }
            cov.sort_unstable();
            for &t in &cov {
                covered_by[t as usize].push(ci);
            }
            covers.push(cov);
        }
        CoverInstance { targets, candidates, covers, covered_by }
    }

    /// [`greedy_cover`] as a sorted vertex set.
    fn greedy(&self) -> Vec<Vertex> {
        let picks = greedy_cover(&self.covers, self.targets.len());
        crate::canonical_set(picks.into_iter().map(|c| self.candidates[c as usize]))
    }

    /// A packing-style lower bound on the number of candidates needed to
    /// cover the targets still undominated.
    fn lower_bound(&self, undom: &[bool]) -> usize {
        // Greedy disjoint packing: pick an undominated target, discard all
        // targets sharing a covering candidate with it.
        let mut killed = vec![false; self.targets.len()];
        let mut cand_used = vec![false; self.candidates.len()];
        let mut packing = 0;
        for t in 0..self.targets.len() {
            if !undom[t] || killed[t] {
                continue;
            }
            if self.covered_by[t].iter().any(|&c| cand_used[c]) {
                continue;
            }
            packing += 1;
            for &c in &self.covered_by[t] {
                cand_used[c] = true;
            }
            killed[t] = true;
        }
        packing
    }

    fn solve(&self, budget: u64) -> Option<Vec<Vertex>> {
        let mut best = self.greedy();
        let undom = vec![true; self.targets.len()];
        let mut nodes: u64 = 0;
        let mut current: Vec<usize> = Vec::new();
        let complete = self.branch(&undom, &mut current, &mut best, budget, &mut nodes);
        if complete {
            Some(best)
        } else {
            None
        }
    }

    /// Returns `false` if the budget ran out (search incomplete).
    fn branch(
        &self,
        undom: &[bool],
        current: &mut Vec<usize>,
        best: &mut Vec<Vertex>,
        budget: u64,
        nodes: &mut u64,
    ) -> bool {
        *nodes += 1;
        if *nodes > budget {
            return false;
        }
        let remaining = undom.iter().filter(|&&u| u).count();
        if remaining == 0 {
            if current.len() < best.len() {
                let mut sol: Vec<Vertex> = current.iter().map(|&ci| self.candidates[ci]).collect();
                sol.sort_unstable();
                *best = sol;
            }
            return true;
        }
        if current.len() + self.lower_bound(undom) >= best.len() {
            return true;
        }
        // Pick the undominated target with the fewest covering candidates.
        let mut pick = NONE;
        let mut pick_count = usize::MAX;
        for (t, &is_undom) in undom.iter().enumerate().take(self.targets.len()) {
            if is_undom && self.covered_by[t].len() < pick_count {
                pick = t;
                pick_count = self.covered_by[t].len();
            }
        }
        debug_assert!(pick != NONE);
        // Branch over candidates covering it, most-coverage first.
        let mut cands: Vec<usize> = self.covered_by[pick].clone();
        cands.sort_by_key(|&c| std::cmp::Reverse(self.covers[c].len()));
        for ci in cands {
            let mut nu = undom.to_vec();
            for &t in &self.covers[ci] {
                nu[t as usize] = false;
            }
            current.push(ci);
            let ok = self.branch(&nu, current, best, budget, nodes);
            current.pop();
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Exact minimum dominating set of a forest via the classic leaf-to-root
/// greedy (optimal on forests). Returns `None` if `g` has a cycle.
pub fn tree_mds(g: &Graph) -> Option<Vec<Vertex>> {
    if !crate::properties::is_forest(g) {
        return None;
    }
    let n = g.n();
    let mut dominated = vec![false; n];
    let mut in_set = vec![false; n];
    let mut parent = vec![NONE; n];
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in g.vertices() {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in g.neighbors(u) {
                let v = v as Vertex;
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    stack.push(v);
                }
            }
        }
    }
    // Process deepest-first = reverse DFS-discovery order works because a
    // child is always discovered after its parent.
    for &v in order.iter().rev() {
        if dominated[v] {
            continue;
        }
        let take = if parent[v] == NONE { v } else { parent[v] };
        if !in_set[take] {
            in_set[take] = true;
            dominated[take] = true;
            for &u in g.neighbors(take) {
                dominated[u as usize] = true;
            }
        }
    }
    Some((0..n).filter(|&v| in_set[v]).collect())
}

/// The domination number of the cycle `C_n`: `⌈n/3⌉` (for `n ≥ 3`).
pub fn cycle_mds_size(n: usize) -> usize {
    n.div_ceil(3)
}

/// A greedy maximal 2-packing: vertices pairwise at distance ≥ 3.
/// Its size is a lower bound on `MDS(G)` (closed neighborhoods of a
/// 2-packing are disjoint, and each needs its own dominator).
pub fn two_packing(g: &Graph) -> Vec<Vertex> {
    with_thread_scratch(|scratch| {
        let mut blocked = vec![false; g.n()];
        let mut packing = Vec::new();
        let mut ball_buf = Vec::new();
        for v in g.vertices() {
            if blocked[v] {
                continue;
            }
            packing.push(v);
            crate::bfs::ball_of_set_into(g, scratch, &[v], 2, &mut ball_buf);
            for &u in &ball_buf {
                blocked[u] = true;
            }
        }
        packing
    })
}

/// A lower bound on `MDS(G)`: the max of the 2-packing size and
/// `⌈n / (Δ+1)⌉`.
pub fn mds_lower_bound(g: &Graph) -> usize {
    if g.n() == 0 {
        return 0;
    }
    let packing = two_packing(g).len();
    let delta = crate::properties::max_degree(g);
    packing.max(g.n().div_ceil(delta + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.path(&vs);
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    #[test]
    fn domination_predicates() {
        let g = path(5);
        assert!(is_dominating_set(&g, &[1, 3]));
        assert!(!is_dominating_set(&g, &[0, 4]));
        assert!(dominates(&g, &[0], &[0, 1]));
        assert!(!dominates(&g, &[0], &[2]));
        assert_eq!(dominated_by(&g, &[2]), vec![1, 2, 3]);
    }

    #[test]
    fn exact_on_paths_matches_formula() {
        // MDS(P_n) = ceil(n/3).
        for n in 1..=12 {
            let g = path(n);
            assert_eq!(exact_mds(&g).len(), n.div_ceil(3), "P_{n}");
        }
    }

    #[test]
    fn exact_on_cycles_matches_formula() {
        for n in 3..=12 {
            let g = cycle(n);
            assert_eq!(exact_mds(&g).len(), cycle_mds_size(n), "C_{n}");
        }
    }

    #[test]
    fn exact_on_star_is_one() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(exact_mds(&g), vec![0]);
    }

    #[test]
    fn exact_output_is_dominating_and_minimum() {
        let g =
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 5)]);
        let sol = exact_mds(&g);
        assert!(is_dominating_set(&g, &sol));
        // Cross-check: no single vertex dominates this graph.
        for v in g.vertices() {
            assert!(!is_dominating_set(&g, &[v]));
        }
        assert!(sol.len() >= 2);
        assert!(sol.len() <= greedy_dominating_set(&g).len());
    }

    #[test]
    fn greedy_is_dominating() {
        for n in 1..=15 {
            let g = path(n);
            assert!(is_dominating_set(&g, &greedy_dominating_set(&g)));
        }
    }

    /// The eager set-cover greedy [`greedy_cover`] must reproduce: every
    /// pick rescans every candidate, largest gain first, ties to the
    /// smallest index.
    fn eager_greedy_cover(covers: &[Vec<u32>], targets: usize) -> Vec<u32> {
        let mut covered = vec![false; targets];
        let mut remaining = targets;
        let mut used = vec![false; covers.len()];
        let mut picks = Vec::new();
        while remaining > 0 {
            let (mut best, mut best_gain) = (None, 0);
            for (c, cov) in covers.iter().enumerate() {
                let gain = cov.iter().filter(|&&t| !covered[t as usize]).count();
                if !used[c] && gain > best_gain {
                    (best, best_gain) = (Some(c), gain);
                }
            }
            let c = best.expect("infeasible greedy cover instance");
            used[c] = true;
            picks.push(c as u32);
            for &t in &covers[c] {
                if !std::mem::replace(&mut covered[t as usize], true) {
                    remaining -= 1;
                }
            }
        }
        picks
    }

    /// Deterministic xorshift (the graph crate cannot dev-depend on
    /// `lmds-gen` without a cycle).
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, k: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % k
        }
    }

    #[test]
    fn lazy_greedy_cover_makes_the_eager_picks() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // Random set-cover instances: covers of 0–4 targets over few
        // targets, so gains tie often and many candidates (empty covers,
        // covers already hit) have zero gain.
        for _ in 0..2_000 {
            let targets = 1 + rng.below(24) as usize;
            let mut covers: Vec<Vec<u32>> = (0..1 + rng.below(20))
                .map(|_| {
                    let mut cov: Vec<u32> =
                        (0..rng.below(5)).map(|_| rng.below(targets as u64) as u32).collect();
                    cov.sort_unstable();
                    cov.dedup();
                    cov
                })
                .collect();
            for t in 0..targets as u32 {
                if !covers.iter().any(|c| c.contains(&t)) {
                    covers.push(vec![t]);
                }
            }
            assert_eq!(greedy_cover(&covers, targets), eager_greedy_cover(&covers, targets));
        }
        // `B`-domination instances: random graphs, random target sets,
        // candidates `N[B]`.
        for _ in 0..200 {
            let n = 2 + rng.below(40) as usize;
            let density = 1 + rng.below(20);
            let edges: Vec<(Vertex, Vertex)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.below(100) < density)
                .collect();
            let g = Graph::from_edges(n, &edges);
            let targets: Vec<Vertex> = (0..n).filter(|_| rng.below(3) > 0).collect();
            let inst = CoverInstance::new(&g, &targets);
            let k = inst.targets.len();
            assert_eq!(greedy_cover(&inst.covers, k), eager_greedy_cover(&inst.covers, k));
        }
    }

    #[test]
    #[should_panic(expected = "infeasible greedy cover instance")]
    fn greedy_cover_panics_on_infeasible_instances() {
        // Target 1 lies in no cover.
        greedy_cover(&[vec![0], vec![]], 2);
    }

    #[test]
    fn b_dominating_restricts_targets() {
        let g = path(6);
        // Dominate only {0}: a single vertex from N[0] suffices.
        let sol = exact_b_dominating(&g, &[0]);
        assert_eq!(sol.len(), 1);
        assert!(sol == vec![0] || sol == vec![1]);
        // Dominate the two endpoints.
        let sol2 = exact_b_dominating(&g, &[0, 5]);
        assert_eq!(sol2.len(), 2);
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let g = cycle(12);
        assert!(exact_mds_capped(&g, 0).is_none());
    }

    #[test]
    fn tree_mds_matches_exact() {
        // Several trees; leaf-greedy must equal B&B optimum size.
        let trees = vec![
            path(1),
            path(7),
            Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
            // Forest with two components.
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]),
        ];
        for g in &trees {
            let t = tree_mds(g).expect("is a forest");
            assert!(is_dominating_set(g, &t));
            assert_eq!(t.len(), exact_mds(g).len(), "{g:?}");
        }
    }

    #[test]
    fn tree_mds_rejects_cycles() {
        assert!(tree_mds(&cycle(5)).is_none());
    }

    #[test]
    fn two_packing_is_valid_lower_bound() {
        for n in [5, 9, 13] {
            let g = cycle(n);
            let p = two_packing(&g);
            // pairwise distance ≥ 3
            for (i, &u) in p.iter().enumerate() {
                for &v in &p[i + 1..] {
                    assert!(crate::bfs::distance(&g, u, v).unwrap() >= 3);
                }
            }
            assert!(p.len() <= exact_mds(&g).len());
            assert!(mds_lower_bound(&g) <= exact_mds(&g).len());
        }
    }

    #[test]
    fn ore_bound_holds_for_exact_solver() {
        // Lemma 5.16 (Ore): without isolated vertices MDS ≤ n/2.
        let graphs = vec![path(8), cycle(9), Graph::from_edges(4, &[(0, 1), (2, 3)])];
        for g in &graphs {
            assert!(exact_mds(g).len() * 2 <= g.n(), "{g:?}");
        }
    }

    #[test]
    fn empty_graph_mds_is_empty() {
        let g = Graph::new(0);
        assert_eq!(exact_mds(&g), Vec::<usize>::new());
        assert!(is_dominating_set(&g, &[]));
    }

    #[test]
    fn isolated_vertices_must_self_dominate() {
        let g = Graph::new(3);
        assert_eq!(exact_mds(&g), vec![0, 1, 2]);
    }
}
