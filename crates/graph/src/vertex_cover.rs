//! Vertex-cover toolkit: predicates, the matching 2-approximation, and an
//! exact branch-and-bound solver.
//!
//! The paper extends both of its theorems to Minimum Vertex Cover; the
//! harness measures those variants against the exact optimum computed
//! here.

use crate::graph::{Graph, Vertex};
use crate::scratch::{with_thread_scratch, Scratch};

/// Whether `set` covers every edge of `g`.
pub fn is_vertex_cover(g: &Graph, set: &[Vertex]) -> bool {
    with_thread_scratch(|s| is_vertex_cover_with(g, s, set))
}

/// [`is_vertex_cover`] through an explicit [`Scratch`] (epoch marks
/// instead of a fresh membership array per call).
///
/// # Panics
///
/// Panics if a vertex of `set` is out of range.
pub fn is_vertex_cover_with(g: &Graph, scratch: &mut Scratch, set: &[Vertex]) -> bool {
    scratch.begin(g.n());
    scratch.check(set);
    for &v in set {
        scratch.visit(v);
    }
    g.edges().all(|(u, v)| scratch.visited(u) || scratch.visited(v))
}

/// A greedy maximal matching, as `(u, v)` pairs. Deterministic
/// (lexicographic edge order). Matched-vertex marks live in the
/// thread-pooled [`Scratch`].
pub fn greedy_maximal_matching(g: &Graph) -> Vec<(Vertex, Vertex)> {
    with_thread_scratch(|scratch| {
        scratch.begin(g.n());
        let mut matching = Vec::new();
        for (u, v) in g.edges() {
            if !scratch.visited(u) && !scratch.visited(v) {
                scratch.visit(u);
                scratch.visit(v);
                matching.push((u, v));
            }
        }
        matching
    })
}

/// The classic 2-approximation: both endpoints of a maximal matching.
pub fn matching_vertex_cover(g: &Graph) -> Vec<Vertex> {
    let mut out = Vec::new();
    for (u, v) in greedy_maximal_matching(g) {
        out.push(u);
        out.push(v);
    }
    out.sort_unstable();
    out
}

/// Size of a maximum matching is a lower bound on VC; we use the greedy
/// maximal matching (still a valid lower bound since VC ≥ any matching).
pub fn vc_lower_bound(g: &Graph) -> usize {
    greedy_maximal_matching(g).len()
}

/// Exact minimum vertex cover.
///
/// Branch and bound with degree-1 reduction; practical to roughly 60–80
/// vertices on sparse graphs.
///
/// # Panics
///
/// Panics if the internal unbounded budget is exhausted — it cannot be.
pub fn exact_vertex_cover(g: &Graph) -> Vec<Vertex> {
    exact_vertex_cover_capped(g, u64::MAX).expect("unbounded budget")
}

/// Budgeted exact vertex cover; `None` if the node budget is exhausted.
pub fn exact_vertex_cover_capped(g: &Graph, budget: u64) -> Option<Vec<Vertex>> {
    let mut best = matching_vertex_cover(g);
    let alive: Vec<bool> = vec![true; g.n()];
    let mut current = Vec::new();
    let mut nodes = 0u64;
    let complete = branch_vc(g, alive, &mut current, &mut best, budget, &mut nodes);
    complete.then(|| {
        best.sort_unstable();
        best
    })
}

fn live_degree(g: &Graph, alive: &[bool], v: Vertex) -> usize {
    g.neighbors(v).iter().filter(|&&u| alive[u as usize]).count()
}

fn branch_vc(
    g: &Graph,
    alive: Vec<bool>,
    current: &mut Vec<Vertex>,
    best: &mut Vec<Vertex>,
    budget: u64,
    nodes: &mut u64,
) -> bool {
    *nodes += 1;
    if *nodes > budget {
        return false;
    }
    // The reduction loop below pushes forced vertices onto `current`;
    // they belong to this node only and must be unwound on *every*
    // return path (leaking them inflated sibling branches and could
    // make the "exact" result suboptimal — caught by the exact-engine
    // differential fuzz harness).
    let checkpoint = current.len();
    let result = branch_vc_inner(g, alive, current, best, budget, nodes);
    current.truncate(checkpoint);
    result
}

fn branch_vc_inner(
    g: &Graph,
    mut alive: Vec<bool>,
    current: &mut Vec<Vertex>,
    best: &mut Vec<Vertex>,
    budget: u64,
    nodes: &mut u64,
) -> bool {
    // Reductions: drop isolated (in the live subgraph) vertices; for a
    // degree-1 vertex take its neighbor.
    loop {
        let mut changed = false;
        for v in g.vertices() {
            if !alive[v] {
                continue;
            }
            let d = live_degree(g, &alive, v);
            if d == 0 {
                alive[v] = false;
                changed = true;
            } else if d == 1 {
                let u = *g
                    .neighbors(v)
                    .iter()
                    .find(|&&u| alive[u as usize])
                    .expect("degree-1 vertex has a live neighbor")
                    as Vertex;
                current.push(u);
                alive[u] = false;
                alive[v] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Remaining live graph has min degree ≥ 2.
    let live: Vec<Vertex> = g.vertices().filter(|&v| alive[v]).collect();
    if live.is_empty() {
        if current.len() < best.len() {
            *best = current.clone();
        }
        return true;
    }
    // Lower bound: matching within live subgraph.
    let mut matched = vec![false; g.n()];
    let mut lb = 0;
    for &u in &live {
        if matched[u] {
            continue;
        }
        for &v in g.neighbors(u) {
            let v = v as Vertex;
            if alive[v] && !matched[v] && u < v {
                matched[u] = true;
                matched[v] = true;
                lb += 1;
                break;
            }
        }
    }
    if current.len() + lb >= best.len() {
        return true;
    }
    // Branch on a live vertex of maximum live degree.
    let v = *live.iter().max_by_key(|&&v| live_degree(g, &alive, v)).expect("nonempty");
    // Branch A: take v.
    {
        let mut a2 = alive.clone();
        a2[v] = false;
        current.push(v);
        let ok = branch_vc(g, a2, current, best, budget, nodes);
        current.pop();
        if !ok {
            return false;
        }
    }
    // Branch B: exclude v → take all live neighbors of v.
    {
        let mut a2 = alive.clone();
        a2[v] = false;
        let nb: Vec<Vertex> =
            g.neighbors(v).iter().map(|&u| u as Vertex).filter(|&u| a2[u]).collect();
        for &u in &nb {
            a2[u] = false;
            current.push(u);
        }
        let ok = branch_vc(g, a2, current, best, budget, nodes);
        for _ in &nb {
            current.pop();
        }
        if !ok {
            return false;
        }
    }
    true
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
    fn cover_predicate() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_vertex_cover(&g, &[1, 2]));
        assert!(!is_vertex_cover(&g, &[0, 3]));
        assert!(is_vertex_cover(&g, &[0, 1, 2, 3]));
    }

    #[test]
    fn exact_on_cycles_matches_formula() {
        // VC(C_n) = ceil(n/2).
        for n in 3..=11 {
            assert_eq!(exact_vertex_cover(&cycle(n)).len(), n.div_ceil(2), "C_{n}");
        }
    }

    #[test]
    fn exact_on_paths_matches_formula() {
        // VC(P_n) = floor(n/2).
        for n in 2..=11 {
            let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let g = Graph::from_edges(n, &edges);
            assert_eq!(exact_vertex_cover(&g).len(), n / 2, "P_{n}");
        }
    }

    #[test]
    fn exact_on_star() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(exact_vertex_cover(&g), vec![0]);
    }

    #[test]
    fn exact_on_complete_graph() {
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(exact_vertex_cover(&g).len(), 4);
    }

    #[test]
    fn matching_cover_is_within_factor_two() {
        for n in 3..=12 {
            let g = cycle(n);
            let apx = matching_vertex_cover(&g);
            assert!(is_vertex_cover(&g, &apx));
            let opt = exact_vertex_cover(&g).len();
            assert!(apx.len() <= 2 * opt);
            assert!(vc_lower_bound(&g) <= opt);
        }
    }

    #[test]
    fn budget_exhaustion() {
        assert!(exact_vertex_cover_capped(&cycle(20), 1).is_none());
    }

    #[test]
    fn reduction_pushes_do_not_leak_into_sibling_branches() {
        // Regression: the degree-1 reduction used to push forced
        // vertices onto `current` without unwinding them on return,
        // inflating sibling branches — on this 3-regular-ish 16-vertex
        // graph the "exact" cover came out 10 instead of 9 (found by
        // the exact-engine differential fuzz harness).
        let g = Graph::from_edges(
            16,
            &[
                (0, 2),
                (0, 9),
                (0, 10),
                (1, 3),
                (1, 7),
                (1, 14),
                (2, 3),
                (2, 9),
                (3, 5),
                (4, 5),
                (4, 10),
                (4, 15),
                (5, 11),
                (6, 8),
                (6, 12),
                (6, 13),
                (7, 10),
                (7, 15),
                (8, 11),
                (8, 14),
                (9, 13),
                (11, 14),
                (12, 13),
                (12, 15),
            ],
        );
        let sol = exact_vertex_cover(&g);
        assert!(is_vertex_cover(&g, &sol));
        assert_eq!(sol.len(), 9);
    }

    #[test]
    fn empty_and_edgeless() {
        assert_eq!(exact_vertex_cover(&Graph::new(0)), Vec::<usize>::new());
        assert_eq!(exact_vertex_cover(&Graph::new(4)), Vec::<usize>::new());
    }
}
