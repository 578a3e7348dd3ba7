//! Breadth-first traversal and metric queries: distances, balls `N^r[v]`,
//! diameter, radius, and weak diameter.
//!
//! Balls are the central object of the paper: an `r`-round LOCAL algorithm
//! is exactly a function of `G[N^r[v]]` (plus identifiers), so every
//! "local" notion (local cuts, locally-`C` classes, …) is phrased in terms
//! of [`ball`] / [`ball_of_set`].
//!
//! Two scratch traversals do the work: [`ball_of_set_into`] (a BFS from a
//! set, stopped at radius `r`, behind [`ball`] and [`ball_of_set`]) and
//! [`distance_capped_with`] (a BFS that stops at its target or at depth
//! `cap`, behind [`distance_capped`] and [`distance`], which is the
//! uncapped case). The convenience wrappers
//! draw a [`Scratch`] from the thread-local pool; the explicit forms
//! thread a caller scratch and output buffer for allocation-free loops.
//! [`ball_of_set_into`] returns its ball in BFS order, unsorted, for
//! callers that only mark or flood it; the wrappers sort. Each traversal
//! checks the vertices its caller passes once, in all builds; the
//! vertices it reads off the graph's own rows need no check.
//! Work is O(|ball|), not O(n): the scratch's epoch marks replace the
//! `vec![None; n]` distance array a fresh-buffer BFS would need. The
//! whole-graph metrics ([`diameter`], [`radius`], [`weak_diameter`]) run
//! [`bfs_distances`] per vertex.

use crate::graph::{Graph, Vertex};
use crate::scratch::{with_thread_scratch, Scratch};
use std::collections::VecDeque;

/// BFS distances from `src`; `None` for unreachable vertices.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_distances(g: &Graph, src: Vertex) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.n()];
    dist[src] = Some(0);
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u].unwrap();
        for &v in g.neighbors(u) {
            let v = v as Vertex;
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// The distance between `u` and `v`, or `None` if disconnected:
/// [`distance_capped`] with no cap.
pub fn distance(g: &Graph, u: Vertex, v: Vertex) -> Option<u32> {
    distance_capped(g, u, v, u32::MAX)
}

/// The distance between `u` and `v` **if it is at most `cap`**, else
/// `None` (disconnected pairs are `None` too). The BFS never expands
/// past depth `cap`, so the work is O(|`N^cap[u]`|) instead of O(n + m) —
/// the right query for "is `d(u, v) ≤ r`?" checks like the local-2-cut
/// distance precondition. Thread-pooled [`Scratch`].
pub fn distance_capped(g: &Graph, u: Vertex, v: Vertex, cap: u32) -> Option<u32> {
    with_thread_scratch(|s| distance_capped_with(g, s, u, v, cap))
}

/// [`distance_capped`] through an explicit [`Scratch`].
///
/// # Panics
///
/// Panics if `u` or `v` is out of range (unless `u == v` or `cap == 0`,
/// which answer without a traversal).
pub fn distance_capped_with(
    g: &Graph,
    scratch: &mut Scratch,
    u: Vertex,
    v: Vertex,
    cap: u32,
) -> Option<u32> {
    if u == v {
        return Some(0);
    }
    if cap == 0 {
        return None;
    }
    scratch.begin(g.n());
    scratch.check(&[u, v]);
    scratch.visit(u);
    scratch.dist[u] = 0;
    scratch.queue.push(u);
    let mut head = 0;
    while head < scratch.queue.len() {
        let x = scratch.queue[head];
        head += 1;
        let dx = scratch.dist[x];
        if dx == cap {
            break; // queue is in distance order; nothing closer remains
        }
        for &y in g.neighbors(x) {
            let y = y as Vertex;
            if scratch.visit(y) {
                if y == v {
                    return Some(dx + 1);
                }
                scratch.dist[y] = dx + 1;
                scratch.queue.push(y);
            }
        }
    }
    None
}

/// The ball `N^r[v]`: all vertices at distance at most `r` from `v`,
/// sorted ascending. Runs through the thread-pooled [`Scratch`] in
/// O(|ball|) work.
pub fn ball(g: &Graph, v: Vertex, r: u32) -> Vec<Vertex> {
    ball_of_set(g, &[v], r)
}

/// The ball `N^r[S]` around a set `S`, sorted ascending.
///
/// `r = 0` returns `S` itself (deduplicated, sorted).
pub fn ball_of_set(g: &Graph, set: &[Vertex], r: u32) -> Vec<Vertex> {
    with_thread_scratch(|s| {
        let mut out = Vec::new();
        ball_of_set_into(g, s, set, r, &mut out);
        out.sort_unstable();
        out
    })
}

/// The fully reusable ball query: clears `out`, then fills it with
/// `N^r[set]` in BFS order, using `scratch` for the visited epochs and
/// distances (`out` itself is the queue). The workhorse of [`ball`] /
/// [`ball_of_set`] and of allocation-free caller loops.
///
/// BFS order is the distinct members of `set` in their given order, then
/// every other vertex by nondecreasing distance, so the part of the ball
/// within any radius `r' ≤ r` is a prefix of `out`. It is not sorted:
/// callers that need a sorted ball sort it themselves ([`ball`] and
/// [`ball_of_set`] do), and those that only mark or flood the ball skip
/// the sort. The distances stay readable through
/// [`Scratch::distance`] until the scratch's next traversal.
///
/// # Panics
///
/// Panics if a vertex of `set` is out of range.
pub fn ball_of_set_into(
    g: &Graph,
    scratch: &mut Scratch,
    set: &[Vertex],
    r: u32,
    out: &mut Vec<Vertex>,
) {
    out.clear();
    scratch.begin(g.n());
    scratch.check(set);
    for &s in set {
        if scratch.visit(s) {
            scratch.dist[s] = 0;
            out.push(s);
        }
    }
    // `out` lists the ball in visiting order, so it is the BFS queue.
    let mut head = 0;
    while head < out.len() {
        let u = out[head];
        head += 1;
        let du = scratch.dist[u];
        if du == r {
            continue;
        }
        for &v in g.neighbors(u) {
            let v = v as Vertex;
            if scratch.visit(v) {
                scratch.dist[v] = du + 1;
                out.push(v);
            }
        }
    }
}

/// Every vertex's eccentricity, by one BFS per vertex, or `None` if the
/// graph is disconnected or empty: the one pass behind [`diameter`] and
/// [`radius`].
fn eccentricities(g: &Graph) -> Option<Vec<u32>> {
    if g.n() == 0 {
        return None;
    }
    g.vertices()
        .map(|v| bfs_distances(g, v).into_iter().try_fold(0, |ecc, d| Some(ecc.max(d?))))
        .collect()
}

/// Diameter of the graph: `max_v ecc(v)`.
///
/// Returns `None` if the graph is disconnected or empty (the diameter is
/// then conventionally infinite/undefined). Runs `n` BFS traversals.
pub fn diameter(g: &Graph) -> Option<u32> {
    eccentricities(g)?.into_iter().max()
}

/// Radius of the graph: `min_v ecc(v)`. `None` if disconnected or empty.
pub fn radius(g: &Graph) -> Option<u32> {
    eccentricities(g)?.into_iter().min()
}

/// Weak diameter of `set` in `g`: the largest distance **in `g`** between
/// two vertices of `set` (paper, §2). Returns `None` if two vertices of
/// the set are in different components of `g`, `Some(0)` for sets of size
/// ≤ 1.
pub fn weak_diameter(g: &Graph, set: &[Vertex]) -> Option<u32> {
    let mut best = 0;
    for (i, &u) in set.iter().enumerate() {
        let d = bfs_distances(g, u);
        for &v in &set[i + 1..] {
            match d[v] {
                Some(x) => best = best.max(x),
                None => return None,
            }
        }
    }
    Some(best)
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
    fn distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(distance(&g, 0, 4), Some(4));
        assert_eq!(distance(&g, 2, 2), Some(0));
    }

    #[test]
    fn distances_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(distance(&g, 0, 3), None);
        assert_eq!(bfs_distances(&g, 0)[3], None);
    }

    #[test]
    fn distance_capped_agrees_with_distance_up_to_the_cap() {
        let g = path(8);
        for u in 0..8 {
            for v in 0..8 {
                let full = distance(&g, u, v);
                for cap in 0..=8u32 {
                    let expect = full.filter(|&d| d <= cap);
                    assert_eq!(distance_capped(&g, u, v, cap), expect, "u={u} v={v} cap={cap}");
                }
            }
        }
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(distance_capped(&disc, 0, 3, 100), None);
        assert_eq!(distance_capped(&disc, 2, 2, 0), Some(0));
    }

    #[test]
    fn ball_on_cycle() {
        let g = cycle(8);
        assert_eq!(ball(&g, 0, 0), vec![0]);
        assert_eq!(ball(&g, 0, 1), vec![0, 1, 7]);
        assert_eq!(ball(&g, 0, 2), vec![0, 1, 2, 6, 7]);
        assert_eq!(ball(&g, 0, 4), (0..8).collect::<Vec<_>>());
        assert_eq!(ball(&g, 0, 100), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ball_of_set_merges() {
        let g = path(7);
        assert_eq!(ball_of_set(&g, &[0, 6], 1), vec![0, 1, 5, 6]);
        assert_eq!(ball_of_set(&g, &[3], 2), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn diameter_radius_path_cycle() {
        assert_eq!(diameter(&path(5)), Some(4));
        assert_eq!(radius(&path(5)), Some(2));
        assert_eq!(diameter(&cycle(8)), Some(4));
        assert_eq!(radius(&cycle(8)), Some(4));
        let disc = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&disc), None);
        assert_eq!(radius(&disc), None);
    }

    #[test]
    fn eccentricity_center_vs_leaf() {
        let g = path(5);
        assert_eq!(eccentricities(&g), Some(vec![4, 3, 2, 3, 4]));
    }

    #[test]
    fn weak_diameter_uses_host_distances() {
        // On a cycle C8, the set {0, 4} has weak diameter 4 (host
        // distance), even though the induced subgraph on {0,4} is edgeless.
        let g = cycle(8);
        assert_eq!(weak_diameter(&g, &[0, 4]), Some(4));
        assert_eq!(weak_diameter(&g, &[0]), Some(0));
        assert_eq!(weak_diameter(&g, &[]), Some(0));
        let disc = Graph::from_edges(2, &[]);
        assert_eq!(weak_diameter(&disc, &[0, 1]), None);
    }

    #[test]
    fn multi_source() {
        // A ball around a set is a multi-source BFS: the scratch holds
        // each vertex's distance from the nearest source.
        let g = path(6);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_into(&g, &mut s, &[0, 5], 6, &mut out);
        let d: Vec<Option<u32>> = g.vertices().map(|v| s.distance(v)).collect();
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn one_scratch_across_different_graphs_matches_fresh_buffers() {
        // The satellite contract: two consecutive BFS queries on
        // *different* graphs through one scratch must equal fresh-buffer
        // runs (no stale marks, no stale distances, no size confusion).
        let big = cycle(12);
        let small = path(5);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_into(&big, &mut s, &[0], 3, &mut out);
        out.sort_unstable();
        assert_eq!(out, ball(&big, 0, 3));
        ball_of_set_into(&small, &mut s, &[4], 2, &mut out);
        assert_eq!(out, vec![4, 3, 2]);
        ball_of_set_into(&big, &mut s, &[6, 7], 1, &mut out);
        assert_eq!(out, vec![6, 7, 5, 8]);
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(distance_capped_with(&small, &mut s, 0, 4, u32::MAX), Some(4));
        assert_eq!(distance_capped_with(&big, &mut s, 0, 6, u32::MAX), Some(6));
        assert_eq!(distance_capped_with(&disc, &mut s, 0, 3, u32::MAX), None);
    }

    #[test]
    fn stale_visited_marks_are_caught_by_epochs() {
        // Run a query that visits everything, then a small-radius query
        // around a previously-visited vertex: with a stale-visited bug
        // the second ball would come back empty or partial.
        let g = cycle(8);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_into(&g, &mut s, &[0], 100, &mut out);
        assert_eq!(out.len(), 8);
        ball_of_set_into(&g, &mut s, &[4], 1, &mut out);
        assert_eq!(out, vec![4, 3, 5]);
    }

    #[test]
    fn balls_come_in_bfs_order() {
        // Sources first (deduplicated, in the given order), then by
        // nondecreasing distance, so every smaller radius is a prefix.
        let g = cycle(10);
        let mut s = Scratch::new();
        let mut out = Vec::new();
        ball_of_set_into(&g, &mut s, &[5, 0, 5], 2, &mut out);
        assert_eq!(out, vec![5, 0, 4, 6, 1, 9, 3, 7, 2, 8]);
        let d: Vec<u32> = out.iter().map(|&v| s.distance(v).unwrap()).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "{d:?}");
        for r in 0..=2 {
            let mut prefix = out[..d.partition_point(|&dv| dv <= r)].to_vec();
            prefix.sort_unstable();
            assert_eq!(prefix, ball_of_set(&g, &[0, 5], r), "r={r}");
        }
    }
}
