//! Reusable traversal workspaces: visited epochs, BFS queue, distance
//! array.
//!
//! Every hot query of this crate (balls `N^r[v]`, component scans,
//! domination checks) needs a per-vertex "visited" flag
//! and a work queue. Allocating and zeroing those per call costs O(n)
//! even when the answer touches a handful of vertices; a [`Scratch`]
//! amortizes them across calls.
//!
//! # Reuse contract
//!
//! * A `Scratch` is a plain bag of buffers — it holds **no graph
//!   state**. The same scratch may serve graphs of different sizes
//!   back to back; each traversal begins with the crate-internal
//!   `Scratch::begin`, which grows the buffers to the current graph and
//!   opens a fresh *epoch*.
//! * "Visited" is `mark[v] == epoch`, so stale marks from previous
//!   traversals (same graph or not) are dead the moment the epoch
//!   advances — no clearing pass. On the (astronomically rare) epoch
//!   wraparound the mark array is zeroed once and the epoch restarts.
//! * `dist[v]` is only meaningful where `mark[v]` equals the current
//!   epoch. Never read it for an unvisited vertex; [`Scratch::distance`]
//!   is the checked read.
//! * A scratch is **not** reentrant: a traversal must not start a second
//!   traversal on the same scratch mid-flight. The thread-local pool
//!   ([`with_thread_scratch`]) falls back to a fresh scratch when the
//!   pooled one is already borrowed, so nested library calls stay
//!   correct (the inner call merely loses the reuse win).
//!
//! Results are bit-identical with or without reuse; every public query
//! in this crate is deterministic either way (asserted by the scratch
//! test-suite).

use crate::graph::Vertex;
use std::cell::RefCell;

/// A reusable traversal workspace. See the [module docs](self) for the
/// reuse contract.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Current epoch; `mark[v] == epoch` means "visited in the current
    /// traversal".
    epoch: u32,
    /// Vertex count of the current traversal's graph (the buffers may be
    /// larger from earlier, bigger graphs, so indexing alone cannot catch
    /// out-of-range vertices; see [`Scratch::check`]).
    bound: usize,
    /// Per-vertex visited epochs.
    mark: Vec<u32>,
    /// Per-vertex distances, valid only where `mark[v] == epoch`.
    pub(crate) dist: Vec<u32>,
    /// BFS queue storage (head index kept by the traversal).
    pub(crate) queue: Vec<Vertex>,
}

impl Scratch {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.reserve(n);
        s
    }

    /// Grows the per-vertex buffers, `mark` and `dist`, to cover `n`
    /// vertices (never shrinks). Every traversal calls this first, so
    /// a pooled scratch warmed on a small graph grows when the same
    /// thread later queries a larger one (a
    /// [`DynamicGraph`](crate::dynamic::DynamicGraph) grown past the
    /// warmed vertex count, say). The queue grows as a traversal pushes.
    pub fn reserve(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.dist.resize(n, 0);
        }
    }

    /// Opens a new traversal over a graph of `n` vertices: grows the
    /// buffers, clears the queue, and advances the epoch (zeroing the
    /// marks only on `u32` wraparound).
    pub(crate) fn begin(&mut self, n: usize) {
        self.reserve(n);
        self.bound = n;
        self.queue.clear();
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Asserts, in all builds, that every vertex of `vs` is in range for
    /// the current traversal's graph. The buffers may be larger than the
    /// graph (warmed by an earlier, bigger one), so indexing alone would
    /// let an out-of-range vertex read a stale mark. A traversal runs
    /// this once on the vertices its caller hands in; the vertices it
    /// reads off the graph's own CSR rows are in range by construction
    /// (every constructor validates neighbour ids), so the per-visit
    /// checks are debug-only.
    #[inline]
    pub(crate) fn check(&self, vs: &[Vertex]) {
        for &v in vs {
            assert!(v < self.bound, "vertex {v} out of range for graph of n={}", self.bound);
        }
    }

    /// Marks `v` visited in the current epoch. Returns `true` if it was
    /// unvisited.
    #[inline]
    pub(crate) fn visit(&mut self, v: Vertex) -> bool {
        debug_assert!(v < self.bound, "vertex {v} out of range for graph of n={}", self.bound);
        if self.mark[v] == self.epoch {
            false
        } else {
            self.mark[v] = self.epoch;
            true
        }
    }

    /// Whether `v` was visited in the current epoch.
    #[inline]
    pub(crate) fn visited(&self, v: Vertex) -> bool {
        debug_assert!(v < self.bound, "vertex {v} out of range for graph of n={}", self.bound);
        self.mark[v] == self.epoch
    }

    /// The distance the current traversal reached `v` at, or `None` if
    /// it has not reached `v`: after a [`bfs`](crate::bfs) ball or
    /// distance query, `v`'s distance from the sources. The other
    /// traversals on a `Scratch` record no distances, so read this only
    /// after a `bfs` call.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the traversal's graph, even
    /// when the buffers are larger.
    #[inline]
    pub fn distance(&self, v: Vertex) -> Option<u32> {
        self.check(&[v]);
        self.visited(v).then(|| self.dist[v])
    }

    /// Test-only: age the scratch to just before epoch wraparound.
    #[doc(hidden)]
    pub fn force_epoch_wraparound_imminent(&mut self) {
        self.epoch = u32::MAX - 1;
    }
}

/// A reusable workspace for *subset-restricted* queries: traversals of
/// an induced subgraph `G[S]` that never materialize the subgraph.
///
/// Where [`Scratch`] carries one visited-mark array, a subset traversal
/// needs several independent per-vertex facts at once — "is in `S`",
/// "adjacent to anchor `a`", "adjacent to anchor `b`", "visited by the
/// current traversal" and, for the lowpoint DFS, "separates" — so this
/// workspace keeps five epoch-marked arrays sharing a single epoch
/// counter, plus the DFS discovery times and lowpoints (meaningful only
/// for vertices visited in the current epoch). The same reuse contract as
/// [`Scratch`] applies: `begin` opens a fresh epoch (marks from earlier
/// subsets/graphs die instantly), buffers never shrink, and the
/// (astronomically rare) epoch wraparound zeroes all arrays once.
///
/// The consumers are the subset variants of the cut predicates —
/// [`crate::articulation::is_cut_vertex_in_ball`] (which takes its
/// subset from a [`Scratch`]'s BFS distances and marks no members),
/// [`crate::articulation::neighbor_separators_within`] and
/// [`crate::two_cuts::pair_profile_within`] — which sit on the local-cut
/// hot path of the Algorithm 1 pipeline.
#[derive(Debug, Clone, Default)]
pub struct SubsetScratch {
    epoch: u32,
    bound: usize,
    /// `in_set[v] == epoch` ⟺ `v ∈ S` for the current traversal.
    in_set: Vec<u32>,
    /// Adjacency marks for the two anchor vertices.
    adj_a: Vec<u32>,
    adj_b: Vec<u32>,
    /// BFS/DFS visited marks.
    seen: Vec<u32>,
    /// Separator marks of the lowpoint DFS.
    sep: Vec<u32>,
    /// DFS discovery times and lowpoints, valid only for vertices
    /// visited in the current epoch.
    pub(crate) disc: Vec<u32>,
    pub(crate) low: Vec<u32>,
    /// BFS queue storage (head index kept by the traversal).
    pub(crate) queue: Vec<Vertex>,
    /// DFS stack storage.
    pub(crate) stack: Vec<DfsFrame>,
}

/// One frame of the lowpoint DFS of
/// [`crate::articulation::neighbor_separators_within`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct DfsFrame {
    pub(crate) v: Vertex,
    /// The frame's cursor into `v`'s CSR row and the row's end, as
    /// positions in [`crate::csr::Csr::neighbor_array`].
    pub(crate) next: usize,
    pub(crate) end: usize,
    /// Whether the subtree below `v` holds a neighbor of the anchor.
    pub(crate) anchored: bool,
}

impl SubsetScratch {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers to cover `n` vertices (never shrinks).
    pub fn reserve(&mut self, n: usize) {
        if self.in_set.len() < n {
            self.in_set.resize(n, 0);
            self.adj_a.resize(n, 0);
            self.adj_b.resize(n, 0);
            self.seen.resize(n, 0);
            self.sep.resize(n, 0);
            self.disc.resize(n, 0);
            self.low.resize(n, 0);
        }
    }

    /// Opens a new traversal over a graph of `n` vertices restricted to
    /// the subset `set`: grows the buffers, clears the queue and the
    /// stack, advances the epoch, and marks the members.
    pub(crate) fn begin(&mut self, n: usize, set: &[Vertex]) {
        self.reserve(n);
        self.bound = n;
        self.queue.clear();
        self.stack.clear();
        if self.epoch == u32::MAX {
            self.in_set.fill(0);
            self.adj_a.fill(0);
            self.adj_b.fill(0);
            self.seen.fill(0);
            self.sep.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for &v in set {
            assert!(v < n, "subset vertex {v} out of range for graph of n={n}");
            self.in_set[v] = self.epoch;
        }
    }

    /// Whether `v` belongs to the current subset.
    #[inline]
    pub(crate) fn contains(&self, v: Vertex) -> bool {
        debug_assert!(v < self.bound);
        self.in_set[v] == self.epoch
    }

    /// Marks every vertex of `vs` (a `u32`-compact CSR row) as
    /// adjacent to anchor `a`.
    #[inline]
    pub(crate) fn mark_adj_a(&mut self, vs: &[u32]) {
        for &v in vs {
            self.adj_a[v as usize] = self.epoch;
        }
    }

    /// Marks every vertex of `vs` (a `u32`-compact CSR row) as
    /// adjacent to anchor `b`.
    #[inline]
    pub(crate) fn mark_adj_b(&mut self, vs: &[u32]) {
        for &v in vs {
            self.adj_b[v as usize] = self.epoch;
        }
    }

    /// Whether `v` was marked adjacent to anchor `a`.
    #[inline]
    pub(crate) fn adj_a(&self, v: Vertex) -> bool {
        self.adj_a[v] == self.epoch
    }

    /// Whether `v` was marked adjacent to anchor `b`.
    #[inline]
    pub(crate) fn adj_b(&self, v: Vertex) -> bool {
        self.adj_b[v] == self.epoch
    }

    /// Marks `v` visited in the current traversal; `true` if it was
    /// unvisited.
    #[inline]
    pub(crate) fn visit(&mut self, v: Vertex) -> bool {
        debug_assert!(v < self.bound);
        if self.seen[v] == self.epoch {
            false
        } else {
            self.seen[v] = self.epoch;
            true
        }
    }

    /// Whether `v` was visited in the current traversal.
    #[inline]
    pub(crate) fn visited(&self, v: Vertex) -> bool {
        self.seen[v] == self.epoch
    }

    /// Marks `v` as a separator in the current traversal.
    #[inline]
    pub(crate) fn mark_sep(&mut self, v: Vertex) {
        self.sep[v] = self.epoch;
    }

    /// Whether `v` was marked as a separator in the current traversal.
    #[inline]
    pub(crate) fn is_sep(&self, v: Vertex) -> bool {
        self.sep[v] == self.epoch
    }

    /// Test-only: age the workspace to just before epoch wraparound.
    #[doc(hidden)]
    pub fn force_epoch_wraparound_imminent(&mut self) {
        self.epoch = u32::MAX - 1;
    }
}

thread_local! {
    static POOL: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's pooled [`Scratch`].
///
/// The pool is what makes the allocation-free fast paths the *default*:
/// the convenience wrappers (`bfs::ball`, `connectivity::components_avoiding`,
/// `dominating::is_dominating_set`, …) all draw from it, so repeated
/// queries on one thread — a solver loop, a [`BatchRunner`] worker —
/// reuse one set of buffers without any API change. If the pooled
/// scratch is already borrowed (a nested library call), `f` runs on a
/// fresh temporary scratch instead; results are identical either way.
///
/// [`BatchRunner`]: https://docs.rs/lmds-api
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_previous_marks() {
        let mut s = Scratch::with_capacity(4);
        s.begin(4);
        assert!(s.visit(2));
        assert!(!s.visit(2));
        assert!(s.visited(2));
        // A new traversal must NOT see vertex 2 as visited: a stale
        // "visited" here is exactly the bug the epoch scheme prevents.
        s.begin(4);
        assert!(!s.visited(2));
        assert!(s.visit(2));
    }

    #[test]
    fn distance_answers_only_for_the_current_traversal() {
        let g = crate::Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut s = Scratch::new();
        let mut ball = Vec::new();
        crate::bfs::ball_of_set_into(&g, &mut s, &[1], 2, &mut ball);
        let dists: Vec<Option<u32>> = g.vertices().map(|v| s.distance(v)).collect();
        assert_eq!(dists, [Some(1), Some(0), Some(1), Some(2), None]);
        // A new traversal forgets the old distances.
        crate::bfs::ball_of_set_into(&g, &mut s, &[4], 1, &mut ball);
        assert_eq!((s.distance(1), s.distance(3)), (None, Some(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distance_is_bound_checked() {
        let g = crate::Graph::from_edges(2, &[(0, 1)]);
        let mut s = Scratch::with_capacity(8);
        crate::bfs::ball_of_set_into(&g, &mut s, &[0], 1, &mut Vec::new());
        s.distance(5);
    }

    /// A scratch warmed by a larger graph has buffers past the current
    /// graph's `n`, so indexing alone would read a stale mark for an
    /// out-of-range vertex: every traversal that takes vertices from its
    /// caller must reject them.
    #[test]
    fn out_of_range_caller_vertices_panic_on_a_warmed_scratch() {
        use crate::Graph;
        let big = Graph::from_edges(16, &[(0, 1)]);
        let small = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        type EntryPoint = fn(&Graph, &mut Scratch);
        let entry_points: [(&str, EntryPoint); 4] = [
            ("ball_of_set_into", |g, s| {
                crate::bfs::ball_of_set_into(g, s, &[7], 2, &mut Vec::new());
            }),
            ("distance_capped_with", |g, s| {
                crate::bfs::distance_capped_with(g, s, 7, 0, 4);
            }),
            ("dominates_with", |g, s| {
                crate::dominating::dominates_with(g, s, &[0], &[7]);
            }),
            ("is_vertex_cover_with", |g, s| {
                crate::vertex_cover::is_vertex_cover_with(g, s, &[7]);
            }),
        ];
        for (name, call) in entry_points {
            let mut s = Scratch::new();
            crate::bfs::ball_of_set_into(&big, &mut s, &[0], 1, &mut Vec::new());
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&small, &mut s)))
                    .expect_err(name);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("vertex 7 out of range for graph of n=3"), "{name}: {msg}");
        }
    }

    /// A scratch that only runs BFS holds its two 4-byte per-vertex
    /// arrays (the ball is its own queue): no 8-byte twin key per
    /// vertex, and no vertex-sized queue.
    #[test]
    fn bfs_grows_only_marks_and_distances() {
        let n = 100_000;
        let path: Vec<(Vertex, Vertex)> = (1..n).map(|v| (v - 1, v)).collect();
        let g = crate::Graph::from_edges(n, &path);
        let mut s = Scratch::new();
        let mut ball = Vec::new();
        crate::bfs::ball_of_set_into(&g, &mut s, &[n / 2], 3, &mut ball);
        assert_eq!(ball.len(), 7);
        assert_eq!((s.mark.capacity(), s.dist.capacity()), (n, n));
        assert!(s.queue.capacity() < 64, "queue capacity {}", s.queue.capacity());
    }

    #[test]
    fn growing_between_traversals_keeps_fresh_marks() {
        let mut s = Scratch::new();
        s.begin(2);
        s.visit(0);
        s.visit(1);
        // Larger graph next: the newly grown region must read unvisited
        // and the old region must have been invalidated by the epoch.
        s.begin(5);
        for v in 0..5 {
            assert!(!s.visited(v), "vertex {v} leaked a stale mark");
        }
    }

    #[test]
    fn wraparound_resets_marks_once() {
        let mut s = Scratch::with_capacity(3);
        s.force_epoch_wraparound_imminent();
        s.begin(3); // epoch == u32::MAX now
        s.visit(1);
        assert!(s.visited(1));
        s.begin(3); // wraparound: marks zeroed, epoch restarts at 1
        assert!(!s.visited(1));
        assert!(s.visit(1));
        assert!(!s.visit(1));
    }

    #[test]
    fn subset_scratch_epochs_invalidate_previous_traversal() {
        let mut s = SubsetScratch::new();
        s.begin(5, &[0, 2, 4]);
        assert!(s.contains(0) && s.contains(2) && s.contains(4));
        assert!(!s.contains(1) && !s.contains(3));
        s.mark_adj_a(&[1, 2]);
        s.mark_adj_b(&[3]);
        assert!(s.adj_a(2) && !s.adj_a(3));
        assert!(s.adj_b(3) && !s.adj_b(2));
        assert!(s.visit(2));
        assert!(!s.visit(2));
        s.mark_sep(4);
        assert!(s.is_sep(4) && !s.is_sep(2));
        // New subset, bigger graph: every earlier mark must be dead.
        s.begin(7, &[1]);
        for v in 0..7 {
            assert!(!s.visited(v), "stale visited at {v}");
            assert!(!s.is_sep(v), "stale separator at {v}");
            assert!(!s.adj_a(v) && !s.adj_b(v), "stale adjacency at {v}");
            assert_eq!(s.contains(v), v == 1, "membership at {v}");
        }
    }

    #[test]
    fn subset_scratch_wraparound_resets_marks() {
        let mut s = SubsetScratch::new();
        s.force_epoch_wraparound_imminent();
        s.begin(3, &[0, 1]); // epoch == u32::MAX now
        s.mark_adj_a(&[1]);
        s.mark_sep(1);
        assert!(s.contains(0) && s.adj_a(1) && s.is_sep(1));
        s.begin(3, &[2]); // wraparound: arrays zeroed, epoch restarts
        assert!(!s.contains(0) && !s.adj_a(1) && !s.is_sep(1));
        assert!(s.contains(2));
    }

    #[test]
    fn thread_pool_falls_back_when_nested() {
        // Nested borrow must not panic; the inner closure gets a fresh
        // scratch.
        with_thread_scratch(|outer| {
            outer.begin(3);
            outer.visit(0);
            with_thread_scratch(|inner| {
                inner.begin(3);
                assert!(!inner.visited(0));
            });
            assert!(outer.visited(0));
        });
    }
}
