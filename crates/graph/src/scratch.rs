//! Reusable traversal workspaces: visited epochs, BFS queue, distance
//! array.
//!
//! Every hot query of this crate (balls `N^r[v]`, component scans,
//! domination checks, twin grouping) needs a per-vertex "visited" flag
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
//!   epoch. Never read it for an unvisited vertex.
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
    /// Vertex count of the current traversal's graph (debug bound: the
    /// buffers may be larger from earlier, bigger graphs, so indexing
    /// alone cannot catch out-of-range vertices).
    bound: usize,
    /// Per-vertex visited epochs.
    mark: Vec<u32>,
    /// Per-vertex distances, valid only where `mark[v] == epoch`.
    pub(crate) dist: Vec<u32>,
    /// BFS queue storage (head index kept by the traversal).
    pub(crate) queue: Vec<Vertex>,
    /// Per-vertex 64-bit keys (twin-grouping hashes).
    pub(crate) key: Vec<u64>,
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

    /// Grows the buffers to cover `n` vertices (never shrinks).
    ///
    /// Every per-vertex buffer grows here, `key` included: a pooled
    /// scratch warmed on a small graph must stay safe when the same
    /// thread later queries a [`DynamicGraph`](crate::dynamic::DynamicGraph)
    /// that has grown past the warmed vertex count (the buffers are
    /// sized by the *largest* graph seen, not the first one).
    pub fn reserve(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.dist.resize(n, 0);
        }
        if self.key.len() < n {
            self.key.resize(n, 0);
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

    /// Marks `v` visited in the current epoch. Returns `true` if it was
    /// unvisited.
    ///
    /// The bound check is a hard assert: the buffers may be larger than
    /// the current graph (warmed by an earlier, bigger one), so without
    /// it an out-of-range vertex would silently read a stale mark — the
    /// pre-scratch code's `vec![false; n]` panicked here in all builds.
    #[inline]
    pub(crate) fn visit(&mut self, v: Vertex) -> bool {
        assert!(v < self.bound, "vertex {v} out of range for graph of n={}", self.bound);
        if self.mark[v] == self.epoch {
            false
        } else {
            self.mark[v] = self.epoch;
            true
        }
    }

    /// Whether `v` was visited in the current epoch. Bound-checked like
    /// [`Scratch::visit`].
    #[inline]
    pub(crate) fn visited(&self, v: Vertex) -> bool {
        assert!(v < self.bound, "vertex {v} out of range for graph of n={}", self.bound);
        self.mark[v] == self.epoch
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
/// [`crate::articulation::is_cut_vertex_within`],
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
    /// DFS stack storage: `(vertex, next neighbor index, subtree holds
    /// an anchor neighbor)`.
    pub(crate) stack: Vec<(Vertex, u32, bool)>,
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
