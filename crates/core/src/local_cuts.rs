//! Local cuts (Definition 2.1) and interesting vertices (§3.2).
//!
//! * `{v}` is an **`r`-local minimal 1-cut** iff `v` is a cut vertex of
//!   `G[N^r[v]]`.
//! * `{u, v}` (with `d_G(u,v) ≤ r`) is an **`r`-local minimal 2-cut**
//!   iff it is a minimal 2-cut of `H = G[N^r[u] ∪ N^r[v]]`.
//! * `v` is **`r`-interesting** iff some `r`-local minimal 2-cut
//!   `c = {u, v}` has `N[v] ⊄ N[u]` and at least two components of
//!   `H − c` each contain a vertex non-adjacent to `u`.
//!
//! Two implementations live here:
//!
//! * The **[`CutEngine`]** — the production path. One engine run
//!   computes every per-vertex ball exactly once, together with the
//!   ball's *separator candidates* (one lowpoint DFS per ball,
//!   [`neighbor_separators_within`](lmds_graph::articulation::neighbor_separators_within)),
//!   evaluates each unordered pair `{u, v}` that is a candidate on both
//!   sides exactly once (both interestingness orientations fall out of a
//!   single
//!   [`pair_profile_within`](lmds_graph::two_cuts::pair_profile_within)
//!   component scan of `H − {u, v}`, with no subgraph ever
//!   materialized), and shards the per-vertex outer loops across
//!   [`lmds_graph::par`] workers on large graphs. All whole-graph queries
//!   ([`local_one_cut_vertices`], [`local_two_cuts`],
//!   [`interesting_vertices`]) and the Algorithm 1 pipeline ride it via
//!   the thread-local [`with_thread_engine`] pool.
//! * The **naive reference predicates** ([`is_local_one_cut`],
//!   [`is_local_two_cut`], [`is_interesting_via`], [`is_interesting`]) —
//!   direct transcriptions of Definition 2.1/§3.2 that extract each
//!   subgraph explicitly. They are the correctness oracle: the
//!   equivalence suite (`tests/cut_engine_equivalence.rs`) asserts the
//!   engine matches them bit-for-bit across the generator corpus, so
//!   engine outputs are byte-identical to the pre-engine ones.
//!
//! **Lemma (separator prefilter).** For `r ≥ 1` and `v ∈ N^r[u]`: if
//! `{u, v}` is an `r`-local minimal 2-cut, then `v` separates
//! `N(u) ∖ {v}` in `G[N^r[u]] − u` (or `u` is a cut vertex of
//! `G[N^r[u]]`), and symmetrically for `u` in `v`'s ball. Indeed
//! `G[N^r[u]] ⊆ H = G[N^r[u] ∪ N^r[v]]`, and minimality makes every
//! component of `H − {u, v}` adjacent to `u`, so `u` has neighbors in
//! two components of `H − {u, v}` — and hence of its own ball minus
//! `{u, v}`. The engine therefore profiles only pairs marked on both
//! sides (about 6% of the in-range pairs on the chain family at
//! `r = 4`), with unchanged outputs; [`CutEngine`] spells out the proof.
//!
//! The distributed algorithms recompute the same predicates from node
//! views and are tested to agree.

use lmds_graph::scratch::Scratch;
use lmds_graph::{articulation, bfs, par, two_cuts};
use lmds_graph::{FixedBitSet, Graph, InducedSubgraph, SubsetScratch, Vertex};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this vertex count the engine stays single-threaded: the scoped
/// thread spawn + per-worker warm-up costs more than the sweep itself
/// (the adaptive LOCAL deciders call the engine on many small view
/// graphs per round, which must stay cheap).
const PARALLEL_THRESHOLD: usize = 640;

/// The worker count of a sweep over the `n` vertices of a graph.
fn sweep_workers(n: usize) -> usize {
    par::workers(n, PARALLEL_THRESHOLD, n)
}

/// The shared-work engine behind every Definition-2.1 predicate sweep.
///
/// What is shared within one run, and why the outputs cannot drift from
/// the naive reference:
///
/// * **Balls once.** Every `N^r[v]` is computed once into a flat CSR-ish
///   index; the naive path re-derives balls per pair and re-checks
///   `d(u, v)` with a full-graph BFS, but "`d(u, v) ≤ r`" is exactly
///   "`v ∈ N^r[u]`" — a lookup in the index, same predicate.
/// * **Separators first.** Building the index also runs one lowpoint
///   DFS per ball
///   ([`articulation::neighbor_separators_within`])
///   that marks the *separator candidates* of `u`: each `v ∈ N^r[u]`
///   whose removal leaves `N(u) ∖ {v}` in two or more components of
///   `G[N^r[u]] − {u, v}`, or all of `N^r[u] ∖ {u}` when `u` is a cut
///   vertex of its ball. Only pairs marked on both sides are profiled.
/// * **Pairs once.** `{u, v}` and `{v, u}` name the same cut `H`; the
///   engine scans `H − {u, v}` once and reads off both interestingness
///   orientations (witness components non-adjacent to `u` mark `v`, and
///   vice versa), where the naive path rebuilds `H` up to four times.
/// * **No subgraphs.** Minimality and witness counts come from
///   [`two_cuts::pair_profile_within`] /
///   [`articulation::is_cut_vertex_within`],
///   which traverse `G` restricted to an epoch-marked member set —
///   no `InducedSubgraph` construction, no per-pair allocation.
/// * **Sharding is observation-free.** On graphs past the size
///   threshold the per-vertex outer loops run on [`lmds_graph::par`]
///   workers in contiguous chunks, each with its own traversal buffers
///   (the calling thread keeps the engine's own); the X sweep writes
///   disjoint chunks of its mask, the index build fills one shard per
///   chunk, and the pair sweep's workers write private monotone masks
///   that are OR-merged, so the result is independent of the worker
///   count and schedule.
///
/// **Lemma (the prefilter is sound).** Let `r ≥ 1` and `v ∈ N^r[u]`. If
/// `{u, v}` is a minimal 2-cut of `H = G[N^r[u] ∪ N^r[v]]`, then `v` is
/// a separator candidate of `u` and `u` one of `v`. *Proof.* `H − {u, v}`
/// has at least two components and each is adjacent to `u` (else `{v}`
/// alone would separate `H`), so `u` has neighbors in two components of
/// `H − {u, v}`. Those neighbors lie in `N^r[u]`, and
/// `G[N^r[u]] − {u, v}` is a subgraph of `H − {u, v}`, so they stay in
/// different components there: `v` is marked in `u`'s ball. The same
/// argument from `v`'s side marks `u` in `v`'s ball. ∎ Skipping every
/// other pair therefore skips only pairs whose profile would be
/// discarded, and the equivalence suite pins the outputs to the naive
/// reference.
///
/// A `CutEngine` is a plain bag of reusable buffers (like [`Scratch`]);
/// apart from the counts of its last pair sweep it holds no graph state
/// between runs and may serve graphs of different sizes back to back.
///
/// **Memory profile:** the pair sweeps hold every ball of the run at
/// once — `Σ_v |N^r[v]|` `u32` entries plus one candidate bit per
/// entry, in buffers kept across runs. That is the deliberate trade of
/// this engine (balls are the shared work), sized for the paper's
/// regime: minor-free graphs at small local radii, where balls are
/// bounded. At radii near the diameter, or on dense graphs, the index
/// degenerates to `Θ(n²)` — the same regime where the predicates
/// themselves are quadratic; keep such runs to analysis-scale inputs
/// (as the pre-engine implementations also required).
#[derive(Debug, Default)]
pub struct CutEngine {
    /// Ball index (with candidate bits) for the current radius-`r` run.
    balls: BallIndex,
    /// The calling thread's traversal buffers (spawned sweep workers
    /// bring their own).
    bufs: Buffers,
    /// Work counts of the last pair sweep.
    counts: PairCounts,
}

/// The work of one pair sweep, as [`CutEngine::pair_counts`] reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Unordered pairs `{u, v}` with `d(u, v) ≤ r` — every pair
    /// Definition 2.1 ranges over.
    pub in_range: usize,
    /// Pairs whose `H − {u, v}` was scanned: separator candidates on
    /// both sides, not already settled by monotone marking.
    pub profiled: usize,
    /// Profiled pairs that are minimal 2-cuts of their `H`.
    pub cuts: usize,
}

/// Every ball `N^r[v]` of one run with its candidate bits, in one shard
/// per contiguous vertex chunk of the build: shard `k` holds the balls
/// of `k·span .. (k + 1)·span`. Shards keep their buffers across runs
/// with the same shard count.
#[derive(Debug, Default)]
struct BallIndex {
    n: usize,
    span: usize,
    shards: Vec<BallShard>,
}

/// One chunk's balls: the shard's `i`-th ball is
/// `verts[offsets[i]..offsets[i + 1]]`, sorted, and bit `j` of `cand`
/// is set iff `verts[j]` is a separator candidate of that ball's center.
#[derive(Debug, Default)]
struct BallShard {
    offsets: Vec<usize>,
    verts: Vec<u32>,
    cand: Vec<u64>,
}

/// One ball of the index.
#[derive(Clone, Copy)]
struct Ball<'a> {
    verts: &'a [u32],
    cand: &'a [u64],
    /// Position of `verts[0]` in the shard (the bit offset).
    base: usize,
}

impl Ball<'_> {
    fn is_candidate(&self, j: usize) -> bool {
        let bit = self.base + j;
        self.cand[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Whether `v` is in this ball and marked as a candidate.
    fn has_candidate(&self, v: Vertex) -> bool {
        self.verts.binary_search(&(v as u32)).is_ok_and(|j| self.is_candidate(j))
    }
}

impl BallIndex {
    fn ball(&self, v: Vertex) -> Ball<'_> {
        let shard = &self.shards[v / self.span];
        let i = v % self.span;
        let (lo, hi) = (shard.offsets[i], shard.offsets[i + 1]);
        Ball { verts: &shard.verts[lo..hi], cand: &shard.cand, base: lo }
    }

    /// Unordered pairs within distance `r`: every ball holds its center
    /// and the relation is symmetric.
    fn pairs_in_range(&self) -> usize {
        let entries: usize = self.shards.iter().map(|s| s.verts.len()).sum();
        (entries - self.n) / 2
    }

    /// The pair partners of `u` that can form a minimal 2-cut with it:
    /// every `v > u` in `N^r[u]` that is a separator candidate of `u`
    /// while `u` is one of `v` (see the soundness lemma on
    /// [`CutEngine`]).
    fn partners(&self, u: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        let ball = self.ball(u);
        ball.verts.iter().enumerate().filter_map(move |(j, &v)| {
            let v = v as Vertex;
            (v > u && ball.is_candidate(j) && self.ball(v).has_candidate(u)).then_some(v)
        })
    }
}

impl BallShard {
    /// Refills the shard with the balls of `range` and their candidate
    /// bits, reusing its buffers.
    fn fill(&mut self, g: &Graph, r: u32, range: Range<Vertex>, b: &mut Buffers) {
        self.offsets.clear();
        self.verts.clear();
        self.cand.clear();
        self.offsets.push(0);
        for u in range {
            bfs::ball_of_set_into(g, &mut b.scratch, &[u], r, &mut b.ball);
            articulation::neighbor_separators_within(g, &mut b.subset, &b.ball, u, &mut b.flags);
            let base = self.verts.len();
            self.verts.extend(b.ball.iter().map(|&v| v as u32));
            self.cand.resize(self.verts.len().div_ceil(64), 0);
            for (j, &flag) in b.flags.iter().enumerate() {
                let bit = base + j;
                self.cand[bit / 64] |= u64::from(flag) << (bit % 64);
            }
            self.offsets.push(self.verts.len());
        }
    }
}

/// One sweep worker's reusable traversal buffers.
#[derive(Debug, Default)]
struct Buffers {
    scratch: Scratch,
    subset: SubsetScratch,
    /// Merge buffer for `H = N^r[u] ∪ N^r[v]`.
    merged: Vec<Vertex>,
    /// Single-ball buffer for the 1-cut sweep and the ball index.
    ball: Vec<Vertex>,
    /// Separator flags of `ball` for the ball index.
    flags: Vec<bool>,
}

/// What the pair sweep records into the mask.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PairMode {
    /// Mark `v` iff interesting via some friend (the §3.2 filter).
    Interesting,
    /// Mark both endpoints of every local minimal 2-cut.
    Endpoints,
}

impl CutEngine {
    /// A fresh engine (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The mask of `r`-local minimal 1-cut vertices: `mask[v]` iff `v`
    /// is a cut vertex of `G[N^r[v]]`. Equals [`is_local_one_cut`] per
    /// vertex.
    pub fn one_cut_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        self.one_cut_mask_on(g, r, sweep_workers(g.n()))
    }

    /// [`CutEngine::one_cut_mask`] on an explicit worker count.
    fn one_cut_mask_on(&mut self, g: &Graph, r: u32, workers: usize) -> Vec<bool> {
        let mut mask = vec![false; g.n()];
        par::map_chunks(workers, &mut mask, &mut self.bufs, |b, v, slot| {
            *slot = b.one_cut_at(g, v, r);
        });
        mask
    }

    /// The mask of `r`-interesting vertices. Equals [`is_interesting`]
    /// per vertex.
    pub fn interesting_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        self.pair_mask(g, r, PairMode::Interesting, sweep_workers(g.n()))
    }

    /// The mask of vertices lying in *some* `r`-local minimal 2-cut
    /// (both endpoints, no interestingness filter — the MVC variant's
    /// `S` contribution and the `interesting_filter: false` ablation).
    pub fn two_cut_endpoint_mask(&mut self, g: &Graph, r: u32) -> Vec<bool> {
        self.pair_mask(g, r, PairMode::Endpoints, sweep_workers(g.n()))
    }

    /// All `r`-local minimal 2-cuts as `(u, v)` pairs with `u < v`,
    /// sorted — [`local_two_cuts`]' engine. Every pair that passes the
    /// separator prefilter is profiled (no early exit), each exactly
    /// once.
    pub fn two_cuts(&mut self, g: &Graph, r: u32) -> Vec<(Vertex, Vertex)> {
        self.compute_balls(g, r, sweep_workers(g.n()));
        let CutEngine { balls, bufs, counts } = self;
        let mut out = Vec::new();
        let mut profiled = 0;
        for u in g.vertices() {
            for v in balls.partners(u) {
                profiled += 1;
                if bufs.pair_profile(g, balls, u, v).is_minimal_two_cut() {
                    out.push((u, v));
                }
            }
        }
        *counts = PairCounts { in_range: balls.pairs_in_range(), profiled, cuts: out.len() };
        out
    }

    /// The work counts of the last pair sweep ([`CutEngine::interesting_mask`],
    /// [`CutEngine::two_cut_endpoint_mask`] or [`CutEngine::two_cuts`]).
    /// With the monotone skip of the mask sweeps, `profiled` can depend
    /// on the worker count; the masks never do.
    pub fn pair_counts(&self) -> PairCounts {
        self.counts
    }

    /// Fills the ball index for radius `r` on `workers` workers, one
    /// shard per contiguous vertex chunk.
    fn compute_balls(&mut self, g: &Graph, r: u32, workers: usize) {
        let n = g.n();
        let span = n.div_ceil(workers.max(1)).max(1);
        let shards = n.div_ceil(span);
        let balls = &mut self.balls;
        (balls.n, balls.span) = (n, span);
        balls.shards.resize_with(shards, BallShard::default);
        par::map_chunks(shards, &mut balls.shards, &mut self.bufs, |b, k, shard| {
            shard.fill(g, r, k * span..((k + 1) * span).min(n), b);
        });
    }

    /// The shared pair sweep on `workers` workers: every unordered pair
    /// `{u, v}` with `d(u, v) ≤ r` that passes the separator prefilter
    /// evaluated once. Pairs whose both endpoints are already marked
    /// are skipped — marking is monotone, so this prunes work without
    /// changing the result.
    fn pair_mask(&mut self, g: &Graph, r: u32, mode: PairMode, workers: usize) -> Vec<bool> {
        self.compute_balls(g, r, workers);
        let CutEngine { balls, bufs, counts } = self;
        let balls = &*balls;
        let (profiled, cuts) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mask = par::or_masks(workers, g.n(), bufs, |b, range, mask| {
            let mut tally = PairCounts::default();
            for u in range {
                b.scan_pairs_for(g, balls, u, mode, mask, &mut tally);
            }
            profiled.fetch_add(tally.profiled, Ordering::Relaxed);
            cuts.fetch_add(tally.cuts, Ordering::Relaxed);
        });
        *counts = PairCounts {
            in_range: balls.pairs_in_range(),
            profiled: profiled.into_inner(),
            cuts: cuts.into_inner(),
        };
        mask.to_bools()
    }
}

impl Buffers {
    /// Whether `v` is a cut vertex of `G[N^r[v]]`.
    fn one_cut_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        bfs::ball_of_set_into(g, &mut self.scratch, &[v], r, &mut self.ball);
        articulation::is_cut_vertex_within(g, &mut self.subset, &self.ball, v)
    }

    /// Profiles the pair `{u, v}` inside `H = N^r[u] ∪ N^r[v]` (balls
    /// from the index; `H` assembled by sorted merge, never
    /// materialized as a graph).
    fn pair_profile(
        &mut self,
        g: &Graph,
        balls: &BallIndex,
        u: Vertex,
        v: Vertex,
    ) -> two_cuts::PairProfile {
        merge_sorted(balls.ball(u).verts, balls.ball(v).verts, &mut self.merged);
        two_cuts::pair_profile_within(g, &mut self.subset, &self.merged, u, v)
    }

    /// One outer-loop step of the pair sweep: the prefiltered partners
    /// `v > u` of `u`, counted into `tally`.
    fn scan_pairs_for(
        &mut self,
        g: &Graph,
        balls: &BallIndex,
        u: Vertex,
        mode: PairMode,
        mask: &mut FixedBitSet,
        tally: &mut PairCounts,
    ) {
        for v in balls.partners(u) {
            if mask.contains(u) && mask.contains(v) {
                continue;
            }
            tally.profiled += 1;
            let profile = self.pair_profile(g, balls, u, v);
            if !profile.is_minimal_two_cut() {
                continue;
            }
            tally.cuts += 1;
            match mode {
                PairMode::Endpoints => {
                    mask.set(u);
                    mask.set(v);
                }
                PairMode::Interesting => {
                    // v is interesting via friend u: ≥ 2 witness
                    // components non-adjacent to u, and N[v] ⊄ N[u];
                    // symmetrically for u.
                    if !mask.contains(v)
                        && profile.witnesses_nonadj_a >= 2
                        && !g.closed_neighborhood_subset(v, u)
                    {
                        mask.set(v);
                    }
                    if !mask.contains(u)
                        && profile.witnesses_nonadj_b >= 2
                        && !g.closed_neighborhood_subset(u, v)
                    {
                        mask.set(u);
                    }
                }
            }
        }
    }
}

/// Merges two sorted `u32` ball entry lists into `out` (cleared first),
/// widening to [`Vertex`] and dropping duplicates.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<Vertex>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i] as Vertex);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j] as Vertex);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i] as Vertex);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().chain(&b[j..]).map(|&v| v as Vertex));
}

thread_local! {
    static ENGINE_POOL: RefCell<CutEngine> = RefCell::new(CutEngine::new());
}

/// Runs `f` with this thread's pooled [`CutEngine`] — the same pattern
/// as [`lmds_graph::scratch::with_thread_scratch`]. The adaptive LOCAL
/// deciders call the pipeline once per vertex per round; the pool makes
/// those calls reuse one set of ball/merge/traversal buffers per worker
/// thread. Falls back to a fresh engine if the pooled one is already
/// borrowed (nested call), with identical results.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut CutEngine) -> R) -> R {
    ENGINE_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut e) => f(&mut e),
        Err(_) => f(&mut CutEngine::new()),
    })
}

// ---------------------------------------------------------------------
// Whole-graph queries (engine-backed).
// ---------------------------------------------------------------------

/// All vertices forming `r`-local minimal 1-cuts, sorted.
/// Engine-backed; equals filtering by [`is_local_one_cut`].
pub fn local_one_cut_vertices(g: &Graph, r: u32) -> Vec<Vertex> {
    with_thread_engine(|e| mask_to_vertices(&e.one_cut_mask(g, r)))
}

/// All `r`-local minimal 2-cuts of `g`, as `(u, v)` pairs with `u < v`,
/// sorted. Engine-backed: each unordered pair within distance `r` that
/// passes the separator prefilter is profiled exactly once, with no
/// subgraph construction. Quadratic in
/// ball sizes (and the engine holds all balls at once) — intended for
/// the bounded-ball radii of the pipeline and the analysis
/// experiments.
pub fn local_two_cuts(g: &Graph, r: u32) -> Vec<(Vertex, Vertex)> {
    with_thread_engine(|e| e.two_cuts(g, r))
}

/// All `r`-interesting vertices, sorted. Engine-backed; equals
/// filtering by [`is_interesting`].
pub fn interesting_vertices(g: &Graph, r: u32) -> Vec<Vertex> {
    with_thread_engine(|e| mask_to_vertices(&e.interesting_mask(g, r)))
}

/// The sorted vertex list a boolean mask denotes (crate-shared so
/// every mask consumer converts the same way).
pub(crate) fn mask_to_vertices(mask: &[bool]) -> Vec<Vertex> {
    mask.iter().enumerate().filter_map(|(v, &m)| m.then_some(v)).collect()
}

// ---------------------------------------------------------------------
// Naive reference predicates (Definition 2.1 / §3.2 verbatim). These
// extract every subgraph explicitly; the equivalence suite pins the
// engine to them.
// ---------------------------------------------------------------------

/// Whether `{v}` is an `r`-local minimal 1-cut of `g`. Naive reference:
/// extracts `G[N^r[v]]` and runs the full lowpoint DFS.
pub fn is_local_one_cut(g: &Graph, v: Vertex, r: u32) -> bool {
    let sub = InducedSubgraph::new(g, &bfs::ball(g, v, r));
    let local = sub.from_host(v).expect("center is in its own ball");
    articulation::cut_structure(&sub.graph).is_articulation[local]
}

/// Whether `{u, v}` is an `r`-local minimal 2-cut of `g`. Naive
/// reference: capped-BFS distance check, then the three `separates`
/// passes on the extracted `H`.
pub fn is_local_two_cut(g: &Graph, u: Vertex, v: Vertex, r: u32) -> bool {
    if u == v || bfs::distance_capped(g, u, v, r).is_none() {
        return false;
    }
    let h = cut_neighborhood(g, u, v, r);
    let (lu, lv) = (h.from_host(u).expect("u in its ball"), h.from_host(v).expect("v in its ball"));
    two_cuts::is_minimal_two_cut(&h.graph, lu, lv)
}

/// `H = G[N^r[u] ∪ N^r[v]]` with host mapping.
fn cut_neighborhood(g: &Graph, u: Vertex, v: Vertex, r: u32) -> InducedSubgraph {
    InducedSubgraph::new(g, &bfs::ball_of_set(g, &[u, v], r))
}

/// Whether `v` is `r`-interesting *via* the specific friend `u`
/// (assumes nothing; checks the local-2-cut condition too). Naive
/// reference.
pub fn is_interesting_via(g: &Graph, v: Vertex, u: Vertex, r: u32) -> bool {
    if !is_local_two_cut(g, u, v, r) {
        return false;
    }
    // N[v] ⊈ N[u] in G (equivalently within the ball, since r ≥ 1).
    if g.closed_neighborhood_subset(v, u) {
        return false;
    }
    // ≥ 2 components of H − {u,v} each containing a vertex non-adjacent
    // to u.
    let h = cut_neighborhood(g, u, v, r);
    let (lu, lv) = (h.from_host(u).unwrap(), h.from_host(v).unwrap());
    let comps = two_cuts::components_attached(&h.graph, lu, lv);
    let mut witnesses = 0;
    for comp in comps {
        if comp.iter().any(|&w| !h.graph.has_edge(w, lu) && w != lu) {
            witnesses += 1;
            if witnesses >= 2 {
                return true;
            }
        }
    }
    false
}

/// Whether `v` is `r`-interesting (some friend works). Naive reference.
pub fn is_interesting(g: &Graph, v: Vertex, r: u32) -> bool {
    bfs::ball(g, v, r).into_iter().any(|u| u != v && is_interesting_via(g, v, u, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.cycle(&vs);
        b.build()
    }

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs = b.fresh_vertices(n);
        b.path(&vs);
        b.build()
    }

    #[test]
    fn long_cycle_every_vertex_is_local_one_cut() {
        // The paper's cautionary example: on C_n with r < ~n/2, every
        // vertex is an r-local 1-cut but no global 1-cut exists.
        let g = cycle(20);
        for r in [1u32, 3, 5] {
            assert_eq!(local_one_cut_vertices(&g, r).len(), 20, "r={r}");
        }
        // Once the ball wraps around, no vertex is a local 1-cut.
        assert!(local_one_cut_vertices(&g, 10).is_empty());
        assert!(local_one_cut_vertices(&g, 100).is_empty());
    }

    #[test]
    fn global_radius_matches_global_cuts() {
        let g = path(7);
        let local = local_one_cut_vertices(&g, 100);
        let global = lmds_graph::articulation::articulation_points(&g);
        assert_eq!(local, global);
    }

    #[test]
    fn local_one_cuts_decrease_with_radius() {
        // Monotonicity (paper §2): no r-local cuts ⟹ no r'-local cuts
        // for r' > r. Equivalently, the set shrinks as r grows.
        let g = cycle(16);
        let mut prev = usize::MAX;
        for r in 1..=9 {
            let c = local_one_cut_vertices(&g, r).len();
            assert!(c <= prev, "r={r}");
            prev = c;
        }
    }

    #[test]
    fn local_two_cuts_on_cycle() {
        let g = cycle(12);
        // With a small radius the joint ball is a *path*, where each
        // singleton already separates — so no pair is a *minimal* local
        // 2-cut. (This is why Algorithm 1 takes local 1-cuts first.)
        assert!(local_two_cuts(&g, 3).is_empty());
        // Once balls wrap around (r ≥ 6), H = C12: minimal 2-cuts are
        // exactly the non-adjacent pairs.
        let global = local_two_cuts(&g, 6);
        assert_eq!(global.len(), 12 * 9 / 2);
        assert!(global.contains(&(0, 2)));
        assert!(!global.contains(&(0, 1)));
        assert_eq!(local_two_cuts(&g, 100), global);
    }

    #[test]
    fn local_two_cuts_on_subdivided_hubs() {
        // Hubs 0,1 joined by three length-3 paths: {0,1} is a local
        // minimal 2-cut already at radius 2 (d(0,1) = 3 > 2 fails) —
        // use radius 3.
        let g = lmds_gen::adversarial::subdivided_k2t(3);
        assert!(is_local_two_cut(&g, 0, 1, 3));
        assert!(local_two_cuts(&g, 3).contains(&(0, 1)));
    }

    #[test]
    fn c6_opposite_cuts_are_interesting() {
        // §5.3: on C6, the cuts {0,3}, {1,4}, {2,5} are interesting at
        // global radius (both sides contain a vertex non-adjacent to the
        // friend and neighborhoods are incomparable).
        let g = cycle(6);
        for v in 0..6 {
            assert!(is_interesting(&g, v, 100), "vertex {v}");
            assert!(is_interesting_via(&g, v, (v + 3) % 6, 100));
        }
    }

    #[test]
    fn c4_has_no_interesting_vertices() {
        // On C4 each 2-cut {u, v} has both components being single
        // vertices adjacent to u — no two witnesses non-adjacent to u.
        let g = cycle(4);
        assert!(interesting_vertices(&g, 100).is_empty());
    }

    #[test]
    fn c5_has_no_interesting_vertices() {
        // On C5, a 2-cut {u,v} at distance 2 splits into a single vertex
        // (adjacent to both) and an edge; only one component carries a
        // non-neighbor of u. (Paper: G = C_k with k ≤ 5 has no
        // interesting vertices.)
        let g = cycle(5);
        assert!(interesting_vertices(&g, 100).is_empty());
    }

    #[test]
    fn clique_pendant_hub_filtering() {
        // The §4 example: clique vertices v ≠ u sit in minimal 2-cuts
        // {0, v} but must NOT be interesting via 0 at global radius:
        // the pendant component is adjacent to the hub 0, and the rest of
        // the clique is adjacent to 0 too, so at most one witness
        // component has a vertex non-adjacent to the *friend* — and in
        // fact N[x_{uv}]-style checks kill these cuts.
        let g = lmds_gen::adversarial::clique_with_pendants(6);
        let n_interesting = interesting_vertices(&g, 100).len();
        let mds = lmds_graph::dominating::exact_mds(&g).len();
        assert_eq!(mds, 1);
        // Lemma 3.3 promises O(MDS); the whole point of the example is
        // that this stays tiny while #2-cut-vertices is ~n.
        let two_cut_vertices: std::collections::HashSet<usize> =
            lmds_graph::two_cuts::minimal_two_cuts(&g)
                .into_iter()
                .flat_map(|(a, b)| [a, b])
                .collect();
        assert!(two_cut_vertices.len() >= 6);
        assert!(n_interesting <= 44 * mds, "interesting = {n_interesting}, mds = {mds}");
        assert!(n_interesting < two_cut_vertices.len());
    }

    #[test]
    fn theta_graph_interesting() {
        // Hubs 0,1 with three length-2 paths: cut {0,1} has three
        // components {2},{3},{4}, each a single vertex *adjacent to both*
        // — so no witness non-adjacent to the friend; not interesting.
        let g = Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]);
        assert!(!is_interesting_via(&g, 0, 1, 100));
        // Subdividing the paths creates non-adjacent witnesses.
        let g2 = lmds_gen::adversarial::subdivided_k2t(3);
        assert!(is_interesting_via(&g2, 0, 1, 100));
        assert!(is_interesting_via(&g2, 1, 0, 100));
    }

    #[test]
    fn engine_matches_reference_on_module_corpus() {
        // The full equivalence suite lives in
        // tests/cut_engine_equivalence.rs; this is the in-crate smoke
        // version across all four query kinds.
        let graphs =
            vec![cycle(12), path(9), lmds_gen::adversarial::subdivided_k2t(3), cycle(6), cycle(4)];
        let mut engine = CutEngine::new();
        for g in &graphs {
            for r in [1u32, 2, 3, 6] {
                let one = engine.one_cut_mask(g, r);
                let interesting = engine.interesting_mask(g, r);
                let endpoints = engine.two_cut_endpoint_mask(g, r);
                let pairs = engine.two_cuts(g, r);
                let mut endpoint_ref = vec![false; g.n()];
                let mut pair_ref = Vec::new();
                for u in g.vertices() {
                    assert_eq!(one[u], is_local_one_cut(g, u, r), "one-cut v={u} r={r} {g:?}");
                    assert_eq!(
                        interesting[u],
                        is_interesting(g, u, r),
                        "interesting v={u} r={r} {g:?}"
                    );
                    for v in (u + 1)..g.n() {
                        if is_local_two_cut(g, u, v, r) {
                            pair_ref.push((u, v));
                            endpoint_ref[u] = true;
                            endpoint_ref[v] = true;
                        }
                    }
                }
                assert_eq!(pairs, pair_ref, "pairs r={r} {g:?}");
                assert_eq!(endpoints, endpoint_ref, "endpoints r={r} {g:?}");
            }
        }
    }

    #[test]
    fn engine_sharded_path_matches_naive_on_large_graphs() {
        // Graphs past the engine's parallel threshold, swept at forced
        // worker counts regardless of the host's CPU count: every count
        // must reproduce the single-worker sweep and the naive reference
        // (worker-count invariance).
        let big: Vec<(&str, Graph)> = vec![
            ("cycle700", cycle(700)),
            ("path800", path(800)),
            ("caterpillar700", lmds_gen::basic::caterpillar(700, 1)),
        ];
        let mut engine = CutEngine::new();
        for (name, g) in &big {
            assert!(g.n() >= PARALLEL_THRESHOLD, "{name} must cross the parallel threshold");
            for r in [2u32, 3] {
                let one = engine.one_cut_mask_on(g, r, 1);
                let interesting = engine.pair_mask(g, r, PairMode::Interesting, 1);
                let endpoints = engine.pair_mask(g, r, PairMode::Endpoints, 1);
                let in_range = engine.pair_counts().in_range;
                for workers in [1, 2, 4, 7] {
                    let at = |what: &str| format!("{name} r={r} workers={workers}: {what}");
                    assert_eq!(engine.one_cut_mask_on(g, r, workers), one, "{}", at("one-cut"));
                    // The forced count shards the ball index build too.
                    assert_eq!(
                        engine.pair_mask(g, r, PairMode::Interesting, workers),
                        interesting,
                        "{}",
                        at("interesting")
                    );
                    assert_eq!(
                        engine.pair_mask(g, r, PairMode::Endpoints, workers),
                        endpoints,
                        "{}",
                        at("endpoints")
                    );
                    assert_eq!(engine.pair_counts().in_range, in_range, "{}", at("in range"));
                }
                for v in [0usize, 1, g.n() / 2, g.n() - 1] {
                    assert_eq!(interesting[v], is_interesting(g, v, r), "{name} r={r} v={v}");
                }
                // Full-set check against the (cheap on these sparse
                // graphs) naive filter.
                let naive_one: Vec<bool> =
                    g.vertices().map(|v| is_local_one_cut(g, v, r)).collect();
                assert_eq!(one, naive_one, "{name} r={r}");
            }
        }
    }

    #[test]
    fn prefilter_profiles_few_pairs_on_the_chain_family() {
        // The equivalence suite cannot see a dropped prefilter (outputs
        // stay identical), so pin its effect: on the chain family at the
        // pipeline's r₂ = 4, almost every in-range pair is rejected
        // before its H − {u, v} scan.
        let g = lmds_gen::ding::scale_instance(5000, 0);
        let mut engine = CutEngine::new();
        let cuts = engine.two_cuts(&g, 4);
        let counts = engine.pair_counts();
        assert_eq!(counts.cuts, cuts.len());
        assert!(counts.in_range > 0 && counts.profiled >= counts.cuts, "{counts:?}");
        assert!(counts.profiled * 10 <= counts.in_range, "{counts:?}");
        engine.interesting_mask(&g, 4);
        let sweep = engine.pair_counts();
        assert_eq!(sweep.in_range, counts.in_range);
        assert!(sweep.profiled * 10 <= sweep.in_range, "{sweep:?}");
    }

    #[test]
    fn pair_counts_follow_the_last_sweep() {
        // C12 at r = 6: every pair is in range; the minimal 2-cuts are
        // the 54 non-adjacent pairs, and adjacent pairs never pass the
        // prefilter (removing a neighbor leaves the rest of the cycle
        // connected).
        let g = cycle(12);
        let mut engine = CutEngine::new();
        assert_eq!(engine.pair_counts(), PairCounts::default());
        engine.two_cuts(&g, 6);
        assert_eq!(engine.pair_counts(), PairCounts { in_range: 66, profiled: 54, cuts: 54 });
        // At r = 1 every ball is a path cut by its center, so every pair
        // stays a candidate, and none is a minimal 2-cut.
        engine.two_cuts(&g, 1);
        assert_eq!(engine.pair_counts(), PairCounts { in_range: 12, profiled: 12, cuts: 0 });
    }

    #[test]
    fn local_two_cut_requires_distance() {
        let g = path(10);
        // Distance 5 > r = 3 → not an r-local 2-cut even though they
        // separate globally.
        assert!(!is_local_two_cut(&g, 2, 7, 3));
    }
}
