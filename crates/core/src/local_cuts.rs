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
//!   [`neighbor_separators_within`](lmds_graph::articulation::neighbor_separators_within),
//!   which in the pipeline's fused sweep also settles most of `X`),
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
//! `{u, v}`.
//!
//! **Lemma (exit test).** Let `r ≥ 1`, let `u` be a cut vertex of
//! `B = G[N^r[u]]`, and let `v ∈ N^r[u] ∖ {u}`. If `{u, v}` is a minimal
//! 2-cut of `H = G[N^r[u] ∪ N^r[v]]`, then every component `C` of `B − u`
//! has a neighbor `y ∉ N^r[u]` with `y ∈ N^r[v]` (an *exit* of `C` that
//! `v`'s ball reaches). *Proof.* Minimality makes `H − u` connected.
//! Because `u` is a cut vertex of `B`, `B − u` has a second component
//! `C'`. A path in `H − u` from `C` to `C'` leaves `C` by some edge
//! `(x, y)`, and `y ≠ u`. If `y ∈ B`, then `y ∈ C`, which is impossible.
//! So `y ∈ V(H) ∖ N^r[u] ⊆ N^r[v]`. ∎ *Corollary.* If some component of
//! `B − u` has no neighbor outside `B`, then `u` is in no `r`-local
//! minimal 2-cut.
//!
//! The engine therefore profiles only pairs that pass both tests on both
//! sides, with unchanged outputs; [`CutEngine`] spells out why. On the
//! chain family at `r = 4` (`scale_instance(10⁵, 3)`) that leaves 2 of
//! the 1,540,555 in-range pairs, both cuts; the separator bits alone
//! left 86,908.
//!
//! **Per-vertex queries.** [`CutEngine::one_cut_at`],
//! [`CutEngine::interesting_at`] and [`CutEngine::two_cut_endpoint_at`]
//! answer the same predicates for one vertex `v` without a sweep: `X` is
//! one BFS and one flood of the ball minus `v`, which stops as soon as
//! it has reached every neighbor of `v`; `I` and the endpoint bit take
//! `v`'s ball and its split around `v`. A cut vertex of its ball with an
//! exit-less component answers `false` at once (the corollary).
//! Otherwise the separator candidates are the only partners that can
//! form a minimal 2-cut with `v`; each gets the two-source ball
//! `H = N^r[u] ∪ N^r[v]`, must pass the exit test inside it (exits lie
//! outside `N^r[v]`, so an exit is in `H` exactly when it is in
//! `N^r[u]`), and is profiled with the sweep's test until one succeeds.
//! They share the engine's traversal buffers, and the equivalence suite
//! pins every vertex of the corpus to the naive predicates and the
//! masks.
//!
//! The distributed algorithms recompute the same predicates from node
//! views through the per-vertex queries and are tested to agree.

use crate::radii::Radii;
use lmds_graph::articulation::AnchorSplit;
use lmds_graph::scratch::Scratch;
use lmds_graph::{articulation, bfs, par, two_cuts};
use lmds_graph::{FixedBitSet, Graph, InducedSubgraph, SubsetScratch, Vertex};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this vertex count the engine stays single-threaded: the scoped
/// thread spawn + per-worker warm-up costs more than the sweep itself.
const PARALLEL_THRESHOLD: usize = 640;

/// Stored balls of at least this many entries are kept sorted; smaller
/// ones keep the BFS order the index build produced them in. The pair
/// sweep looks vertices up in stored balls, by [`scan`] in BFS order and
/// by binary search in a sorted ball; a scan's cost grows with the ball,
/// while the sort it spares is paid once per stored ball. On `path(3000)`,
/// where every entry of a ball is a candidate and so is looked up from
/// its partner's ball, one thread's fused sweep at `r = r₁ = r₂` took
/// (all balls unsorted vs all sorted, medians of 3 runs, ms) 11.6 vs 11.8
/// at 65-entry balls, 19.4 vs 16.2 at 101, 19.8 vs 22.5 at 129, 39.4 vs
/// 46.5 at 201, 60.9 vs 56.2 at 301 and 210 vs 151 at 601: even within
/// the noise of a shared 2-core box up to about 300 entries, the scan
/// losing beyond. The crossover sits inside the even range, so larger
/// balls keep a logarithmic lookup; the chain family's balls (34–61
/// entries) stay below it.
const SORTED_BALL_MIN: usize = 128;

/// The worker count of a sweep over the `n` vertices of a graph.
fn sweep_workers(n: usize) -> usize {
    par::workers(n, PARALLEL_THRESHOLD, n)
}

/// The shared-work engine behind every Definition-2.1 predicate sweep.
///
/// What is shared within one run, and why the outputs cannot drift from
/// the naive reference:
///
/// * **Balls once.** Every `N^r[v]` is computed once per run, and the
///   ones the pair sweep can open go into a flat CSR-ish index, in the
///   BFS order the build traversed them in (sorted only from 128
///   entries on, where a binary search beats a scan); the naive path
///   re-derives balls per pair and re-checks `d(u, v)` with a
///   full-graph BFS, but "`d(u, v) ≤ r`" is exactly "`v ∈ N^r[u]`" — a
///   lookup in the index, same predicate. The pipeline's fused sweeps
///   ([`CutEngine::one_cut_and_interesting_masks`],
///   [`CutEngine::one_cut_and_endpoint_masks`]) run one BFS per vertex
///   at `max(r₁, r₂)`, split the `r₂` ball (below), and read `X` at `r₁`
///   off that split by the monotonicity lemma, flooding the `r₁` ball
///   (membership by BFS distance) only where the split leaves it open.
/// * **Separators first.** Building the index also runs one lowpoint
///   DFS per ball
///   ([`articulation::neighbor_separators_within`])
///   that marks the *separator candidates* of `u`: each `v ∈ N^r[u]`
///   whose removal leaves `N(u) ∖ {v}` in two or more components of
///   `G[N^r[u]] − {u, v}`, or all of `N^r[u] ∖ {u}` when `u` is a cut
///   vertex of its ball. For such a *cut anchor* the same DFS records
///   every component of `G[N^r[u]] − u` with its exits, and the index
///   keeps those exit lists. A pair is profiled only if it is marked on
///   both sides and, for each endpoint that is a cut anchor, the other
///   endpoint's ball holds an exit of every one of its components.
/// * **Pairs once.** `{u, v}` and `{v, u}` name the same cut `H`; the
///   engine scans `H − {u, v}` once and reads off both interestingness
///   orientations (witness components non-adjacent to `u` mark `v`, and
///   vice versa), where the naive path rebuilds `H` up to four times.
/// * **No subgraphs.** Minimality and witness counts come from
///   [`two_cuts::pair_profile_within`] and
///   [`articulation::is_cut_vertex_in_ball`], which traverse `G`
///   restricted to an epoch-marked member set or to the vertices a BFS
///   reached within the radius — no `InducedSubgraph` construction, no
///   per-pair allocation.
/// * **Sharding is observation-free.** On graphs past the size
///   threshold the per-vertex outer loops run on [`lmds_graph::par`]
///   workers, each with its own traversal buffers (the calling thread
///   keeps the engine's own). The X sweep's workers claim pieces of its
///   mask on demand, and the index build's workers claim blocks of 64 to
///   1,024 vertices (about 64 blocks per graph) on demand and fill one
///   shard per block (with that block's `X` bits in the fused sweeps),
///   so a worker slowed on the day takes fewer blocks instead of setting
///   the build's time. The pair sweep's workers write private monotone
///   masks over contiguous ranges, which are OR-merged. Every result is
///   independent of the worker count and schedule.
///
/// **Lemma (the prefilter is sound).** Let `r ≥ 1` and `v ∈ N^r[u]`. If
/// `{u, v}` is a minimal 2-cut of `H = G[N^r[u] ∪ N^r[v]]`, then `v` is
/// a separator candidate of `u` and `u` one of `v`. *Proof.* `H − {u, v}`
/// has at least two components and each is adjacent to `u` (else `{v}`
/// alone would separate `H`), so `u` has neighbors in two components of
/// `H − {u, v}`. Those neighbors lie in `N^r[u]`, and
/// `G[N^r[u]] − {u, v}` is a subgraph of `H − {u, v}`, so they stay in
/// different components there: `v` is marked in `u`'s ball. The same
/// argument from `v`'s side marks `u` in `v`'s ball. ∎
///
/// **Lemma (the exit test is sound).** Let `r ≥ 1`, let `u` be a cut
/// vertex of `B = G[N^r[u]]`, and let `v ∈ N^r[u] ∖ {u}`. If `{u, v}` is
/// a minimal 2-cut of `H`, then every component `C` of `B − u` has a
/// neighbor `y ∉ N^r[u]` with `y ∈ N^r[v]`. *Proof.* Minimality makes
/// `H − u` connected. Because `u` is a cut vertex of `B`, `B − u` has a
/// second component `C'`. A path in `H − u` from `C` to `C'` leaves `C`
/// by some edge `(x, y)`, and `y ≠ u`. If `y ∈ B`, then `y ∈ C`, which is
/// impossible. So `y ∈ V(H) ∖ N^r[u] ⊆ N^r[v]`. ∎ *Corollary.* If some
/// component of `B − u` has no neighbor outside `B`, then `u` is in no
/// `r`-local minimal 2-cut.
///
/// Skipping every pair that fails either test therefore skips only
/// pairs whose profile would be discarded, and the equivalence suite
/// pins the outputs to the naive reference.
///
/// **Lemma (local 1-cuts are monotone, §2).** For `1 ≤ r ≤ r'`, if `u` is
/// a cut vertex of `G[N^{r'}[u]]`, then it is one of `G[N^r[u]]`.
/// *Proof.* Since `r ≥ 1`, all of `N(u)` lies in both balls. The graph
/// `G[N^r[u]] − u` is a subgraph of `G[N^{r'}[u]] − u`, so each of its
/// components lies inside one component of the larger graph. Two
/// neighbors of `u` in different components of the larger graph
/// therefore stay in different components of the smaller one. ∎ The
/// fused sweeps thus read `X` at `r₁` off the split of the `r₂` ball,
/// whose cut bit says whether `u` is a cut vertex at `r₂`:
///
/// * `r₁ = r₂`: `X` is the cut bit;
/// * `r₁ < r₂`: a cut anchor is in `X`, and only the others are flooded
///   at `r₁` ([`articulation::is_cut_vertex_in_ball`]);
/// * `r₁ > r₂`: an anchor that is not cut is not in `X`, and only the
///   cut ones are flooded at `r₁`.
///
/// (With a radius of 0 the flood decides alone.) On the chain family at
/// the pipeline's (3,4) about 13% of the anchors are cut at `r₂ = 4`;
/// the floods of the rest stop as soon as they have reached every
/// neighbor of the anchor, which on a vertex that is no local cut comes
/// early.
///
/// A `CutEngine` is a plain bag of reusable buffers (like [`Scratch`]);
/// apart from the counts of its last pair sweep it holds no graph state
/// between runs and may serve graphs of different sizes back to back.
///
/// **Memory profile:** the pair sweeps hold, at once, every ball of the
/// run whose center has a separator candidate — `u32` entries plus one
/// candidate bit per entry — with one offset per vertex and the exit
/// lists of the cut anchors, in buffers kept across runs. A ball whose
/// center has no candidate is never opened (a pair needs a candidate on
/// both sides), so it is not stored: on `scale_instance(10⁵, 3)` at
/// `r = 4`, 52,302 of the 100,001 anchors have one. That is the
/// deliberate trade of this engine (balls are the shared work), sized
/// for the paper's regime: minor-free graphs at small local radii,
/// where balls are bounded. At radii near the diameter, or on dense
/// graphs, the index degenerates to `Θ(n²)` — the same regime where the
/// predicates themselves are quadratic; keep such runs to
/// analysis-scale inputs (as the pre-engine implementations also
/// required).
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
    /// both sides that pass the exit test, not already settled by
    /// monotone marking.
    pub profiled: usize,
    /// Profiled pairs that are minimal 2-cuts of their `H`.
    pub cuts: usize,
    /// Pairs that pass the separator bits on both sides but fail the
    /// exit test. Unlike `profiled`, it never depends on the worker
    /// count: the test runs before the monotone skip.
    pub exit_rejected: usize,
}

/// The blocks of the ball-index build for `n` vertices: shard `k` holds
/// the balls of `k·2^shift .. (k + 1)·2^shift`, a power of two so that
/// finding a ball is a shift and a mask. About 64 blocks per graph, so
/// workers have many to claim, but 64 to 1,024 vertices each: a small
/// graph needs fine blocks to split evenly between workers (1,024-vertex
/// blocks cut 1,200 vertices 1,024 : 176), and on a large one fine
/// blocks only add shard buffers, which cost memory.
fn block_shift(n: usize) -> u32 {
    (n / 64).max(1).ilog2().clamp(6, 10)
}

/// Every ball `N^r[v]` of one run that the pair sweep can open, with its
/// candidate bits, in one shard per block of `2^shift` vertices (see
/// [`block_shift`]). Shards keep their buffers across runs.
#[derive(Debug, Default)]
struct BallIndex {
    n: usize,
    shift: u32,
    shards: Vec<BallShard>,
}

/// One block's balls: the shard's `i`-th ball is
/// `verts[offsets[i]..offsets[i + 1]]`, and bit `j` of `cand` is set iff
/// `verts[j]` is a separator candidate of that ball's center. A ball is
/// stored in the BFS order the build traversed it in, unless it holds
/// [`SORTED_BALL_MIN`] entries or more: then it is stored sorted (see
/// [`Ball::position`]). Only a ball whose center has a candidate is
/// stored; any other is empty here, since the pair sweep never opens it
/// (see [`BallIndex::partners`]). `entries` counts every ball in full.
///
/// Exit lists of the cut anchors only: ball `i`'s components are
/// `comp_offsets[i]..comp_offsets[i + 1]` (none unless its center is a
/// cut vertex of the ball), and component `c`'s sorted exits are
/// `exits[exit_bounds[c]..exit_bounds[c + 1]]`. The fused sweeps also
/// record `one_cut[i]`, whether ball `i`'s center is in `X`.
#[derive(Debug, Default)]
struct BallShard {
    offsets: Vec<usize>,
    verts: Vec<u32>,
    cand: Vec<u64>,
    entries: usize,
    comp_offsets: Vec<usize>,
    exit_bounds: Vec<usize>,
    exits: Vec<u32>,
    one_cut: Vec<bool>,
}

/// One ball of the index.
#[derive(Clone, Copy)]
struct Ball<'a> {
    verts: &'a [u32],
    cand: &'a [u64],
    /// Position of `verts[0]` in the shard (the bit offset).
    base: usize,
    /// The bounds of the center's components in `exits`: one entry, so
    /// no component, unless the center is a cut anchor.
    exit_bounds: &'a [usize],
    exits: &'a [u32],
}

impl Ball<'_> {
    fn is_candidate(&self, j: usize) -> bool {
        let bit = self.base + j;
        self.cand[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The index of `v` in this ball, if it is there: a binary search
    /// in a ball stored sorted (one of [`SORTED_BALL_MIN`] entries or
    /// more), a scan of one stored in BFS order.
    fn position(&self, v: u32) -> Option<usize> {
        if self.verts.len() >= SORTED_BALL_MIN {
            self.verts.binary_search(&v).ok()
        } else {
            scan(self.verts, v)
        }
    }

    /// Whether `v` is in this ball and marked as a candidate.
    fn has_candidate(&self, v: Vertex) -> bool {
        self.position(v as u32).is_some_and(|j| self.is_candidate(j))
    }

    /// The exit test from this ball's side: whether the ball `other`
    /// holds an exit of every component of the center (always, unless
    /// the center is a cut anchor).
    fn exits_reach(&self, other: &Ball<'_>) -> bool {
        self.exit_bounds
            .windows(2)
            .all(|c| self.exits[c[0]..c[1]].iter().any(|&y| other.position(y).is_some()))
    }
}

/// The index of `v` in the unsorted `verts`. Each block of [`SCAN_LANES`]
/// entries is tested for `v` with no early exit, a loop the compiler can
/// vectorize; only the block that holds `v` is searched entry by entry.
/// On `path(3000)` at `r = 150` with every ball unsorted, the fused sweep
/// read 44.5 ms with this scan and 94.5 ms with `iter().position` (two
/// workers, one run each).
fn scan(verts: &[u32], v: u32) -> Option<usize> {
    let mut blocks = verts.chunks_exact(SCAN_LANES);
    for (k, block) in blocks.by_ref().enumerate() {
        if block.iter().fold(false, |hit, &x| hit | (x == v)) {
            return block.iter().position(|&x| x == v).map(|j| k * SCAN_LANES + j);
        }
    }
    let rest = blocks.remainder();
    rest.iter().position(|&x| x == v).map(|j| verts.len() - rest.len() + j)
}

/// The block width of [`scan`].
const SCAN_LANES: usize = 16;

impl BallIndex {
    /// `v`'s stored ball: empty unless `v` has a separator candidate.
    fn ball(&self, v: Vertex) -> Ball<'_> {
        let shard = &self.shards[v >> self.shift];
        let i = v & ((1 << self.shift) - 1);
        let (lo, hi) = (shard.offsets[i], shard.offsets[i + 1]);
        let (c_lo, c_hi) = (shard.comp_offsets[i], shard.comp_offsets[i + 1]);
        Ball {
            verts: &shard.verts[lo..hi],
            cand: &shard.cand,
            base: lo,
            exit_bounds: &shard.exit_bounds[c_lo..=c_hi],
            exits: &shard.exits,
        }
    }

    /// Unordered pairs within distance `r`: every ball holds its center
    /// and the relation is symmetric.
    fn pairs_in_range(&self) -> usize {
        let entries: usize = self.shards.iter().map(|s| s.entries).sum();
        (entries - self.n) / 2
    }

    /// The ball entries the index holds.
    #[cfg(test)]
    fn stored_entries(&self) -> usize {
        self.shards.iter().map(|s| s.verts.len()).sum()
    }

    /// The pair partners of `u` that pass the separator bits: every
    /// `v > u` in `N^r[u]` that is a separator candidate of `u` while
    /// `u` is one of `v`, each with whether the pair also passes the
    /// exit test on both sides. Only pairs that pass both can form a
    /// minimal 2-cut (see the lemmas on [`CutEngine`]). Both balls of
    /// such a pair have a candidate, so both are stored.
    fn partners(&self, u: Vertex) -> impl Iterator<Item = (Vertex, bool)> + '_ {
        let ball = self.ball(u);
        ball.verts.iter().enumerate().filter_map(move |(j, &v)| {
            let v = v as Vertex;
            if v <= u || !ball.is_candidate(j) {
                return None;
            }
            let other = self.ball(v);
            other
                .has_candidate(u)
                .then(|| (v, ball.exits_reach(&other) && other.exits_reach(&ball)))
        })
    }
}

impl BallShard {
    /// Refills the shard with the balls of `range`, their candidate bits
    /// and the exit lists of the cut anchors, reusing its buffers. With
    /// `one_cut = Some(r₁)` the same BFS, run to `max(r₁, r)`, also
    /// decides `X` at `r₁`: from the split at `r` where the monotonicity
    /// lemma settles it, else by [`articulation::is_cut_vertex_in_ball`].
    fn fill(
        &mut self,
        g: &Graph,
        r: u32,
        one_cut: Option<u32>,
        range: Range<Vertex>,
        b: &mut Buffers,
    ) {
        self.offsets.clear();
        self.verts.clear();
        self.cand.clear();
        self.entries = 0;
        self.comp_offsets.clear();
        self.exit_bounds.clear();
        self.exits.clear();
        self.one_cut.clear();
        self.offsets.push(0);
        self.comp_offsets.push(0);
        self.exit_bounds.push(0);
        let reach = one_cut.map_or(r, |r1| r1.max(r));
        for u in range {
            bfs::ball_of_set_into(g, &mut b.scratch, &[u], reach, &mut b.ball);
            let ball = within(&b.ball, &b.scratch, r);
            articulation::neighbor_separators_within(g, &mut b.subset, ball, u, &mut b.split);
            if let Some(r1) = one_cut {
                self.one_cut.push(one_cut_by_split(r1, r, b.split.is_cut(), || {
                    articulation::is_cut_vertex_in_ball(g, &mut b.subset, &b.scratch, r1, u)
                }));
            }
            self.entries += ball.len();
            if b.split.separators.contains(&true) {
                self.store(ball, &b.split.separators);
            }
            self.offsets.push(self.verts.len());
            if b.split.is_cut() {
                for k in 0..b.split.component_count() {
                    self.exits.extend(b.split.exits(k).iter().map(|&y| y as u32));
                    self.exit_bounds.push(self.exits.len());
                }
            }
            self.comp_offsets.push(self.exit_bounds.len() - 1);
        }
    }

    /// Appends `ball` with one candidate bit per entry, `flags[j]` for
    /// `ball[j]`: in the BFS order the build traversed it in, or sorted
    /// when it holds [`SORTED_BALL_MIN`] entries or more.
    fn store(&mut self, ball: &[Vertex], flags: &[bool]) {
        let base = self.verts.len();
        self.verts.extend(ball.iter().map(|&v| v as u32));
        self.cand.resize(self.verts.len().div_ceil(64), 0);
        let stored = &mut self.verts[base..];
        if stored.len() < SORTED_BALL_MIN {
            for (j, &c) in flags.iter().enumerate() {
                let bit = base + j;
                self.cand[bit / 64] |= (c as u64) << (bit % 64);
            }
            return;
        }
        // A sorted ball finds each bit by binary search: the flagged
        // entries' bits, or, when most are flagged (a cut anchor flags
        // every entry but itself), every bit and then the others' back.
        stored.sort_unstable();
        let most = 2 * flags.iter().filter(|&&c| c).count() > ball.len();
        if most {
            (base..base + ball.len()).for_each(|bit| flip_bit(&mut self.cand, bit));
        }
        for (&v, _) in ball.iter().zip(flags).filter(|&(_, &c)| c != most) {
            let j = stored.binary_search(&(v as u32)).expect("the stored ball holds its entries");
            flip_bit(&mut self.cand, base + j);
        }
    }
}

fn flip_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] ^= 1 << (bit % 64);
}

/// Whether an anchor is in `X` at radius `r1`, given whether it is a cut
/// vertex of its ball at `r2` (`cut`, from the split) and the flood of
/// its `r1` ball to fall back on. By the monotonicity lemma on
/// [`CutEngine`], `cut` is the answer when `r1 = r2`, implies it when
/// `r1 < r2` and is implied by it when `r1 > r2`, so `flood` runs only
/// where `cut` leaves the answer open. The lemma needs both radii ≥ 1;
/// below that the flood decides alone (at `r1 = 0` it answers `false`).
fn one_cut_by_split(r1: u32, r2: u32, cut: bool, flood: impl FnOnce() -> bool) -> bool {
    if r1.min(r2) == 0 {
        flood()
    } else if r1 == r2 {
        cut
    } else if r1 < r2 {
        cut || flood()
    } else {
        cut && flood()
    }
}

/// The entries of the BFS-ordered ball `ball` within distance `r` of its
/// sources, read off the `scratch` traversal that built it: BFS order
/// puts them first, so they are a prefix.
fn within<'a>(ball: &'a [Vertex], scratch: &Scratch, r: u32) -> &'a [Vertex] {
    &ball[..ball.partition_point(|&v| scratch.distance(v).is_some_and(|d| d <= r))]
}

/// The exit test from the side of the anchor `split` describes: `true`
/// unless the anchor is a cut vertex of its ball and some component has
/// no exit for which `reached` holds.
fn exits_reached(split: &AnchorSplit, reached: impl Fn(Vertex) -> bool) -> bool {
    !split.is_cut()
        || (0..split.component_count()).all(|k| split.exits(k).iter().any(|&y| reached(y)))
}

/// One sweep worker's reusable traversal buffers.
#[derive(Debug, Default)]
struct Buffers {
    scratch: Scratch,
    subset: SubsetScratch,
    /// The vertex set of `H = N^r[u] ∪ N^r[v]`: the two stored balls
    /// back to back in the pair sweep, a two-source ball in the
    /// per-vertex queries.
    merged: Vec<Vertex>,
    /// Single-ball buffer (BFS order) for the 1-cut sweep, the ball
    /// index and the per-vertex pair queries.
    ball: Vec<Vertex>,
    /// The split of `ball` around its center.
    split: AnchorSplit,
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

    /// `(X, I)` of the Algorithm 1 pipeline in one sweep: equals
    /// `(one_cut_mask(g, radii.one_cut), interesting_mask(g, radii.two_cut))`,
    /// but runs one BFS per vertex, at `max(r₁, r₂)`, for both masks.
    pub fn one_cut_and_interesting_masks(
        &mut self,
        g: &Graph,
        radii: Radii,
    ) -> (Vec<bool>, Vec<bool>) {
        self.fused_masks(g, radii, PairMode::Interesting, sweep_workers(g.n()))
    }

    /// `(X, endpoints)` in one sweep, the MVC variant's and the
    /// `interesting_filter: false` ablation's pair of
    /// [`CutEngine::one_cut_and_interesting_masks`]: equals
    /// `(one_cut_mask(g, radii.one_cut), two_cut_endpoint_mask(g, radii.two_cut))`.
    pub fn one_cut_and_endpoint_masks(
        &mut self,
        g: &Graph,
        radii: Radii,
    ) -> (Vec<bool>, Vec<bool>) {
        self.fused_masks(g, radii, PairMode::Endpoints, sweep_workers(g.n()))
    }

    /// All `r`-local minimal 2-cuts as `(u, v)` pairs with `u < v`,
    /// sorted — [`local_two_cuts`]' engine. Every pair that passes the
    /// separator prefilter and the exit test is profiled (no early
    /// exit), each exactly once.
    pub fn two_cuts(&mut self, g: &Graph, r: u32) -> Vec<(Vertex, Vertex)> {
        self.compute_balls(g, r, None, sweep_workers(g.n()));
        let CutEngine { balls, bufs, counts } = self;
        let mut out = Vec::new();
        let mut tally = PairCounts { in_range: balls.pairs_in_range(), ..PairCounts::default() };
        for u in g.vertices() {
            for (v, exits_reach) in balls.partners(u) {
                if !exits_reach {
                    tally.exit_rejected += 1;
                    continue;
                }
                tally.profiled += 1;
                if bufs.pair_profile(g, balls, u, v).is_minimal_two_cut() {
                    out.push((u, v));
                }
            }
        }
        tally.cuts = out.len();
        *counts = tally;
        // Partners come in stored-ball order, not sorted.
        out.sort_unstable();
        out
    }

    /// Whether `v` is an `r`-local minimal 1-cut: one BFS to `r` and one
    /// [`articulation::is_cut_vertex_in_ball`] flood, which stops once it
    /// has reached every neighbor of `v`. Equals [`is_local_one_cut`] and
    /// `one_cut_mask(g, r)[v]`.
    pub fn one_cut_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        self.bufs.one_cut_at(g, v, r)
    }

    /// Whether `v` is `r`-interesting, without a sweep: `v`'s ball and
    /// its split around `v` pick the partners (by the prefilter lemma no
    /// other `u` can form a minimal 2-cut with `v`; by the exit lemma a
    /// cut vertex of its ball with an exit-less component answers
    /// `false` at once, and otherwise each partner's two-source ball must
    /// hold an exit of every component), and each is profiled until one
    /// makes `v` interesting. Equals [`is_interesting`] and
    /// `interesting_mask(g, r)[v]`.
    pub fn interesting_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        self.bufs.pair_query(g, v, r, PairMode::Interesting)
    }

    /// Whether `v` lies in some `r`-local minimal 2-cut, by the same
    /// partner search as [`CutEngine::interesting_at`]. Equals
    /// `two_cut_endpoint_mask(g, r)[v]`.
    pub fn two_cut_endpoint_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        self.bufs.pair_query(g, v, r, PairMode::Endpoints)
    }

    /// The work counts of the last pair sweep ([`CutEngine::interesting_mask`],
    /// [`CutEngine::two_cut_endpoint_mask`], [`CutEngine::two_cuts`] or
    /// a fused sweep). With the monotone skip of the mask sweeps,
    /// `profiled` can depend on the worker count; the masks and the
    /// other counts never do.
    pub fn pair_counts(&self) -> PairCounts {
        self.counts
    }

    /// Fills the ball index for radius `r` on `workers` workers, which
    /// claim its blocks (see [`block_shift`]) on demand, and with
    /// `one_cut = Some(r₁)` each block's `X` bits at `r₁` from the same
    /// BFS.
    fn compute_balls(&mut self, g: &Graph, r: u32, one_cut: Option<u32>, workers: usize) {
        let n = g.n();
        let balls = &mut self.balls;
        (balls.n, balls.shift) = (n, block_shift(n));
        let block = 1 << balls.shift;
        balls.shards.resize_with(n.div_ceil(block), BallShard::default);
        par::map_chunks(workers, &mut balls.shards, &mut self.bufs, |b, k, shard| {
            shard.fill(g, r, one_cut, k * block..((k + 1) * block).min(n), b);
        });
    }

    /// The pair sweep of `r` on `workers` workers; see
    /// [`CutEngine::sweep_pairs`].
    fn pair_mask(&mut self, g: &Graph, r: u32, mode: PairMode, workers: usize) -> Vec<bool> {
        self.compute_balls(g, r, None, workers);
        self.sweep_pairs(g, mode, workers)
    }

    /// The fused sweep on `workers` workers: `X` at `radii.one_cut`
    /// from the index build, then the pair sweep at `radii.two_cut`.
    fn fused_masks(
        &mut self,
        g: &Graph,
        radii: Radii,
        mode: PairMode,
        workers: usize,
    ) -> (Vec<bool>, Vec<bool>) {
        self.compute_balls(g, radii.two_cut, Some(radii.one_cut), workers);
        let x = self.balls.shards.iter().flat_map(|s| s.one_cut.iter().copied()).collect();
        (x, self.sweep_pairs(g, mode, workers))
    }

    /// The shared pair sweep over the current index on `workers`
    /// workers: every unordered pair `{u, v}` with `d(u, v) ≤ r` that
    /// passes the separator prefilter and the exit test evaluated once.
    /// Pairs whose both endpoints are already marked are skipped —
    /// marking is monotone, so this prunes work without changing the
    /// result.
    fn sweep_pairs(&mut self, g: &Graph, mode: PairMode, workers: usize) -> Vec<bool> {
        let CutEngine { balls, bufs, counts } = self;
        let balls = &*balls;
        let (profiled, cuts, exit_rejected) =
            (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        let mask = par::or_masks(workers, g.n(), bufs, |b, range, mask| {
            let mut tally = PairCounts::default();
            for u in range {
                b.scan_pairs_for(g, balls, u, mode, mask, &mut tally);
            }
            profiled.fetch_add(tally.profiled, Ordering::Relaxed);
            cuts.fetch_add(tally.cuts, Ordering::Relaxed);
            exit_rejected.fetch_add(tally.exit_rejected, Ordering::Relaxed);
        });
        *counts = PairCounts {
            in_range: balls.pairs_in_range(),
            profiled: profiled.into_inner(),
            cuts: cuts.into_inner(),
            exit_rejected: exit_rejected.into_inner(),
        };
        mask.to_bools()
    }
}

impl Buffers {
    /// Whether `v` is a cut vertex of `G[N^r[v]]`.
    fn one_cut_at(&mut self, g: &Graph, v: Vertex, r: u32) -> bool {
        bfs::ball_of_set_into(g, &mut self.scratch, &[v], r, &mut self.ball);
        articulation::is_cut_vertex_in_ball(g, &mut self.subset, &self.scratch, r, v)
    }

    /// Profiles the pair `{u, v}` inside `H = N^r[u] ∪ N^r[v]`: the two
    /// stored balls are listed back to back, and the profile's member
    /// marks make the union ([`two_cuts::pair_profile_within`] takes a
    /// list with repeats). `H` is never materialized as a graph.
    fn pair_profile(
        &mut self,
        g: &Graph,
        balls: &BallIndex,
        u: Vertex,
        v: Vertex,
    ) -> two_cuts::PairProfile {
        let (a, b) = (balls.ball(u).verts, balls.ball(v).verts);
        self.merged.clear();
        self.merged.extend(a.iter().chain(b).map(|&x| x as Vertex));
        two_cuts::pair_profile_within(g, &mut self.subset, &self.merged, u, v)
    }

    /// Whether some partner `u` of `v` makes `{u, v}` an `r`-local
    /// minimal 2-cut that `mode` counts for `v`. Partners are the
    /// separator candidates of `v`'s ball; `H = N^r[u] ∪ N^r[v]` is one
    /// two-source ball, and it must hold an exit of every component of
    /// `v`'s ball when `v` is a cut anchor.
    fn pair_query(&mut self, g: &Graph, v: Vertex, r: u32, mode: PairMode) -> bool {
        bfs::ball_of_set_into(g, &mut self.scratch, &[v], r, &mut self.ball);
        articulation::neighbor_separators_within(
            g,
            &mut self.subset,
            &self.ball,
            v,
            &mut self.split,
        );
        // The corollary: an exit-less component rules out every partner.
        if !exits_reached(&self.split, |_| true) {
            return false;
        }
        for j in 0..self.ball.len() {
            let u = self.ball[j];
            if !self.split.separators[j]
                || (mode == PairMode::Interesting && g.closed_neighborhood_subset(v, u))
            {
                continue;
            }
            bfs::ball_of_set_into(g, &mut self.scratch, &[u, v], r, &mut self.merged);
            // Exits lie outside N^r[v]: one is in H iff it is in N^r[u].
            if !exits_reached(&self.split, |y| self.scratch.distance(y).is_some()) {
                continue;
            }
            let profile = two_cuts::pair_profile_within(g, &mut self.subset, &self.merged, u, v);
            // v is interesting via friend u: ≥ 2 witness components
            // non-adjacent to u (N[v] ⊄ N[u] was checked above).
            if profile.is_minimal_two_cut()
                && (mode == PairMode::Endpoints || profile.witnesses_nonadj_a >= 2)
            {
                return true;
            }
        }
        false
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
        for (v, exits_reach) in balls.partners(u) {
            if !exits_reach {
                tally.exit_rejected += 1;
                continue;
            }
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

thread_local! {
    static ENGINE_POOL: RefCell<CutEngine> = RefCell::new(CutEngine::new());
}

/// Runs `f` with this thread's pooled [`CutEngine`] — the same pattern
/// as [`lmds_graph::scratch::with_thread_scratch`]. The adaptive LOCAL
/// deciders run per-vertex queries on one view per vertex per round;
/// the pool makes those calls reuse one set of ball/merge/traversal
/// buffers per worker thread. Falls back to a fresh engine if the
/// pooled one is already borrowed (nested call), with identical results.
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
fn cut_neighborhood(g: &Graph, u: Vertex, v: Vertex, r: u32) -> InducedSubgraph<'_> {
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
        // (worker-count invariance), the fused sweeps included.
        let big: Vec<(&str, Graph)> = vec![
            ("cycle700", cycle(700)),
            ("path800", path(800)),
            ("caterpillar700", lmds_gen::basic::caterpillar(700, 1)),
        ];
        let radii = [2u32, 3];
        let mut engine = CutEngine::new();
        for (name, g) in &big {
            assert!(g.n() >= PARALLEL_THRESHOLD, "{name} must cross the parallel threshold");
            // The single-worker masks per radius, pinned to the naive
            // reference, then every sweep at every forced count.
            let one = radii.map(|r| engine.one_cut_mask_on(g, r, 1));
            let interesting = radii.map(|r| engine.pair_mask(g, r, PairMode::Interesting, 1));
            let endpoints = radii.map(|r| engine.pair_mask(g, r, PairMode::Endpoints, 1));
            for (k, r) in radii.into_iter().enumerate() {
                engine.pair_mask(g, r, PairMode::Interesting, 1);
                let counts = engine.pair_counts();
                for workers in [1, 2, 4, 7] {
                    let at = |what: &str| format!("{name} r={r} workers={workers}: {what}");
                    assert_eq!(engine.one_cut_mask_on(g, r, workers), one[k], "{}", at("one-cut"));
                    // The forced count also sets how many workers claim
                    // the index build's blocks.
                    assert_eq!(
                        engine.pair_mask(g, r, PairMode::Interesting, workers),
                        interesting[k],
                        "{}",
                        at("interesting")
                    );
                    let now = engine.pair_counts();
                    assert_eq!(now.in_range, counts.in_range, "{}", at("in range"));
                    assert_eq!(now.exit_rejected, counts.exit_rejected, "{}", at("exit rejected"));
                    assert_eq!(
                        engine.pair_mask(g, r, PairMode::Endpoints, workers),
                        endpoints[k],
                        "{}",
                        at("endpoints")
                    );
                }
                for v in [0usize, 1, g.n() / 2, g.n() - 1] {
                    assert_eq!(interesting[k][v], is_interesting(g, v, r), "{name} r={r} v={v}");
                }
                // Full-set check against the (cheap on these sparse
                // graphs) naive filter.
                let naive_one: Vec<bool> =
                    g.vertices().map(|v| is_local_one_cut(g, v, r)).collect();
                assert_eq!(one[k], naive_one, "{name} r={r}");
            }
            // The fused sweeps at every radius pair, r₁ > r₂ included.
            for (k1, one_cut) in radii.into_iter().enumerate() {
                for (k2, two_cut) in radii.into_iter().enumerate() {
                    let both = Radii { one_cut, two_cut };
                    for workers in [1, 2, 4, 7] {
                        let at = format!("{name} {both:?} workers={workers}");
                        let (x, i) = engine.fused_masks(g, both, PairMode::Interesting, workers);
                        assert_eq!((&x, &i), (&one[k1], &interesting[k2]), "{at}");
                        let (x, e) = engine.fused_masks(g, both, PairMode::Endpoints, workers);
                        assert_eq!((&x, &e), (&one[k1], &endpoints[k2]), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn claimed_blocks_match_one_worker() {
        // Graphs of several index blocks, so workers claim blocks off the
        // cursor: every forced count must reproduce the one-worker fused
        // masks and the counts that do not depend on the schedule.
        let graphs: Vec<(&str, Graph, Radii)> = vec![
            ("chain5000_s0", lmds_gen::ding::scale_instance(5000, 0), Radii::practical(3, 4)),
            ("chain5000_s1", lmds_gen::ding::scale_instance(5000, 1), Radii::practical(3, 4)),
            ("chain5000_s1 r1>r2", lmds_gen::ding::scale_instance(5000, 1), Radii::practical(4, 3)),
            (
                "outerplanar3000",
                lmds_gen::outerplanar::random_outerplanar(3000, 25, 1),
                Radii::practical(2, 3),
            ),
        ];
        let mut engine = CutEngine::new();
        for (name, g, radii) in &graphs {
            assert!(g.n() >> block_shift(g.n()) >= 8, "{name} must span many blocks");
            for mode in [PairMode::Interesting, PairMode::Endpoints] {
                let one = engine.fused_masks(g, *radii, mode, 1);
                let counts = engine.pair_counts();
                for workers in [2, 4, 7] {
                    let at = format!("{name} workers={workers}");
                    assert!(engine.fused_masks(g, *radii, mode, workers) == one, "{at}");
                    let now = engine.pair_counts();
                    assert_eq!(now.in_range, counts.in_range, "{at}");
                    assert_eq!(now.exit_rejected, counts.exit_rejected, "{at}");
                }
            }
        }
    }

    #[test]
    fn only_balls_with_a_candidate_are_stored() {
        // The index keeps a ball only when its center has a separator
        // candidate; the pair count still covers every ball.
        let g = lmds_gen::ding::scale_instance(5000, 0);
        let r = 4;
        let (mut all, mut with_candidate) = (0, 0);
        let (mut ws, mut split) = (SubsetScratch::new(), AnchorSplit::default());
        for u in g.vertices() {
            let ball = bfs::ball(&g, u, r);
            articulation::neighbor_separators_within(&g, &mut ws, &ball, u, &mut split);
            all += ball.len();
            if split.separators.contains(&true) {
                with_candidate += ball.len();
            }
        }
        let mut engine = CutEngine::new();
        engine.interesting_mask(&g, r);
        assert_eq!(engine.balls.stored_entries(), with_candidate);
        assert!(with_candidate < all, "{with_candidate} of {all}");
        assert_eq!(engine.pair_counts().in_range, (all - g.n()) / 2);
    }

    #[test]
    fn stored_balls_are_the_balls_with_their_separator_flags() {
        // Every stored ball is N^r[u] as a set, with exactly the flag
        // `neighbor_separators_within` gives each vertex. Below the
        // crossover it keeps the BFS order of `ball_of_set_into`; from
        // it on (the path's 301- to 601-entry balls) it is sorted.
        let cases: Vec<(&str, Graph, u32)> = vec![
            ("chain5000_s0", lmds_gen::ding::scale_instance(5000, 0), 4),
            ("outerplanar3000", lmds_gen::outerplanar::random_outerplanar(3000, 25, 1), 3),
            ("path3000", path(3000), 300),
        ];
        let mut engine = CutEngine::new();
        let (mut ws, mut split) = (SubsetScratch::new(), AnchorSplit::default());
        let (mut scratch, mut bfs_order) = (Scratch::new(), Vec::new());
        for (name, g, r) in &cases {
            engine.interesting_mask(g, *r);
            let (mut stored_balls, mut sorted_balls) = (0, 0);
            for u in g.vertices() {
                let ball = bfs::ball(g, u, *r);
                articulation::neighbor_separators_within(g, &mut ws, &ball, u, &mut split);
                let stored = engine.balls.ball(u);
                if !split.separators.contains(&true) {
                    assert!(stored.verts.is_empty(), "{name} u={u}: stored without a candidate");
                    continue;
                }
                stored_balls += 1;
                if stored.verts.len() >= SORTED_BALL_MIN {
                    sorted_balls += 1;
                    assert!(stored.verts.windows(2).all(|w| w[0] < w[1]), "{name} u={u}");
                } else {
                    bfs::ball_of_set_into(g, &mut scratch, &[u], *r, &mut bfs_order);
                    let widened: Vec<Vertex> = stored.verts.iter().map(|&v| v as Vertex).collect();
                    assert_eq!(widened, bfs_order, "{name} u={u}: BFS order");
                }
                let mut got: Vec<(Vertex, bool)> = (0..stored.verts.len())
                    .map(|j| (stored.verts[j] as Vertex, stored.is_candidate(j)))
                    .collect();
                got.sort_unstable();
                let want: Vec<(Vertex, bool)> =
                    ball.iter().copied().zip(split.separators.iter().copied()).collect();
                assert_eq!(got, want, "{name} u={u}");
            }
            assert!(stored_balls > 0, "{name}");
            if *name == "path3000" {
                assert_eq!(sorted_balls, stored_balls, "{name}: every ball is above the crossover");
            }
        }
    }

    #[test]
    fn zero_radii_give_no_local_cuts() {
        // N^0[v] = {v} holds no cut, and a radius of 0 on either side of
        // a fused sweep, where the monotonicity lemma does not apply,
        // leaves the other side's answer.
        let g = lmds_gen::basic::caterpillar(40, 1);
        let mut engine = CutEngine::new();
        let x2 = engine.one_cut_mask(&g, 2);
        let i2 = engine.interesting_mask(&g, 2);
        let none = vec![false; g.n()];
        let fused = |e: &mut CutEngine, one_cut, two_cut| {
            e.one_cut_and_interesting_masks(&g, Radii { one_cut, two_cut })
        };
        assert_eq!(fused(&mut engine, 0, 2), (none.clone(), i2));
        assert_eq!(fused(&mut engine, 2, 0), (x2, none.clone()));
        assert_eq!(fused(&mut engine, 0, 0), (none.clone(), none));
    }

    #[test]
    fn prefilter_profiles_few_pairs_on_the_chain_family() {
        // The equivalence suite cannot see a dropped prefilter (outputs
        // stay identical), so pin its effect: on the chain family at the
        // pipeline's r₂ = 4, the separator bits and the exit test leave
        // hardly more pairs than there are cuts to profile.
        let g = lmds_gen::ding::scale_instance(5000, 0);
        let mut engine = CutEngine::new();
        let cuts = engine.two_cuts(&g, 4);
        let counts = engine.pair_counts();
        assert_eq!(counts.cuts, cuts.len());
        assert!(counts.in_range > 0 && counts.profiled >= counts.cuts, "{counts:?}");
        assert!(counts.profiled <= counts.cuts + 8, "{counts:?}");
        assert!(counts.exit_rejected > 0, "{counts:?}");
        engine.interesting_mask(&g, 4);
        let sweep = engine.pair_counts();
        assert_eq!(sweep.in_range, counts.in_range);
        assert_eq!(sweep.exit_rejected, counts.exit_rejected);
        assert!(sweep.profiled * 10 <= sweep.in_range, "{sweep:?}");
    }

    #[test]
    fn pair_counts_follow_the_last_sweep() {
        // C12 at r = 6: every pair is in range; the minimal 2-cuts are
        // the 54 non-adjacent pairs, and adjacent pairs never pass the
        // prefilter (removing a neighbor leaves the rest of the cycle
        // connected). No ball has a cut center, so no exit test runs.
        let g = cycle(12);
        let mut engine = CutEngine::new();
        assert_eq!(engine.pair_counts(), PairCounts::default());
        engine.two_cuts(&g, 6);
        let counts = PairCounts { in_range: 66, profiled: 54, cuts: 54, exit_rejected: 0 };
        assert_eq!(engine.pair_counts(), counts);
        // At r = 1 every ball is a path cut by its center, so every pair
        // stays a separator candidate. But the component {u − 1} of
        // u's ball exits only to u − 2, outside the ball of u + 1, so the
        // exit test rejects all 12 pairs and none is profiled.
        engine.two_cuts(&g, 1);
        let counts = PairCounts { in_range: 12, profiled: 0, cuts: 0, exit_rejected: 12 };
        assert_eq!(engine.pair_counts(), counts);
    }

    #[test]
    fn local_two_cut_requires_distance() {
        let g = path(10);
        // Distance 5 > r = 3 → not an r-local 2-cut even though they
        // separate globally.
        assert!(!is_local_two_cut(&g, 2, 7, 3));
    }
}
