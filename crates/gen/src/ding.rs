//! Fans, strips, and augmentations — the building blocks of Ding's
//! structure theorem for `K_{2,t}`-minor-free graphs (paper §5.4,
//! Proposition 5.15): every `K_{2,t}`-minor-free graph is an
//! *augmentation* of a bounded-size base graph by disjoint fans and
//! strips.
//!
//! We use the theorem in the generator direction: base + fans + strips
//! yields large structured graphs whose `K_{2,s}` minors stay small
//! (strips are `K_{2,5}`-minor-free; fans are outerplanar), which is the
//! workload Algorithm 1's round-complexity argument (Lemma 4.2) is
//! about — long strips/fans force many local 1- and 2-cuts.

use crate::rng::SmallRng;
use lmds_graph::{Graph, Vertex};

/// The fan `F_len`: center `0`, path `1..=len+1`, center adjacent to
/// every path vertex. `len` is the number of chords (paper: the fan's
/// length). Corners: center `0`, path endpoints `1` and `len + 1`.
///
/// # Panics
///
/// Panics if `len == 0`.
pub fn fan(len: usize) -> Graph {
    assert!(len >= 1, "fan length must be ≥ 1");
    let path_len = len + 1;
    let mut g = Graph::new(path_len + 1);
    for i in 1..path_len {
        g.add_edge(i, i + 1);
    }
    for i in 1..=path_len {
        g.add_edge(0, i);
    }
    g
}

/// A strip of length `k`: two parallel paths `t_0 … t_{k-1}` (vertices
/// `0..k`) and `b_0 … b_{k-1}` (vertices `k..2k`), end edges
/// `t_0 b_0` and `t_{k-1} b_{k-1}` closing the reference cycle, plus the
/// non-crossing chords `t_i b_i`. Corners: `t_0, b_0, t_{k-1}, b_{k-1}`
/// = vertices `0, k, k-1, 2k-1`.
///
/// Strips are `K_{2,5}`-minor-free (Ding); their radius grows linearly
/// in `k`, which is what makes them the interesting case of Lemma 4.2.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn strip(k: usize) -> Graph {
    assert!(k >= 2, "strip needs length ≥ 2");
    let mut g = Graph::new(2 * k);
    for i in 0..k - 1 {
        g.add_edge(i, i + 1); // top path
        g.add_edge(k + i, k + i + 1); // bottom path
    }
    for i in 0..k {
        g.add_edge(i, k + i); // rungs (includes both end edges)
    }
    g
}

/// The four corners of [`strip`]`(k)`.
pub fn strip_corners(k: usize) -> [Vertex; 4] {
    [0, k, k - 1, 2 * k - 1]
}

/// Specification of a random augmentation (paper §5.4): a base graph,
/// plus fans and strips whose corners are identified with base vertices.
#[derive(Debug, Clone)]
pub struct AugmentationSpec {
    /// Number of base vertices (`m` in the paper's `B_m`).
    pub base_n: usize,
    /// Base edge probability in percent (the base is made connected
    /// afterwards with a spanning path of missing edges).
    pub base_density_percent: u32,
    /// Number of fans to attach; lengths drawn from `fan_len`.
    pub fans: usize,
    /// Fan length range (inclusive).
    pub fan_len: (usize, usize),
    /// Number of strips to attach; lengths drawn from `strip_len`.
    pub strips: usize,
    /// Strip length range (inclusive).
    pub strip_len: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl AugmentationSpec {
    /// A reasonable default family used throughout the benches: small
    /// dense-ish base, several medium fans and strips.
    pub fn standard(base_n: usize, fans: usize, strips: usize, seed: u64) -> Self {
        AugmentationSpec {
            base_n,
            base_density_percent: 30,
            fans,
            fan_len: (2, 6),
            strips,
            strip_len: (3, 8),
            seed,
        }
    }

    /// Generates the augmentation.
    pub fn generate(&self) -> Graph {
        augmentation(self)
    }
}

/// Generates a random augmentation per `spec`. The result is connected.
///
/// Built in bulk: [`augmentation_edges`] emits the whole composition as
/// one flat edge stream (O(n + m) plus the O(base_n²) base density
/// draws) and a single CSR bulk build follows. No per-edge splicing, no
/// intermediate husk vertices — this is the path that takes composed
/// instances to the 10⁵–10⁷-vertex scale frontier.
pub fn augmentation(spec: &AugmentationSpec) -> Graph {
    let (n, edges) = augmentation_edges(spec);
    Graph::from_edges(n, &edges)
}

/// Emits the augmentation of `spec` as a flat edge stream, returning
/// `(n, edges)` ready for one bulk [`Graph::from_edges`] build (the
/// stream may repeat an edge where attachments collide; the bulk build
/// dedups). Identification with base vertices happens *by construction*:
/// fan and strip corners are emitted directly as base vertex ids, so no
/// husk vertices exist and no compaction pass is needed.
///
/// Vertex numbering: base vertices are `0..base_n`, followed by each
/// fan's interior path vertices in attachment order, then each strip's
/// interior top row and full bottom row in attachment order. (This is
/// exactly the numbering the historical splice-and-compact builder
/// produced, which the differential test in this module pins.)
pub fn augmentation_edges(spec: &AugmentationSpec) -> (usize, Vec<(Vertex, Vertex)>) {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let n0 = spec.base_n.max(2);
    // Random base; connectivity of the base-so-far is tracked with a
    // union–find (spanning-path repair edges included).
    let mut edges = Vec::new();
    let mut uf = lmds_graph::connectivity::UnionFind::new(n0);
    for u in 0..n0 {
        for v in (u + 1)..n0 {
            if rng.gen_range(0..100) < spec.base_density_percent as usize {
                edges.push((u, v));
                uf.union(u, v);
            }
        }
    }
    for v in 1..n0 {
        if uf.union(v - 1, v) {
            edges.push((v - 1, v));
        }
    }
    let mut fresh = n0;
    // Attach fans: the center is identified with base vertex `a` and the
    // first path endpoint with base vertex `b` (a legal identification
    // per §5.4 since fan corners include the center); the remaining
    // `len` path vertices are fresh.
    for _ in 0..spec.fans {
        let len = rng.gen_range(spec.fan_len.0..=spec.fan_len.1);
        let a = rng.gen_range(0..n0);
        let mut b = rng.gen_range(0..n0);
        while b == a {
            b = rng.gen_range(0..n0);
        }
        edges.reserve(2 * len + 1);
        edges.push((a, b)); // spoke to the identified endpoint
        let mut prev = b;
        for i in 0..len {
            let p = fresh + i;
            edges.push((a, p)); // spoke
            edges.push((prev, p)); // path
            prev = p;
        }
        fresh += len;
    }
    // Attach strips: the two top corners are identified with distinct
    // base vertices `a` and `b`; the `len - 2` interior top vertices and
    // the full `len`-vertex bottom row are fresh.
    for _ in 0..spec.strips {
        let len = rng.gen_range(spec.strip_len.0..=spec.strip_len.1);
        let a = rng.gen_range(0..n0);
        let mut b = rng.gen_range(0..n0);
        while b == a {
            b = rng.gen_range(0..n0);
        }
        edges.reserve(3 * len - 2);
        let top = |i: usize| -> Vertex {
            if i == 0 {
                a
            } else if i == len - 1 {
                b
            } else {
                fresh + (i - 1)
            }
        };
        let bot_base = fresh + (len - 2);
        for i in 0..len - 1 {
            edges.push((top(i), top(i + 1))); // top path
            edges.push((bot_base + i, bot_base + i + 1)); // bottom path
        }
        for i in 0..len {
            edges.push((top(i), bot_base + i)); // rungs
        }
        fresh += 2 * len - 2;
    }
    (fresh, edges)
}

/// A composed chain instance with approximately `target_n` vertices
/// (within one piece of the target), for the `scale` experiment's
/// 10⁶-vertex frontier.
///
/// The graph is a long path of *base* vertices with one fan or strip
/// (lengths drawn from the [`AugmentationSpec::standard`] ranges)
/// augmented between each consecutive base pair — the §5.4 composition
/// restricted to chain-shaped identifications. Two properties make this
/// the right scale family where a hub-heavy augmentation is not:
///
/// * **Bounded balls.** Every attachment spans one base edge, so
///   `|N^r[v]|` is bounded by the piece length (independent of `n`) and
///   the Definition-2.1 sweeps stay linear-memory at 10⁶ vertices. A
///   small-base augmentation instead concentrates Θ(n) attachments on
///   O(1) base vertices, whose radius-2 balls then swallow the graph.
/// * **Small excluded minor.** Between any base pair there is one
///   attachment: a fan adds 2 internally-disjoint `a`–`b` paths beside
///   the base edge and a strip adds 3, so no `K_{2,t}` minor beyond
///   small constant `t` ever forms (pinned by the minor test at
///   analysis scale).
///
/// Generation is a single bulk edge-stream build, O(n + m).
pub fn scale_instance(target_n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    // `prev` is the newest base vertex; ids are handed out in chain
    // order, pieces interleaved between their endpoints.
    let mut prev: Vertex = 0;
    let mut fresh: Vertex = 1;
    while fresh < target_n.max(2) {
        let next = fresh;
        fresh += 1;
        edges.push((prev, next));
        if rng.gen_range(0..2) == 0 {
            // Fan between `prev` and `next`: spokes from `prev`, path
            // starting at `next`.
            let len = rng.gen_range(2..=6);
            let mut tail = next;
            for _ in 0..len {
                let p = fresh;
                fresh += 1;
                edges.push((prev, p));
                edges.push((tail, p));
                tail = p;
            }
        } else {
            // Strip between `prev` and `next` as the top corners.
            let len = rng.gen_range(3..=8);
            let top = |i: usize| -> Vertex {
                if i == 0 {
                    prev
                } else if i == len - 1 {
                    next
                } else {
                    fresh + (i - 1)
                }
            };
            let bot_base = fresh + (len - 2);
            for i in 0..len - 1 {
                edges.push((top(i), top(i + 1)));
                edges.push((bot_base + i, bot_base + i + 1));
            }
            for i in 0..len {
                edges.push((top(i), bot_base + i));
            }
            fresh += 2 * len - 2;
        }
        prev = next;
    }
    Graph::from_edges(fresh, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::connectivity::is_connected;
    use lmds_graph::minor::{is_k2t_minor_free, max_k2_minor};

    /// The historical splice-and-compact builder, kept verbatim as the
    /// differential reference for the bulk edge-stream path.
    fn augmentation_spliced(spec: &AugmentationSpec) -> Graph {
        fn identify(g: &mut Graph, from: Vertex, to: Vertex) {
            let nbs: Vec<Vertex> = g.neighbors(from).iter().map(|&u| u as Vertex).collect();
            for u in nbs {
                g.remove_edge(from, u);
                if u != to && !g.has_edge(to, u) {
                    g.add_edge(to, u);
                }
            }
        }
        fn compact(g: &Graph) -> Graph {
            let keep: Vec<Vertex> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
            lmds_graph::InducedSubgraph::new(g, &keep).graph.into_owned()
        }
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let n0 = spec.base_n.max(2);
        let mut edges = Vec::new();
        let mut uf = lmds_graph::connectivity::UnionFind::new(n0);
        for u in 0..n0 {
            for v in (u + 1)..n0 {
                if rng.gen_range(0..100) < spec.base_density_percent as usize {
                    edges.push((u, v));
                    uf.union(u, v);
                }
            }
        }
        for v in 1..n0 {
            if uf.union(v - 1, v) {
                edges.push((v - 1, v));
            }
        }
        let mut g = Graph::from_edges(n0, &edges);
        for _ in 0..spec.fans {
            let len = rng.gen_range(spec.fan_len.0..=spec.fan_len.1);
            let f = fan(len);
            let offset = g.disjoint_union(&f);
            let a = rng.gen_range(0..n0);
            let mut b = rng.gen_range(0..n0);
            while b == a {
                b = rng.gen_range(0..n0);
            }
            identify(&mut g, offset, a);
            identify(&mut g, offset + 1, b);
        }
        for _ in 0..spec.strips {
            let len = rng.gen_range(spec.strip_len.0..=spec.strip_len.1);
            let s = strip(len);
            let offset = g.disjoint_union(&s);
            let [c_t0, _c_b0, c_tk, _c_bk] = strip_corners(len);
            let a = rng.gen_range(0..n0);
            let mut b = rng.gen_range(0..n0);
            while b == a {
                b = rng.gen_range(0..n0);
            }
            identify(&mut g, offset + c_t0, a);
            identify(&mut g, offset + c_tk, b);
        }
        compact(&g)
    }

    #[test]
    fn bulk_stream_matches_legacy_splice_path_exactly() {
        // Same RNG consumption order, same identification pattern, same
        // survivor numbering ⇒ the bulk path must reproduce the spliced
        // builder's graph bit for bit, across a spread of shapes.
        for (base_n, fans, strips, seed) in
            [(2, 1, 0, 0), (2, 0, 1, 1), (6, 3, 2, 9), (10, 5, 5, 42), (4, 8, 1, 7), (12, 0, 6, 3)]
        {
            let spec = AugmentationSpec::standard(base_n, fans, strips, seed);
            assert_eq!(
                augmentation(&spec),
                augmentation_spliced(&spec),
                "bulk/splice divergence at base_n={base_n} fans={fans} strips={strips} seed={seed}"
            );
        }
        // Degenerate strip length 2 exercises the top path collapsing to
        // the single edge a–b.
        let spec = AugmentationSpec {
            base_n: 5,
            base_density_percent: 40,
            fans: 2,
            fan_len: (1, 1),
            strips: 3,
            strip_len: (2, 2),
            seed: 11,
        };
        assert_eq!(augmentation(&spec), augmentation_spliced(&spec));
    }

    #[test]
    fn edge_stream_size_accounting() {
        let spec = AugmentationSpec::standard(8, 4, 3, 5);
        let (n, edges) = augmentation_edges(&spec);
        let g = Graph::from_edges(n, &edges);
        assert_eq!(g.n(), n);
        // The stream may repeat colliding attachment edges but never by
        // much: every emitted pair is a real edge of the result.
        assert!(g.m() <= edges.len());
        for &(u, v) in &edges {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn scale_instance_hits_target_and_is_connected() {
        let g = scale_instance(50_000, 17);
        let n = g.n();
        assert!(
            (50_000..50_020).contains(&n),
            "scale_instance(50_000) produced n={n}, more than one piece off target"
        );
        assert!(is_connected(&g));
        assert_eq!(g, scale_instance(50_000, 17), "must be deterministic");
    }

    #[test]
    #[ignore = "exact minor confirmation burns ~1 CPU-minute; run with --ignored"]
    fn scale_instance_stays_k2t_minor_free() {
        // One attachment per base pair: a strip contributes at most 3
        // internally-disjoint paths beside nothing else, so small-t
        // minors are excluded. Pin it at analysis scale (the exact
        // minor check is hub-pair exponential, so keep the instance
        // small and the bound loose).
        let g = scale_instance(12, 5);
        assert!(is_k2t_minor_free(&g, 5, 500_000_000).unwrap());
    }

    #[test]
    fn scale_instance_balls_stay_bounded() {
        // The property that makes this the scale family: radius-2 balls
        // are piece-sized, independent of n.
        for (target, seed) in [(500, 1), (5_000, 2)] {
            let g = scale_instance(target, seed);
            let max_ball =
                g.vertices().map(|v| lmds_graph::bfs::ball(&g, v, 2).len()).max().unwrap();
            assert!(max_ball <= 40, "n={}: radius-2 ball of {max_ball} vertices", g.n());
        }
    }

    #[test]
    fn fan_shape() {
        let g = fan(3);
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.m(), 3 + 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn fans_are_outerplanar_hence_k23_free() {
        for len in 1..=5 {
            let g = fan(len);
            assert!(is_k2t_minor_free(&g, 3, 50_000_000).unwrap(), "fan({len})");
        }
    }

    #[test]
    fn strip_shape() {
        let g = strip(4);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 3 + 3 + 4);
        assert!(is_connected(&g));
        let [a, b, c, d] = strip_corners(4);
        assert_eq!([a, b, c, d], [0, 4, 3, 7]);
        for corner in [a, b, c, d] {
            assert!(g.degree(corner) == 2);
        }
    }

    #[test]
    fn strips_are_k25_minor_free() {
        // Ding proves strips exclude K_{2,5}; our ladder strips are even
        // K_{2,4}-minor-free at these sizes. Assert the theorem's bound.
        for k in 2..=5 {
            let g = strip(k);
            assert!(is_k2t_minor_free(&g, 5, 100_000_000).unwrap(), "strip({k})");
        }
    }

    #[test]
    fn strip_radius_grows() {
        let d4 = lmds_graph::bfs::diameter(&strip(4)).unwrap();
        let d8 = lmds_graph::bfs::diameter(&strip(8)).unwrap();
        assert!(d8 > d4);
        assert_eq!(d4 as usize, 4); // across the ladder
    }

    #[test]
    fn augmentation_is_connected_and_deterministic() {
        let spec = AugmentationSpec::standard(6, 3, 2, 9);
        let g = spec.generate();
        assert!(is_connected(&g));
        assert_eq!(g, spec.generate());
        assert!(g.n() > 6);
    }

    #[test]
    fn augmentation_minor_stays_small() {
        // The K_{2,s} minors of an augmentation are driven by the base
        // size, not by the (arbitrarily long) fans and strips.
        let small_base = AugmentationSpec {
            base_n: 4,
            base_density_percent: 50,
            fans: 2,
            fan_len: (2, 3),
            strips: 1,
            strip_len: (3, 4),
            seed: 3,
        };
        let g = small_base.generate();
        let ans = max_k2_minor(&g, 500_000_000);
        assert!(ans.is_exact(), "graph too large for exact check: n={}", g.n());
        assert!(
            ans.value() <= 6,
            "augmentation of a 4-vertex base should have small K_2 minors, got {}",
            ans.value()
        );
    }
}
