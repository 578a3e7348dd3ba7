//! The differential harness for [`DynamicGraph`]: every `lmds-gen`
//! family × seeds, hit with deterministic random
//! insert/delete/add-vertex streams, and checked after **every** batch
//! against an independent reference — a `BTreeSet` of edges plus a
//! vertex count that applies each op by the documented rule (inserting
//! a present edge or removing an absent one is a skipped no-op).
//!
//! After each batch the harness asserts that
//!
//! 1. the graph equals a from-scratch [`Graph::from_edges`] build of
//!    the reference;
//! 2. [`UpdateStats`] carries the reference's inserted / removed /
//!    added / skipped counts, and `rebuilt` is set exactly when the
//!    batch holds more than [`SPLICE_LIMIT`] edge ops.
//!
//! Batch sizes run from 1 to `SPLICE_LIMIT + 4`, so both update tiers
//! (per-op splice and bulk rebuild) run; each test asserts that both
//! did.

use lmds_gen::ding::AugmentationSpec;
use lmds_gen::rng::SmallRng;
use lmds_graph::dynamic::{DynamicGraph, GraphUpdate, UpdateStats, SPLICE_LIMIT};
use lmds_graph::{Graph, Vertex};
use std::collections::BTreeSet;

/// The deterministic corpus: every generator family.
fn corpus() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("path13".into(), lmds_gen::basic::path(13)),
        ("cycle12".into(), lmds_gen::basic::cycle(12)),
        ("star9".into(), lmds_gen::basic::star(9)),
        ("spider3x4".into(), lmds_gen::basic::spider(3, 4)),
        ("caterpillar6x2".into(), lmds_gen::basic::caterpillar(6, 2)),
        ("grid4x4".into(), lmds_gen::basic::grid(4, 4)),
        ("strip5".into(), lmds_gen::ding::strip(5)),
        ("fan6".into(), lmds_gen::ding::fan(6)),
        ("clique_pendants6".into(), lmds_gen::adversarial::clique_with_pendants(6)),
        ("long_cycle21".into(), lmds_gen::adversarial::long_cycle(21)),
        ("theta_ring4x2".into(), lmds_gen::composite::theta_ring(4, 2)),
        ("necklace3x5".into(), lmds_gen::composite::necklace(3, 5)),
        ("kary_tree2d3".into(), lmds_gen::trees::complete_kary_tree(2, 3)),
        ("broom5x4".into(), lmds_gen::trees::broom(5, 4)),
    ];
    for seed in 0..2u64 {
        out.push((format!("tree_s{seed}"), lmds_gen::trees::random_tree(17, seed)));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(14, seed),
        ));
        out.push((
            format!("augmentation_s{seed}"),
            AugmentationSpec::standard(4, 1, 1, seed).generate(),
        ));
        out.push((format!("gnp_s{seed}"), lmds_gen::random::connected_gnp(14, 25, seed)));
        out.push((
            format!("bounded_deg_s{seed}"),
            lmds_gen::random::random_bounded_degree(16, 3, seed),
        ));
    }
    out
}

/// One random update batch against the current graph. Inserts pick
/// arbitrary distinct pairs (present pairs are skipped no-ops by
/// contract), deletes pick uniformly among present edges, and when
/// `grow` is set a batch may append a vertex and wire it in.
fn random_batch(g: &Graph, rng: &mut SmallRng, grow: bool) -> Vec<GraphUpdate> {
    // Straddle the splice/rebuild threshold: sizes 1 ..= SPLICE_LIMIT + 4.
    let len = 1 + rng.gen_range(0..SPLICE_LIMIT + 4);
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut n = g.n();
    let mut batch = Vec::with_capacity(len);
    for _ in 0..len {
        match rng.next_u64() % 4 {
            0 | 1 => {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    batch.push(GraphUpdate::InsertEdge(u, v));
                }
            }
            2 => {
                if !edges.is_empty() {
                    let (u, v) = edges[rng.gen_range(0..edges.len())];
                    batch.push(GraphUpdate::RemoveEdge(u, v));
                }
            }
            _ => {
                if grow {
                    batch.push(GraphUpdate::AddVertex);
                    let u = rng.gen_range(0..n);
                    batch.push(GraphUpdate::InsertEdge(u, n));
                    n += 1;
                } else if !edges.is_empty() {
                    let (u, v) = edges[rng.gen_range(0..edges.len())];
                    batch.push(GraphUpdate::RemoveEdge(u, v));
                }
            }
        }
    }
    if batch.is_empty() {
        // Never submit an empty batch; an insert keeps the stream
        // moving (n ≥ 2 for every corpus instance).
        batch.push(GraphUpdate::InsertEdge(0, 1));
    }
    batch
}

/// The independent reference: a vertex count and an edge set, each op
/// applied by the documented rule.
struct Reference {
    n: usize,
    edges: BTreeSet<(Vertex, Vertex)>,
}

impl Reference {
    fn new(g: &Graph) -> Self {
        Reference { n: g.n(), edges: g.edges().collect() }
    }

    /// Applies `batch` and returns what [`DynamicGraph::apply`] must
    /// report.
    fn apply(&mut self, batch: &[GraphUpdate]) -> UpdateStats {
        let edge_ops = batch.iter().filter(|op| !matches!(op, GraphUpdate::AddVertex)).count();
        let mut stats = UpdateStats { rebuilt: edge_ops > SPLICE_LIMIT, ..UpdateStats::default() };
        for op in batch {
            match *op {
                GraphUpdate::AddVertex => {
                    self.n += 1;
                    stats.added_vertices += 1;
                }
                GraphUpdate::InsertEdge(u, v) => {
                    if self.edges.insert((u.min(v), u.max(v))) {
                        stats.inserted += 1;
                    } else {
                        stats.skipped += 1;
                    }
                }
                GraphUpdate::RemoveEdge(u, v) => {
                    if self.edges.remove(&(u.min(v), u.max(v))) {
                        stats.removed += 1;
                    } else {
                        stats.skipped += 1;
                    }
                }
            }
        }
        stats
    }

    fn graph(&self) -> Graph {
        let edges: Vec<(Vertex, Vertex)> = self.edges.iter().copied().collect();
        Graph::from_edges(self.n, &edges)
    }
}

/// Drives `steps` random batches over one instance, checking the
/// dynamic graph against the reference after every batch (see the
/// module docs). Returns how many batches took the splice tier
/// (index 0) and the rebuild tier (index 1).
fn certify_stream(name: &str, g: Graph, seed: u64, steps: usize, grow: bool) -> [usize; 2] {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF);
    let mut reference = Reference::new(&g);
    let mut dg = DynamicGraph::new(g);
    let mut tiers = [0; 2];
    for step in 1..=steps {
        let ctx = format!("{name} step {step}");
        let batch = random_batch(dg.graph(), &mut rng, grow);
        let expected = reference.apply(&batch);
        let stats = dg.apply(&batch).unwrap_or_else(|e| panic!("{ctx}: bad batch {batch:?}: {e}"));
        assert_eq!(dg.graph(), &reference.graph(), "{ctx}: graph ≠ from_edges after {batch:?}");
        assert_eq!(stats, expected, "{ctx}: update stats for {batch:?}");
        tiers[usize::from(stats.rebuilt)] += 1;
    }
    tiers
}

/// One 16-batch stream per corpus instance and seed; both update tiers
/// must run somewhere in the sweep.
fn certify_corpus(seeds: &[u64], grow: bool) {
    let mut tiers = [0; 2];
    for (name, g) in corpus() {
        for &seed in seeds {
            let [splices, rebuilds] = certify_stream(&name, g.clone(), seed, 16, grow);
            tiers[0] += splices;
            tiers[1] += rebuilds;
        }
    }
    assert!(tiers[0] > 0 && tiers[1] > 0, "both tiers must run: {tiers:?}");
}

#[test]
fn edge_streams_match_from_scratch_on_every_family() {
    certify_corpus(&[11, 12, 13], false);
}

#[test]
fn growth_streams_match_from_scratch() {
    certify_corpus(&[23], true);
}
