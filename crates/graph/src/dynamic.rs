//! Dynamic graphs: batched edge/vertex updates over the CSR.
//!
//! The CSR substrate is built for bulk construction; [`Csr::insert_arc`]
//! and [`Csr::remove_arc`] exist as O(n + m) splice paths for *small*
//! perturbations. [`DynamicGraph`] turns those two primitives into a
//! subsystem: updates arrive as batches of [`GraphUpdate`] ops, each
//! batch is validated up front (so application is atomic), and the
//! mutation strategy is chosen per batch — a handful of ops ride the
//! splice path, while a large batch triggers one amortized O(n + m + k)
//! rebuild instead of k sequential splices.
//!
//! [`Csr::insert_arc`]: crate::csr::Csr::insert_arc
//! [`Csr::remove_arc`]: crate::csr::Csr::remove_arc

use crate::errors::GraphError;
use crate::graph::{Graph, Vertex};
use std::collections::HashSet;

/// A single mutation in an update batch.
///
/// Vertices referenced by edge ops may be created by an earlier
/// [`GraphUpdate::AddVertex`] in the same batch: validation tracks the
/// running vertex count in batch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the undirected edge `{u, v}`. Inserting an edge that is
    /// already present is a no-op (counted in [`UpdateStats::skipped`]).
    InsertEdge(Vertex, Vertex),
    /// Remove the undirected edge `{u, v}`. Removing an absent edge is
    /// a no-op (counted in [`UpdateStats::skipped`]).
    RemoveEdge(Vertex, Vertex),
    /// Append one isolated vertex (index `n` at the time the op is
    /// applied).
    AddVertex,
}

/// What a successfully applied batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edges actually inserted (not counting already-present no-ops).
    pub inserted: usize,
    /// Edges actually removed (not counting already-absent no-ops).
    pub removed: usize,
    /// Vertices appended.
    pub added_vertices: usize,
    /// Edge ops that were no-ops (insert of a present edge, remove of
    /// an absent one).
    pub skipped: usize,
    /// Whether the batch was applied via one bulk CSR rebuild instead
    /// of per-op splices.
    pub rebuilt: bool,
}

impl UpdateStats {
    /// Whether the batch changed the graph at all.
    pub fn changed(&self) -> bool {
        self.inserted + self.removed + self.added_vertices > 0
    }
}

/// Edge-op count above which a batch is applied by rebuilding the CSR
/// in bulk (O(n + m + k)) instead of splicing op by op (O(k·(n + m))).
pub const SPLICE_LIMIT: usize = 8;

/// A mutable graph built for incremental workloads. See the
/// [module docs](self) for the batching and invalidation contract.
///
/// ```
/// use lmds_graph::dynamic::{DynamicGraph, GraphUpdate};
/// use lmds_graph::Graph;
///
/// let mut dg = DynamicGraph::new(Graph::from_edges(4, &[(0, 1), (2, 3)]));
/// let stats = dg
///     .apply(&[GraphUpdate::InsertEdge(1, 2), GraphUpdate::RemoveEdge(2, 3)])
///     .unwrap();
/// assert_eq!((stats.inserted, stats.removed), (1, 1));
/// assert_eq!(dg.graph().edges().collect::<Vec<_>>(), [(0, 1), (1, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    graph: Graph,
}

impl DynamicGraph {
    /// Wraps an existing graph.
    pub fn new(graph: Graph) -> Self {
        Self { graph }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the wrapper, returning the current graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Validates a batch without applying it: every edge op must
    /// reference in-range, distinct endpoints, where "in range" counts
    /// vertices added by earlier `AddVertex` ops in the same batch.
    fn validate(&self, batch: &[GraphUpdate]) -> Result<(), GraphError> {
        let mut n = self.graph.n();
        for op in batch {
            match *op {
                GraphUpdate::AddVertex => n += 1,
                GraphUpdate::InsertEdge(u, v) | GraphUpdate::RemoveEdge(u, v) => {
                    if u == v {
                        return Err(GraphError::SelfLoop { vertex: u });
                    }
                    for w in [u, v] {
                        if w >= n {
                            return Err(GraphError::VertexOutOfRange { vertex: w, n });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies an update batch atomically.
    ///
    /// The batch is validated first (range and self-loop checks against
    /// the running vertex count); on error the graph is unchanged. No-op edge ops (inserting a present edge,
    /// removing an absent one) are not errors — they are counted in
    /// [`UpdateStats::skipped`] so idempotent update streams replay
    /// cleanly.
    ///
    /// Small batches splice the CSR in place; batches with more than
    /// [`SPLICE_LIMIT`](self) edge ops are applied via one bulk
    /// rebuild. Both paths produce the identical graph (asserted by the
    /// test-suite): the CSR keeps adjacency sorted, so construction
    /// order never shows.
    pub fn apply(&mut self, batch: &[GraphUpdate]) -> Result<UpdateStats, GraphError> {
        self.validate(batch)?;
        let edge_ops = batch.iter().filter(|op| !matches!(op, GraphUpdate::AddVertex)).count();
        let mut stats = UpdateStats::default();
        if edge_ops > SPLICE_LIMIT {
            stats = self.apply_rebuild(batch);
        } else {
            for op in batch {
                match *op {
                    GraphUpdate::AddVertex => {
                        self.graph.add_vertex();
                        stats.added_vertices += 1;
                    }
                    GraphUpdate::InsertEdge(u, v) => {
                        // Validated above: the only try_add_edge outcomes
                        // left are "inserted" and "already present".
                        if self.graph.try_add_edge(u, v).expect("batch was validated") {
                            stats.inserted += 1;
                        } else {
                            stats.skipped += 1;
                        }
                    }
                    GraphUpdate::RemoveEdge(u, v) => {
                        if self.graph.remove_edge(u, v) {
                            stats.removed += 1;
                        } else {
                            stats.skipped += 1;
                        }
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Bulk path for large batches: replay the ops against an edge set,
    /// then rebuild the CSR once. Must agree op-for-op with the splice
    /// path on effective/skipped accounting.
    fn apply_rebuild(&mut self, batch: &[GraphUpdate]) -> UpdateStats {
        let mut stats = UpdateStats { rebuilt: true, ..UpdateStats::default() };
        let mut n = self.graph.n();
        let mut edges: HashSet<(Vertex, Vertex)> = self.graph.edges().collect();
        for op in batch {
            match *op {
                GraphUpdate::AddVertex => {
                    n += 1;
                    stats.added_vertices += 1;
                }
                GraphUpdate::InsertEdge(u, v) => {
                    if edges.insert((u.min(v), u.max(v))) {
                        stats.inserted += 1;
                    } else {
                        stats.skipped += 1;
                    }
                }
                GraphUpdate::RemoveEdge(u, v) => {
                    if edges.remove(&(u.min(v), u.max(v))) {
                        stats.removed += 1;
                    } else {
                        stats.skipped += 1;
                    }
                }
            }
        }
        let mut list: Vec<(Vertex, Vertex)> = edges.into_iter().collect();
        list.sort_unstable();
        self.graph = Graph::from_edges(n, &list);
        stats
    }
}

impl From<Graph> for DynamicGraph {
    fn from(graph: Graph) -> Self {
        Self::new(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twins;

    fn edge_list(g: &Graph) -> Vec<(Vertex, Vertex)> {
        g.edges().collect()
    }

    #[test]
    fn splice_and_rebuild_paths_agree() {
        // One big batch (rebuild path) vs the same ops one at a time
        // (splice path) must land on the identical graph and totals.
        let base = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]);
        let batch: Vec<GraphUpdate> = vec![
            GraphUpdate::InsertEdge(0, 2),
            GraphUpdate::RemoveEdge(1, 2),
            GraphUpdate::InsertEdge(3, 4),
            GraphUpdate::InsertEdge(3, 4), // duplicate → skipped
            GraphUpdate::RemoveEdge(0, 7), // absent → skipped
            GraphUpdate::AddVertex,
            GraphUpdate::InsertEdge(8, 0),
            GraphUpdate::InsertEdge(5, 6),
            GraphUpdate::RemoveEdge(4, 5),
            GraphUpdate::InsertEdge(2, 7),
            GraphUpdate::InsertEdge(1, 7),
        ];
        let mut bulk = DynamicGraph::new(base.clone());
        let bulk_stats = bulk.apply(&batch).unwrap();
        assert!(bulk_stats.rebuilt, "9 edge ops must take the rebuild path");

        let mut spliced = DynamicGraph::new(base);
        let mut totals = UpdateStats::default();
        for op in &batch {
            let s = spliced.apply(std::slice::from_ref(op)).unwrap();
            assert!(!s.rebuilt);
            totals.inserted += s.inserted;
            totals.removed += s.removed;
            totals.added_vertices += s.added_vertices;
            totals.skipped += s.skipped;
        }
        assert_eq!(edge_list(bulk.graph()), edge_list(spliced.graph()));
        assert_eq!(
            (
                bulk_stats.inserted,
                bulk_stats.removed,
                bulk_stats.added_vertices,
                bulk_stats.skipped
            ),
            (totals.inserted, totals.removed, totals.added_vertices, totals.skipped)
        );
        assert_eq!((totals.inserted, totals.removed), (6, 2));
        assert_eq!((totals.added_vertices, totals.skipped), (1, 2));
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let base = Graph::from_edges(3, &[(0, 1)]);
        let mut dg = DynamicGraph::new(base.clone());
        // Valid prefix, then an out-of-range endpoint: nothing applies.
        let err =
            dg.apply(&[GraphUpdate::InsertEdge(1, 2), GraphUpdate::InsertEdge(0, 9)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 9, n: 3 });
        assert_eq!(edge_list(dg.graph()), edge_list(&base));

        let err = dg.apply(&[GraphUpdate::InsertEdge(2, 2)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 2 });

        // An edge op may reference a vertex created earlier in the SAME
        // batch, but not one that would only exist later.
        let err = dg.apply(&[GraphUpdate::InsertEdge(0, 3), GraphUpdate::AddVertex]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, n: 3 });
        dg.apply(&[GraphUpdate::AddVertex, GraphUpdate::InsertEdge(0, 3)]).unwrap();
        assert!(dg.graph().has_edge(0, 3));
    }

    #[test]
    fn pooled_scratch_survives_growth_past_its_warmed_size() {
        // Warm this thread's pooled scratch on a small graph, grow the
        // dynamic graph well past it, and re-run the pooled queries:
        // the BFS must equal a cold scratch's, and the twin pass (which
        // keeps no pooled buffer) the brute-force representatives.
        let small = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let _ = crate::bfs::ball(&small, 0, 2);
        let _ = twins::twin_representatives(&small);

        let mut dg = DynamicGraph::new(small);
        let mut batch = vec![GraphUpdate::AddVertex; 63];
        batch.extend((3..64).map(|v| GraphUpdate::InsertEdge(v - 3, v)));
        // 64 and 65 form a true-twin pair hanging off vertex 10.
        batch.extend([(64, 65), (64, 10), (65, 10)].map(|(u, v)| GraphUpdate::InsertEdge(u, v)));
        dg.apply(&batch).unwrap();
        let g = dg.graph();
        assert_eq!(g.n(), 66);

        let mut cold = crate::scratch::Scratch::new();
        let mut ball = Vec::new();
        crate::bfs::ball_of_set_into(g, &mut cold, &[63], 2, &mut ball);
        ball.sort_unstable();
        assert_eq!(crate::bfs::ball(g, 63, 2), ball);

        let brute: Vec<Vertex> = g
            .vertices()
            .map(|v| (0..=v).find(|&u| u == v || g.are_true_twins(u, v)).unwrap())
            .collect();
        assert_eq!(brute[65], 64, "the grown graph has a twin pair");
        assert_eq!(twins::twin_representatives(g), brute);
    }
}
