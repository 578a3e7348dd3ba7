//! # lmds-graph
//!
//! Graph substrate for the reproduction of *"Local Constant Approximation
//! for Dominating Set on Graphs Excluding Large Minors"* (PODC 2025).
//!
//! This crate is self-contained (no graph-library dependency) and provides
//! every centralized primitive the paper's LOCAL algorithms and their
//! analysis need:
//!
//! * a compact undirected [`Graph`] backed by a compressed-sparse-row
//!   store ([`csr`]): flat `offsets`/`neighbors` arrays, O(1) degree,
//!   slice-based neighbor iteration; the sorted-adjacency API is a set
//!   of thin views over those arrays (build in bulk — see the [`csr`]
//!   module docs for the construction-vs-mutation contract),
//! * reusable traversal workspaces ([`scratch`]): visited epochs, BFS
//!   queue, and distance buffers shared across queries via explicit
//!   `_with`/`_into` variants or the thread-local pool, making ball
//!   queries O(|ball|) instead of O(n) (see [`scratch`] for the reuse
//!   contract),
//! * traversal and metric queries ([`bfs`]: balls `N^r[v]`, distances,
//!   diameter, radius, weak diameter),
//! * the connectivity stack ([`connectivity`]; [`articulation`], whose
//!   lowpoint DFS gives the cut vertices and bridges; [`two_cuts`];
//!   [`spqr`]),
//! * true-twin reduction ([`twins`]),
//! * dominating-set and vertex-cover toolkits with naive exact solvers
//!   ([`dominating`], [`vertex_cover`]) and the [`exact::ExactEngine`]
//!   (reduction rules, then branch and bound or a tree-decomposition DP
//!   per component, picked by one size-and-width rule) that supersedes
//!   them on every hot path; the naive solvers stay as its differential
//!   oracle. `B`-domination (`MDS(G, B)`) always takes its dominators
//!   from `N[B]`,
//! * exact `K_{2,t}`-minor detection via hub-pair enumeration plus
//!   Menger-style petal counting ([`minor`]),
//! * batched dynamic updates ([`dynamic`]): [`DynamicGraph`] applies
//!   edge/vertex insert+delete batches atomically over the CSR (splice
//!   for small batches, amortized rebuild for large ones),
//! * the workspace's one parallel execution substrate ([`par`]): a
//!   worker policy and the scoped-thread helpers every parallel phase
//!   runs on.
//!
//! # Example
//!
//! ```
//! use lmds_graph::Graph;
//! use lmds_graph::dominating::{greedy_dominating_set, is_dominating_set};
//!
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let ds = greedy_dominating_set(&g);
//! assert!(is_dominating_set(&g, &ds));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod articulation;
pub mod bfs;
pub mod bitset;
pub mod connectivity;
pub mod csr;
pub mod dominating;
pub mod dynamic;
pub mod errors;
pub mod exact;
pub mod graph;
pub mod io;
pub mod minor;
pub mod par;
pub mod properties;
pub mod scratch;
pub mod spqr;
pub mod subgraph;
pub mod treewidth;
pub mod twins;
pub mod two_cuts;
pub mod vertex_cover;

pub use bitset::FixedBitSet;
pub use csr::Csr;
pub use dynamic::{DynamicGraph, GraphUpdate, UpdateStats};
pub use errors::GraphError;
pub use exact::ExactEngine;
pub use graph::{Graph, GraphBuilder, Vertex, MAX_VERTICES};
pub use scratch::{Scratch, SubsetScratch};
pub use subgraph::{induced_in_order, InducedSubgraph};

/// A set of vertices represented as a sorted, deduplicated vector.
///
/// Most APIs in this workspace exchange vertex sets in this canonical form
/// so that equality comparisons and set operations are deterministic.
pub type VertexSet = Vec<Vertex>;

/// Canonicalizes a vertex collection into a sorted, deduplicated
/// [`VertexSet`].
///
/// ```
/// let s = lmds_graph::canonical_set(vec![3, 1, 3, 2]);
/// assert_eq!(s, vec![1, 2, 3]);
/// ```
pub fn canonical_set<I: IntoIterator<Item = Vertex>>(verts: I) -> VertexSet {
    let mut v: Vec<Vertex> = verts.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}
