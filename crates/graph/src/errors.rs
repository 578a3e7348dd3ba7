//! Error types for the graph substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex index was at least the number of vertices in the graph.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the substrate models simple
    /// undirected graphs only.
    SelfLoop {
        /// The vertex with the attempted self-loop.
        vertex: usize,
    },
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// The unparseable content.
        content: String,
    },
    /// A search budget was exhausted before an exact answer was found.
    BudgetExhausted {
        /// Human-readable description of the computation that ran out.
        what: &'static str,
    },
    /// A binary graph snapshot was rejected (bad magic, unsupported
    /// schema version, truncation, or checksum mismatch).
    Snapshot {
        /// What was wrong with the snapshot bytes.
        detail: String,
    },
    /// An edge list given as sorted was not: each edge `(u, v)` needs
    /// `u < v`, and the list strictly increasing.
    UnsortedEdges {
        /// Position of the first edge out of order.
        index: usize,
    },
    /// The requested vertex count exceeds the compact-CSR capacity:
    /// adjacency rows store vertex indices as `u32`, so at most
    /// [`crate::MAX_VERTICES`] vertices are representable.
    TooManyVertices {
        /// The requested vertex count.
        n: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed in a simple graph")
            }
            GraphError::Parse { line, content } => {
                write!(f, "could not parse edge list at line {line}: {content:?}")
            }
            GraphError::BudgetExhausted { what } => {
                write!(f, "search budget exhausted during {what}")
            }
            GraphError::Snapshot { detail } => {
                write!(f, "invalid graph snapshot: {detail}")
            }
            GraphError::UnsortedEdges { index } => {
                write!(f, "edge {index} breaks the sorted order (u < v, strictly increasing)")
            }
            GraphError::TooManyVertices { n } => {
                write!(
                    f,
                    "vertex count {n} exceeds the u32-compact adjacency capacity ({})",
                    u32::MAX
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 3 };
        assert_eq!(e.to_string(), "vertex 7 out of range for graph with 3 vertices");
        let e = GraphError::SelfLoop { vertex: 2 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Parse { line: 4, content: "a b".into() };
        assert!(e.to_string().contains("line 4"));
        let e = GraphError::BudgetExhausted { what: "minor search" };
        assert!(e.to_string().contains("minor search"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}
