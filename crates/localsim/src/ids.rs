//! Identifier assignments: the `O(log n)`-bit labels of the LOCAL model.
//!
//! Deterministic LOCAL algorithms must work under *every* assignment of
//! distinct identifiers; experiments therefore run both the sequential
//! assignment and adversarially shuffled ones.

use lmds_graph::{Graph, Vertex};

/// One step of the splitmix64 sequence (the workspace's dependency-free
/// deterministic mixer).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct identifiers for the vertices of a graph: `ids[v]` is the
/// identifier of vertex `v`.
///
/// The assignment holds its id vector and nothing else. The LOCAL
/// algorithms only ever *compare* identifiers, so no map from an
/// identifier back to its vertex is kept. Distinctness is checked once,
/// at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
}

impl IdAssignment {
    /// Builds an assignment from explicit ids.
    ///
    /// # Panics
    ///
    /// Panics if ids are not distinct.
    pub fn from_ids(ids: Vec<u64>) -> Self {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            panic!("duplicate identifier {}", w[0]);
        }
        IdAssignment { ids }
    }

    /// A permutation of `0..n`, distinct by construction, so no check
    /// runs.
    fn permutation(ids: Vec<u64>) -> Self {
        IdAssignment { ids }
    }

    /// The identity assignment `id(v) = v`.
    pub fn sequential(n: usize) -> Self {
        Self::permutation((0..n as u64).collect())
    }

    /// A deterministic pseudo-random permutation of `0..n` seeded by
    /// `seed` (splitmix-style; no external RNG needed).
    pub fn shuffled(n: usize, seed: u64) -> Self {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..n).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        Self::permutation(ids)
    }

    /// A degree-adversarial permutation: the lowest-degree vertices get
    /// the smallest identifiers (ties broken by a seeded splitmix hash).
    ///
    /// A heuristic adversary for the paper's algorithms, whose
    /// tie-breaks prefer *small* identifiers: leaves and other
    /// low-degree vertices win every minimum-id tie-break, while hubs —
    /// the vertices a good dominating set wants — get the largest ids.
    pub fn adversarial(g: &Graph, seed: u64) -> Self {
        let tiebreak: Vec<u64> = (0..g.n() as u64)
            .map(|v| {
                let mut state = seed ^ v.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                splitmix(&mut state)
            })
            .collect();
        let mut order: Vec<Vertex> = (0..g.n()).collect();
        order.sort_by_key(|&v| (g.degree(v), tiebreak[v], v));
        let mut ids = vec![0u64; g.n()];
        for (rank, &v) in order.iter().enumerate() {
            ids[v] = rank as u64;
        }
        Self::permutation(ids)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// The identifier of vertex `v`.
    pub fn id_of(&self, v: Vertex) -> u64 {
        self.ids[v]
    }

    /// Bits needed per identifier (`⌈log₂(max_id + 1)⌉`, at least 1).
    pub fn bits(&self) -> u32 {
        let max = self.ids.iter().copied().max().unwrap_or(0);
        64 - max.leading_zeros().min(63)
    }
}

/// How a LOCAL scenario assigns identifiers to vertices — the knob the
/// paper's "works under every assignment of distinct identifiers"
/// quantifier turns into an experiment axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdPolicy {
    /// The identity assignment `id(v) = v`.
    Sequential,
    /// A deterministic pseudo-random permutation
    /// ([`IdAssignment::shuffled`]).
    Shuffled {
        /// Permutation seed.
        seed: u64,
    },
    /// The degree-adversarial permutation
    /// ([`IdAssignment::adversarial`]).
    Adversarial {
        /// Tie-break seed.
        seed: u64,
    },
}

impl IdPolicy {
    /// Materializes the assignment this policy prescribes for `g`.
    pub fn assign(&self, g: &Graph) -> IdAssignment {
        match *self {
            IdPolicy::Sequential => IdAssignment::sequential(g.n()),
            IdPolicy::Shuffled { seed } => IdAssignment::shuffled(g.n(), seed),
            IdPolicy::Adversarial { seed } => IdAssignment::adversarial(g, seed),
        }
    }
}

impl std::fmt::Display for IdPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdPolicy::Sequential => write!(f, "sequential"),
            IdPolicy::Shuffled { seed } => write!(f, "shuffled({seed})"),
            IdPolicy::Adversarial { seed } => write!(f, "adversarial({seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_roundtrip() {
        let ids = IdAssignment::sequential(5);
        for v in 0..5 {
            assert_eq!(ids.id_of(v), v as u64);
        }
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let ids = IdAssignment::shuffled(100, 42);
        let mut seen: Vec<u64> = (0..100).map(|v| ids.id_of(v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn shuffles_differ_by_seed_and_are_deterministic() {
        let a = IdAssignment::shuffled(50, 1);
        let b = IdAssignment::shuffled(50, 2);
        let a2 = IdAssignment::shuffled(50, 1);
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate identifier")]
    fn duplicate_ids_rejected() {
        let _ = IdAssignment::from_ids(vec![3, 3]);
    }

    #[test]
    fn adversarial_is_a_permutation_ranking_low_degree_first() {
        let g = lmds_graph::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        let ids = IdAssignment::adversarial(&g, 7);
        let mut seen: Vec<u64> = (0..5).map(|v| ids.id_of(v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..5).collect::<Vec<u64>>());
        // The hub (degree 3) gets the largest id; leaves get the
        // smallest ids.
        assert_eq!(ids.id_of(0), 4);
        assert!(ids.id_of(1) < 3 && ids.id_of(2) < 3 && ids.id_of(4) < 3);
        // Deterministic for a fixed seed.
        assert_eq!(ids, IdAssignment::adversarial(&g, 7));
    }

    #[test]
    fn policies_materialize_and_display() {
        let g = lmds_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(IdPolicy::Sequential.assign(&g), IdAssignment::sequential(4));
        assert_eq!(IdPolicy::Shuffled { seed: 3 }.assign(&g), IdAssignment::shuffled(4, 3));
        assert_eq!(IdPolicy::Adversarial { seed: 3 }.assign(&g), IdAssignment::adversarial(&g, 3));
        assert_eq!(IdPolicy::Sequential.to_string(), "sequential");
        assert_eq!(IdPolicy::Shuffled { seed: 3 }.to_string(), "shuffled(3)");
        assert_eq!(IdPolicy::Adversarial { seed: 9 }.to_string(), "adversarial(9)");
    }

    #[test]
    fn bit_width() {
        assert_eq!(IdAssignment::sequential(1).bits(), 1);
        assert_eq!(IdAssignment::sequential(2).bits(), 1);
        assert_eq!(IdAssignment::from_ids(vec![0, 255]).bits(), 8);
        assert_eq!(IdAssignment::from_ids(vec![0, 256]).bits(), 9);
    }
}
