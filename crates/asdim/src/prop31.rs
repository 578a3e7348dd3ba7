//! Proposition 3.1: the local-to-global transfer.
//!
//! If a LOCAL algorithm `A` satisfies, on a hereditary class `C`,
//! `|A(G) ∩ S| ≤ α·MDS(G, N^k[S])` for all `S`, and `D` has asymptotic
//! dimension `d` with control function `f` (and is suitably locally-`C`),
//! then `A` is an `α(d+1)`-approximation on `D`.
//!
//! This module is the *empirical harness* for that statement: given a
//! graph, a cover at scale `2k+3`, and the output of an algorithm, it
//! measures the per-component charge `|A(G) ∩ B| / MDS(G, N^k[B])` and
//! checks the global `α(d+1)` conclusion. The paper includes the
//! proposition for expository value (their final algorithm avoids it);
//! we keep it executable for the same reason.

use crate::cover::{layered_cover, Cover};
use crate::rcomp::r_components;
use lmds_graph::bfs::ball_of_set;
use lmds_graph::dominating::{exact_b_dominating, exact_mds_capped};
use lmds_graph::{Graph, Vertex};

/// Result of a Proposition 3.1 measurement.
#[derive(Debug, Clone)]
pub struct Prop31Report {
    /// The largest per-component charge `|A ∩ B| / MDS(G, N^k[B])`
    /// observed (this is the `α` the hypothesis must cover).
    pub max_component_charge: f64,
    /// `|A(G)|` (the algorithm's total output size).
    pub output_size: usize,
    /// `MDS(G)` (or a lower bound if the solver budget ran out).
    pub mds: usize,
    /// Whether `MDS` is exact.
    pub mds_exact: bool,
    /// Number of `(2k+3)`-components over all parts.
    pub components: usize,
    /// The conclusion's bound `α(d+1)` instantiated with the *measured*
    /// `α = max_component_charge` and `d = cover dimension`.
    pub implied_global_bound: f64,
    /// The measured global ratio `|A(G)| / MDS(G)`.
    pub global_ratio: f64,
}

impl Prop31Report {
    /// Whether the transfer conclusion holds with the measured charge:
    /// `global_ratio ≤ implied_global_bound` (up to float fuzz).
    pub fn conclusion_holds(&self) -> bool {
        self.global_ratio <= self.implied_global_bound + 1e-9
    }
}

/// Measures Proposition 3.1 for algorithm output `a_out` on `g` with
/// locality parameter `k`, using the given cover (or the layered cover
/// at scale `2k+3` when `None`).
pub fn prop31_report(
    g: &Graph,
    a_out: &[Vertex],
    k: u32,
    cover: Option<&Cover>,
    budget: u64,
) -> Prop31Report {
    let scale = 2 * k + 3;
    let owned;
    let cover = match cover {
        Some(c) => c,
        None => {
            owned = layered_cover(g, scale);
            &owned
        }
    };
    let mut in_a = vec![false; g.n()];
    for &v in a_out {
        in_a[v] = true;
    }
    let mut max_charge = 0f64;
    let mut components = 0usize;
    for part in &cover.parts {
        for comp in r_components(g, part, scale) {
            components += 1;
            let inside = comp.iter().filter(|&&v| in_a[v]).count();
            if inside == 0 {
                continue;
            }
            let targets = ball_of_set(g, &comp, k);
            let opt = exact_b_dominating(g, &targets).len().max(1);
            max_charge = max_charge.max(inside as f64 / opt as f64);
        }
    }
    let (mds, mds_exact) = match exact_mds_capped(g, budget) {
        Some(s) => (s.len(), true),
        None => (lmds_graph::dominating::mds_lower_bound(g), false),
    };
    let d = cover.dimension() as f64;
    let global_ratio = a_out.len() as f64 / mds.max(1) as f64;
    Prop31Report {
        max_component_charge: max_charge,
        output_size: a_out.len(),
        mds,
        mds_exact,
        components,
        implied_global_bound: max_charge * (d + 1.0),
        global_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The folklore tree algorithm: all vertices of degree ≥ 2 (plus
    /// singleton/edge fixups) — the `A` we instantiate the proposition
    /// with (`k = 1`).
    fn folklore(g: &Graph) -> Vec<Vertex> {
        g.vertices()
            .filter(|&v| match g.degree(v) {
                0 => true,
                1 => {
                    let u = g.neighbors(v)[0] as usize;
                    g.degree(u) == 1 && v < u
                }
                _ => true,
            })
            .collect()
    }

    fn tree(n: usize, seed: u64) -> Graph {
        // Prüfer-ish random tree, local (no external dep on lmds-gen to
        // keep the dependency graph acyclic).
        let mut g = Graph::new(n);
        let mut s = seed;
        for i in 1..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let p = (s >> 33) as usize % i;
            g.add_edge(p, i);
        }
        g
    }

    #[test]
    fn transfer_holds_on_trees() {
        for seed in 0..6 {
            let g = tree(40, seed);
            let out = folklore(&g);
            let rep = prop31_report(&g, &out, 1, None, 1_000_000);
            assert!(rep.mds_exact, "seed={seed}");
            assert!(
                rep.conclusion_holds(),
                "seed={seed}: global {} vs implied {}",
                rep.global_ratio,
                rep.implied_global_bound
            );
            assert!(rep.components >= 1);
        }
    }

    #[test]
    fn per_component_charge_is_bounded_by_three_on_trees() {
        // The hypothesis of Prop 3.1 for the folklore algorithm: the
        // per-component charge stays ≤ 3 (the folklore α).
        for seed in 0..6 {
            let g = tree(35, seed);
            let out = folklore(&g);
            let rep = prop31_report(&g, &out, 1, None, 1_000_000);
            assert!(
                rep.max_component_charge <= 3.0 + 1e-9,
                "seed={seed}: α = {}",
                rep.max_component_charge
            );
        }
    }

    #[test]
    fn empty_output_gives_zero_charge() {
        let g = tree(10, 1);
        let rep = prop31_report(&g, &[], 1, None, 1_000_000);
        assert_eq!(rep.max_component_charge, 0.0);
        assert_eq!(rep.output_size, 0);
        assert!(rep.conclusion_holds() || rep.global_ratio == 0.0);
    }
}
