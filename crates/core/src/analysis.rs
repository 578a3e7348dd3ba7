//! Approximation-ratio measurement against exact optima or certified
//! lower bounds: the tree DP on forests, else the exact engine within
//! the caller's search budget, else a certified lower bound.

use lmds_graph::dominating::{mds_lower_bound, tree_mds};
use lmds_graph::exact::with_thread_engine;
use lmds_graph::vertex_cover::vc_lower_bound;
use lmds_graph::Graph;

/// How the optimum (or its bound) was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimumKind {
    /// Exact optimum (branch and bound completed, or tree DP).
    Exact,
    /// A certified lower bound only; the reported ratio is an *upper
    /// bound* on the true ratio.
    LowerBound,
}

/// A measured approximation ratio.
#[derive(Debug, Clone, Copy)]
pub struct RatioReport {
    /// Size of the algorithm's solution.
    pub alg: usize,
    /// The optimum value or its lower bound.
    pub opt: usize,
    /// Whether `opt` is exact.
    pub kind: OptimumKind,
}

impl RatioReport {
    /// `alg / opt`, an upper bound on the true ratio when
    /// `kind = LowerBound`. Returns 1.0 when both sides are zero.
    pub fn ratio(&self) -> f64 {
        if self.alg == 0 && self.opt == 0 {
            1.0
        } else {
            self.alg as f64 / (self.opt.max(1)) as f64
        }
    }
}

/// Measures a dominating-set solution against the best optimum we can
/// certify: tree DP on forests, then the exact engine (reductions, then
/// per component the treewidth DP or branch and bound within `budget`),
/// then a certified lower bound.
pub fn mds_report(g: &Graph, alg_size: usize, budget: u64) -> RatioReport {
    if let Some(t) = tree_mds(g) {
        return RatioReport { alg: alg_size, opt: t.len(), kind: OptimumKind::Exact };
    }
    if let Ok(opt) = with_thread_engine(|e| e.solve_mds(g, budget)) {
        return RatioReport { alg: alg_size, opt: opt.len(), kind: OptimumKind::Exact };
    }
    RatioReport { alg: alg_size, opt: mds_lower_bound(g), kind: OptimumKind::LowerBound }
}

/// Measures a vertex-cover solution likewise.
pub fn vc_report(g: &Graph, alg_size: usize, budget: u64) -> RatioReport {
    match with_thread_engine(|e| e.solve_mvc(g, budget)) {
        Ok(opt) => RatioReport { alg: alg_size, opt: opt.len(), kind: OptimumKind::Exact },
        Err(_) => {
            RatioReport { alg: alg_size, opt: vc_lower_bound(g), kind: OptimumKind::LowerBound }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_path_report() {
        let g = lmds_gen::basic::path(9); // MDS = 3
        let r = mds_report(&g, 6, 1_000_000);
        assert_eq!(r.opt, 3);
        assert_eq!(r.kind, OptimumKind::Exact);
        assert!((r.ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_rescued_by_treewidth_dp() {
        // A zero B&B budget does not force a lower bound on skinny
        // graphs: the engine's treewidth DP certifies the cycle exactly.
        let g = lmds_gen::basic::cycle(30);
        let r = mds_report(&g, 30, 0);
        assert_eq!(r.kind, OptimumKind::Exact);
        assert_eq!(r.opt, 10);
    }

    #[test]
    fn budget_falls_back_to_lower_bound_on_wide_graphs() {
        // A 6×6 grid is twin-free, reduction-resistant, and wider than
        // every DP cap: with a zero B&B budget the engine gives up and
        // the report falls back to a certified lower bound.
        let g = lmds_gen::basic::grid(6, 6);
        let r = mds_report(&g, 36, 0);
        assert_eq!(r.kind, OptimumKind::LowerBound);
        assert!(r.opt >= 1);
        assert!(r.ratio() >= 1.0);
    }

    #[test]
    fn twin_rich_dense_graphs_are_now_exact_even_without_budget() {
        // The pre-engine cascade reported a lower bound here; the
        // engine's twin folding collapses K12 to one vertex and the
        // unit rule closes it with zero search nodes.
        let g = lmds_gen::basic::complete(12);
        let r = mds_report(&g, 12, 0);
        assert_eq!(r.kind, OptimumKind::Exact);
        assert_eq!(r.opt, 1);
    }

    #[test]
    fn vc_reports() {
        let g = lmds_gen::basic::cycle(10); // VC = 5
        let r = vc_report(&g, 10, 1_000_000);
        assert_eq!(r.opt, 5);
        assert!((r.ratio() - 2.0).abs() < 1e-9);
        let r2 = vc_report(&g, 10, 0);
        assert_eq!(r2.kind, OptimumKind::LowerBound);
    }

    #[test]
    fn zero_sizes() {
        let g = lmds_graph::Graph::new(0);
        let r = mds_report(&g, 0, 10);
        assert!((r.ratio() - 1.0).abs() < 1e-9);
    }
}
