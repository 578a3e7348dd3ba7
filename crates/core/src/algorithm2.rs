//! Algorithm 2 (Theorem 4.3): the same pipeline as Algorithm 1 but
//! parameterized by an asymptotic-dimension control function rather
//! than by the excluded-minor size `t`.
//!
//! The ratio `c_{3.2}(d) + c_{3.3}(d) + 1` depends only on the class's
//! asymptotic dimension `d`; the *round complexity* additionally depends
//! on the largest `K_{2,t}` minor actually present in the input (which
//! the algorithm never needs to know — Lemma 4.2 bounds the residual
//! diameter a posteriori). The proved ratio is
//! [`ControlFunction::approximation_ratio`]; the `t` actually present is
//! estimated by [`lmds_graph::minor::max_k2_minor`].

use crate::algorithm1::{algorithm1, Algorithm1Output};
use crate::radii::Radii;
use lmds_asdim::ControlFunction;
use lmds_graph::Graph;
use lmds_localsim::IdAssignment;

/// Algorithm 2, centralized reference: derive the radii from the control
/// function and run the pipeline.
pub fn algorithm2(g: &Graph, ids: &IdAssignment, f: &ControlFunction) -> Algorithm1Output {
    algorithm1(g, ids, Radii::from_control(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_graph::dominating::is_dominating_set;

    #[test]
    fn algorithm2_matches_algorithm1_at_k2t_control() {
        let g = lmds_gen::ding::AugmentationSpec::standard(5, 2, 1, 3).generate();
        let ids = IdAssignment::shuffled(g.n(), 3);
        let f = ControlFunction::K2tMinorFree { t: 2 };
        let out2 = algorithm2(&g, &ids, &f);
        let out1 = algorithm1(&g, &ids, Radii::theoretical(2));
        assert_eq!(out1.solution, out2.solution);
        assert!(is_dominating_set(&g, &out2.solution));
    }

    #[test]
    fn ratio_is_dimension_only() {
        // The headline point of Theorem 4.3: changing t changes the
        // radii (rounds) but not the proved ratio.
        let f2 = ControlFunction::K2tMinorFree { t: 2 };
        let f9 = ControlFunction::K2tMinorFree { t: 9 };
        assert_eq!(f2.approximation_ratio(), f9.approximation_ratio());
        assert!(Radii::from_control(&f9).two_cut > Radii::from_control(&f2).two_cut);
    }

    #[test]
    fn max_k2_minor_finds_the_present_t() {
        let present_t = |g: &Graph| lmds_graph::minor::max_k2_minor(g, 10_000_000).value();
        assert_eq!(present_t(&lmds_gen::basic::cycle(7)), 2);
        assert_eq!(present_t(&lmds_gen::basic::complete_bipartite(2, 4)), 4);
        assert_eq!(present_t(&lmds_gen::basic::path(6)), 1);
    }

    #[test]
    fn algorithm2_dominates_on_generic_class() {
        // Run with an affine control function on a tree (dimension 1).
        let g = lmds_gen::trees::random_tree(20, 1);
        let ids = IdAssignment::sequential(20);
        let f = ControlFunction::Affine { a: 2, b: 1, dim: 1 };
        let out = algorithm2(&g, &ids, &f);
        assert!(is_dominating_set(&g, &out.solution));
    }
}
