//! The locality radii parameterizing Algorithm 1 / Algorithm 2.

use lmds_asdim::ControlFunction;

/// The pair of radii used by the pipeline: `one_cut` for local 1-cut
/// detection (`m_{3.2}` in the paper) and `two_cut` for interesting
/// local 2-cut detection (`m_{3.3}`).
///
/// Any radii produce a *correct* dominating set (the brute-force step
/// dominates whatever remains); the theoretical values are what the
/// proved approximation ratio requires. Experiments sweep both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Radii {
    /// Radius for local 1-cuts (`m_{3.2} = f(5) + 2` at theory value).
    pub one_cut: u32,
    /// Radius for local 2-cuts (`m_{3.3} = f(11) + 5` at theory value).
    pub two_cut: u32,
}

impl Radii {
    /// The paper's theoretical radii for `K_{2,t}`-minor-free graphs
    /// (`f(r) = (5r+18)·t`, asymptotic dimension 1).
    pub fn theoretical(t: u32) -> Self {
        let f = ControlFunction::K2tMinorFree { t };
        Radii { one_cut: f.m32(), two_cut: f.m33() }
    }

    /// The radii Algorithm 2 derives from an arbitrary control function.
    pub fn from_control(f: &ControlFunction) -> Self {
        Radii { one_cut: f.m32(), two_cut: f.m33() }
    }

    /// Explicit small radii for simulable-scale experiments.
    ///
    /// # Panics
    ///
    /// Panics unless `one_cut ≥ 1` and `two_cut ≥ 2` (the paper's
    /// interesting-vertex definition needs `r ≥ 2`).
    pub fn practical(one_cut: u32, two_cut: u32) -> Self {
        assert!(one_cut >= 1, "one_cut radius must be ≥ 1");
        assert!(two_cut >= 2, "two_cut radius must be ≥ 2 (paper: r ≥ 2)");
        Radii { one_cut, two_cut }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_values_match_paper() {
        let r = Radii::theoretical(2);
        assert_eq!(r.one_cut, (5 * 5 + 18) * 2 + 2); // f(5)+2 = 88
        assert_eq!(r.two_cut, (5 * 11 + 18) * 2 + 5); // f(11)+5 = 151
                                                      // Linear in t.
        let r4 = Radii::theoretical(4);
        assert_eq!(r4.one_cut - 2, 2 * (r.one_cut - 2));
    }

    #[test]
    fn practical_validation() {
        let r = Radii::practical(2, 3);
        assert_eq!((r.one_cut, r.two_cut), (2, 3));
    }

    #[test]
    #[should_panic(expected = "≥ 2")]
    fn practical_rejects_tiny_two_cut_radius() {
        let _ = Radii::practical(1, 1);
    }
}
