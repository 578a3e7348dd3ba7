//! Control functions and the paper's derived radii.

/// A control function `f(r)` witnessing an asymptotic-dimension bound
/// for a graph class, together with the paper's derived constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFunction {
    /// `K_{2,t}`-minor-free graphs: `f(r) = (5r + 18)·t`, dimension 1
    /// (paper §4, citing [3, Lemma 7.1]).
    K2tMinorFree {
        /// The excluded-minor parameter `t ≥ 2`.
        t: u32,
    },
    /// A generic affine control function `f(r) = a·r + b` with an
    /// explicit dimension, for experimenting with Algorithm 2 on other
    /// classes.
    Affine {
        /// Slope.
        a: u32,
        /// Offset.
        b: u32,
        /// Asymptotic dimension witnessed.
        dim: u32,
    },
}

impl ControlFunction {
    /// Evaluates `f(r)`.
    pub fn eval(&self, r: u32) -> u32 {
        match *self {
            ControlFunction::K2tMinorFree { t } => (5 * r + 18) * t,
            ControlFunction::Affine { a, b, .. } => a * r + b,
        }
    }

    /// The asymptotic dimension this function witnesses.
    pub fn dimension(&self) -> u32 {
        match *self {
            ControlFunction::K2tMinorFree { .. } => 1,
            ControlFunction::Affine { dim, .. } => dim,
        }
    }

    /// The paper's radius for local 1-cut collection:
    /// `m_{3.2} = f(5) + 2` (§5.2).
    pub fn m32(&self) -> u32 {
        self.eval(5) + 2
    }

    /// The paper's radius for interesting local 2-cut collection:
    /// `m_{3.3} = f(11) + 5` (§5.3). This is the radius the proofs of
    /// Claims 5.13/5.14 use, so it is the value taken here.
    pub fn m33(&self) -> u32 {
        self.eval(11) + 5
    }

    /// The paper's 1-cut counting constant `c_{3.2}(d) = 3(d+1)`.
    pub fn c32(&self) -> u32 {
        3 * (self.dimension() + 1)
    }

    /// The paper's interesting-vertex counting constant
    /// `c_{3.3}(d) = 22(d+1)`.
    pub fn c33(&self) -> u32 {
        22 * (self.dimension() + 1)
    }

    /// The headline approximation ratio `c_{3.2} + c_{3.3} + 1`.
    pub fn approximation_ratio(&self) -> u32 {
        self.c32() + self.c33() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k2t_values() {
        let f = ControlFunction::K2tMinorFree { t: 2 };
        assert_eq!(f.eval(5), (25 + 18) * 2);
        assert_eq!(f.m32(), 86 + 2);
        assert_eq!(f.m33(), (55 + 18) * 2 + 5);
        assert_eq!(f.dimension(), 1);
        // d = 1: 6 + 44 + 1 = 51. The paper headlines a ratio of 50,
        // but the constants it states sum to 51, and this follows them.
        assert_eq!(f.approximation_ratio(), 51);
    }

    #[test]
    fn radii_grow_linearly_in_t() {
        let f2 = ControlFunction::K2tMinorFree { t: 2 };
        let f4 = ControlFunction::K2tMinorFree { t: 4 };
        assert_eq!(f4.m32() - 2, 2 * (f2.m32() - 2));
        assert!(f4.m33() > f2.m33());
        // Ratio is independent of t.
        assert_eq!(f2.approximation_ratio(), f4.approximation_ratio());
    }

    #[test]
    fn affine_control() {
        let f = ControlFunction::Affine { a: 3, b: 1, dim: 2 };
        assert_eq!(f.eval(10), 31);
        assert_eq!(f.dimension(), 2);
        assert_eq!(f.c32(), 9);
        assert_eq!(f.c33(), 66);
    }
}
