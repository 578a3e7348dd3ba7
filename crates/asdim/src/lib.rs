//! # lmds-asdim
//!
//! Asymptotic-dimension machinery (paper §3): `r`-components,
//! `D`-boundedness, covers, control functions, and the local-to-global
//! transfer of Proposition 3.1.
//!
//! The *asymptotic dimension* of a graph class `G` is the least `d` such
//! that there is a control function `f` with: for every `G ∈ G` and every
//! `r > 0` there is a cover `V(G) = B_0 ∪ … ∪ B_d` in which every
//! `r`-component of each `B_i` has weak diameter at most `f(r)`.
//!
//! `K_{2,t}`-minor-free graphs have asymptotic dimension 1 with control
//! function `f(r) = (5r + 18)·t` (paper, citing [3, Lemma 7.1]); this
//! constant feeds the paper's radii `m_{3.2} = f(5)+2` and
//! `m_{3.3} = f(11)+5`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod cover;
pub mod prop31;
pub mod rcomp;

pub use control::ControlFunction;
pub use cover::{layered_cover, verify_cover, Cover, CoverViolation};
pub use prop31::{prop31_report, Prop31Report};
pub use rcomp::{is_d_bounded, r_components};
