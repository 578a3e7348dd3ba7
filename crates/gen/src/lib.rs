//! # lmds-gen
//!
//! Deterministic workload generators for the reproduction experiments.
//!
//! Families:
//! * [`basic`] — paths, cycles, stars, spiders, caterpillars, complete
//!   graphs, grids;
//! * [`trees`] — random and structured trees;
//! * [`outerplanar`] — random (maximal) outerplanar graphs, which are
//!   exactly the `{K_4, K_{2,3}}`-minor-free graphs;
//! * [`ding`] — fans, strips, and augmentations from Ding's structure
//!   theorem for `K_{2,t}`-minor-free graphs (paper §5.4);
//! * [`adversarial`] — the paper's cautionary examples (clique with
//!   pendant 2-cut gadgets, `C_6`, long cycles);
//! * [`random`] — G(n, p) and bounded-degree random graphs (negative
//!   controls and baselines).
//!
//! All generators are deterministic functions of their parameters
//! (randomized ones take an explicit seed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod basic;
pub mod composite;
pub mod ding;
pub mod outerplanar;
pub mod random;
pub mod rng;
pub mod trees;

pub use basic::{caterpillar, complete, cycle, grid, path, spider, star};
pub use composite::{fan_caterpillar, necklace, theta_chain, theta_ring};
pub use ding::{augmentation, augmentation_edges, fan, scale_instance, strip, AugmentationSpec};
pub use outerplanar::random_outerplanar;
pub use trees::random_tree;
