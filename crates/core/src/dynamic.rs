//! Component-scoped re-solve planner for dynamic graphs.
//!
//! Every step of the Algorithm 1 pipeline is **component-local**:
//!
//! * true twins share closed neighborhoods, hence are adjacent, so a
//!   twin class never spans two connected components (and the quotient
//!   of a connected graph stays connected — any neighbor of a dropped
//!   twin is a neighbor of its representative);
//! * the `X`/`I` masks are r-ball computations, and balls never cross a
//!   component boundary;
//! * `dominated` and `U` read one neighborhood;
//! * residual components refine connected components, and the exact
//!   solve encodes each residual component canonically by identifier.
//!
//! So Algorithm 1 on `G` equals the union of Algorithm 1 over the
//! connected components of `G` — which is what makes a k-edge update
//! cheap: only components whose **content** changed need re-running.
//! [`DynamicSolver`] exploits exactly that. It keys each component by
//! a fingerprint of its content (host vertices, identifiers, induced
//! edges) together with the radii and pipeline options, compared
//! exactly, keeps a bounded map from key to the component's solved
//! host-vertex set, and on [`DynamicSolver::resolve`]
//! re-runs the pipeline only for components whose fingerprint misses —
//! stitching cached solutions back for the rest. Invalidation is
//! thereby *content-driven*: the planner never needs a change journal,
//! so it is correct for any mutation source (including a
//! [`lmds_graph::dynamic::DynamicGraph`] whose journal was cleared).
//!
//! Fingerprints are 128 bits of FNV-1a (two independent seeds) plus
//! structural discriminators (n, m, host span); as with the serving
//! layer's checksum-keyed result cache, collisions are astronomically
//! unlikely but not impossible. The differential harness
//! (`tests/dynamic_differential.rs`) certifies equality with the
//! from-scratch pipeline across every generator family.

use crate::algorithm1::{algorithm1_with, PipelineOptions};
use crate::radii::Radii;
use lmds_graph::{connectivity, Graph, Vertex};
use lmds_localsim::IdAssignment;
use std::collections::{HashMap, VecDeque};

/// What one [`DynamicSolver::resolve`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicStats {
    /// Connected components in the graph.
    pub components_total: usize,
    /// Components whose cached solution was stitched back unchanged.
    pub components_reused: usize,
    /// Components re-run through the Algorithm 1 pipeline.
    pub components_resolved: usize,
}

/// Cache key for one component: a 128-bit content fingerprint plus
/// structural discriminators, and the pipeline parameters themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ComponentKey {
    hash_lo: u64,
    hash_hi: u64,
    n: u32,
    m: u32,
    first: Vertex,
    last: Vertex,
    radii: Radii,
    opts: PipelineOptions,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;
/// Second-lane seed: FNV offset basis xored with a fixed pattern so the
/// two lanes decorrelate (same prime, different starting state).
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

#[inline]
fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

#[inline]
fn fnv_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = fnv_step(h, b);
    }
    h
}

/// A bounded component-solution cache driving component-scoped
/// re-solves. See the [module docs](self) for the invalidation model.
///
/// ```
/// use lmds_core::dynamic::DynamicSolver;
/// use lmds_core::{PipelineOptions, Radii};
/// use lmds_graph::Graph;
/// use lmds_localsim::IdAssignment;
///
/// let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
/// let ids = IdAssignment::sequential(6);
/// let mut solver = DynamicSolver::new();
/// let radii = Radii::practical(2, 3);
/// let opts = PipelineOptions::default();
/// let (sol, stats) = solver.resolve(&g, &ids, radii, opts);
/// assert_eq!(sol, lmds_core::algorithm1_with(&g, &ids, radii, opts).solution);
/// assert_eq!(stats.components_resolved, 2);
/// // Identical content: everything stitches from cache.
/// let (_, again) = solver.resolve(&g, &ids, radii, opts);
/// assert_eq!(again.components_reused, 2);
/// ```
#[derive(Debug)]
pub struct DynamicSolver {
    capacity: usize,
    cache: HashMap<ComponentKey, Vec<Vertex>>,
    /// FIFO of cached keys, oldest first (eviction order).
    order: VecDeque<ComponentKey>,
}

/// Default bound on cached component solutions; at typical corpus
/// scales a component entry is tens of bytes, so the cache stays small.
const DEFAULT_CAPACITY: usize = 4096;

impl Default for DynamicSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicSolver {
    /// A planner with the default cache capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A planner caching at most `capacity` component solutions (FIFO
    /// eviction). `capacity` of 0 disables reuse entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity, cache: HashMap::new(), order: VecDeque::new() }
    }

    /// Cached component solutions currently held.
    pub fn cached_components(&self) -> usize {
        self.cache.len()
    }

    /// Drops every cached component solution.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.order.clear();
    }

    /// Keys one component: a fingerprint of its vertices with their
    /// identifiers and adjacency, plus the pipeline parameters as they
    /// are. `comp` must be sorted.
    fn key_of(
        g: &Graph,
        ids: &[u64],
        comp: &[Vertex],
        radii: Radii,
        opts: PipelineOptions,
    ) -> ComponentKey {
        let mut lo = FNV_OFFSET;
        let mut hi = FNV_OFFSET_HI;
        let mut m = 0u32;
        for &v in comp {
            lo = fnv_u64(lo, v as u64);
            hi = fnv_u64(hi, v as u64);
            lo = fnv_u64(lo, ids[v]);
            hi = fnv_u64(hi, ids[v]);
            for &w in g.neighbors(v) {
                // Components are closed under adjacency, so every
                // neighbor is in `comp`; hashing each arc once per
                // direction keeps the loop branch-free.
                lo = fnv_u64(lo, w as u64);
                hi = fnv_u64(hi, w as u64);
                if v < w as usize {
                    m += 1;
                }
            }
        }
        ComponentKey {
            hash_lo: lo,
            hash_hi: hi,
            n: comp.len() as u32,
            m,
            first: comp.first().copied().unwrap_or(0),
            last: comp.last().copied().unwrap_or(0),
            radii,
            opts,
        }
    }

    /// Runs Algorithm 1 on one component in isolation: the induced
    /// subgraph is materialized with component-local indices and the
    /// host identifiers carried over, so every tie-break matches the
    /// whole-graph run. Returns host vertices.
    fn solve_component(
        g: &Graph,
        ids: &[u64],
        comp: &[Vertex],
        radii: Radii,
        opts: PipelineOptions,
    ) -> Vec<Vertex> {
        let local = lmds_graph::induced_in_order(g, comp);
        let local_ids = IdAssignment::from_ids(comp.iter().map(|&v| ids[v]).collect());
        let out = algorithm1_with(&local, &local_ids, radii, opts);
        out.solution.into_iter().map(|li| comp[li]).collect()
    }

    /// Solves `g` by components, reusing every cached component whose
    /// content fingerprint matches; the result equals
    /// [`algorithm1_with`]`(g, ids, radii, opts).solution` (the sorted
    /// dominating set) with only dirty components re-run.
    pub fn resolve(
        &mut self,
        g: &Graph,
        ids: &IdAssignment,
        radii: Radii,
        opts: PipelineOptions,
    ) -> (Vec<Vertex>, DynamicStats) {
        let id_vec: Vec<u64> = g.vertices().map(|v| ids.id_of(v)).collect();
        let mut stats = DynamicStats::default();
        let mut solution = Vec::new();
        for mut comp in connectivity::connected_components(g) {
            comp.sort_unstable();
            stats.components_total += 1;
            let key = Self::key_of(g, &id_vec, &comp, radii, opts);
            if let Some(cached) = self.cache.get(&key) {
                stats.components_reused += 1;
                solution.extend_from_slice(cached);
                continue;
            }
            let solved = Self::solve_component(g, &id_vec, &comp, radii, opts);
            stats.components_resolved += 1;
            self.insert(key, solved.clone());
            solution.extend(solved);
        }
        solution.sort_unstable();
        solution.dedup();
        (solution, stats)
    }

    fn insert(&mut self, key: ComponentKey, solved: Vec<Vertex>) {
        if self.capacity == 0 {
            return;
        }
        if self.cache.insert(key, solved).is_none() {
            self.order.push_back(key);
            while self.cache.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.cache.remove(&old);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1_with;
    use lmds_graph::dominating::is_dominating_set;

    fn multi_component() -> Graph {
        let mut g = lmds_gen::outerplanar::random_maximal_outerplanar(10, 1);
        g.disjoint_union(&lmds_gen::basic::path(7));
        g.disjoint_union(&lmds_gen::ding::strip(4));
        g.disjoint_union(&Graph::new(1)); // isolated vertex
        g
    }

    #[test]
    fn resolve_matches_from_scratch_and_reuses() {
        let g = multi_component();
        let radii = Radii::practical(2, 3);
        let opts = PipelineOptions::default();
        for ids in [IdAssignment::sequential(g.n()), IdAssignment::shuffled(g.n(), 9)] {
            let mut solver = DynamicSolver::new();
            let fresh = algorithm1_with(&g, &ids, radii, opts).solution;
            let (sol, stats) = solver.resolve(&g, &ids, radii, opts);
            assert_eq!(sol, fresh);
            assert!(is_dominating_set(&g, &sol));
            assert_eq!(stats.components_total, 4);
            assert_eq!(stats.components_resolved, 4);
            let (sol2, stats2) = solver.resolve(&g, &ids, radii, opts);
            assert_eq!(sol2, fresh);
            assert_eq!(stats2.components_reused, 4);
            assert_eq!(stats2.components_resolved, 0);
        }
    }

    #[test]
    fn only_the_touched_component_is_re_solved() {
        let mut g = multi_component();
        let radii = Radii::practical(2, 3);
        let opts = PipelineOptions::default();
        let mut solver = DynamicSolver::new();
        let ids = IdAssignment::sequential(g.n());
        solver.resolve(&g, &ids, radii, opts);
        // Perturb the path component only (vertices 10..17 host the
        // 7-path): drop one edge in the middle.
        assert!(g.remove_edge(12, 13));
        let ids = IdAssignment::sequential(g.n());
        let (sol, stats) = solver.resolve(&g, &ids, radii, opts);
        assert_eq!(sol, algorithm1_with(&g, &ids, radii, opts).solution);
        // The path split into two components; everything else reuses.
        assert_eq!(stats.components_total, 5);
        assert_eq!(stats.components_reused, 3);
        assert_eq!(stats.components_resolved, 2);
    }

    #[test]
    fn distinct_parameters_never_share_cache_entries() {
        let g = lmds_gen::basic::path(9);
        let ids = IdAssignment::sequential(g.n());
        let mut solver = DynamicSolver::new();
        let (a, _) = solver.resolve(&g, &ids, Radii::practical(2, 3), PipelineOptions::default());
        let (b, stats) =
            solver.resolve(&g, &ids, Radii::practical(1, 2), PipelineOptions::default());
        assert_eq!(stats.components_resolved, 1, "different radii must miss");
        assert_eq!(
            a,
            algorithm1_with(&g, &ids, Radii::practical(2, 3), PipelineOptions::default()).solution
        );
        assert_eq!(
            b,
            algorithm1_with(&g, &ids, Radii::practical(1, 2), PipelineOptions::default()).solution
        );
        let no_twins = PipelineOptions { twin_reduction: false, ..Default::default() };
        let (_, stats) = solver.resolve(&g, &ids, Radii::practical(1, 2), no_twins);
        assert_eq!(stats.components_resolved, 1, "different options must miss");

        // Radii far apart in value must not meet in the key either:
        // (3, 2) and (1, 2³⁰ + 2) once packed into the same word.
        let c4 = lmds_gen::basic::cycle(4);
        let ids = IdAssignment::sequential(c4.n());
        let opts = PipelineOptions::default();
        let far = Radii::practical(1, (1 << 30) + 2);
        solver.resolve(&c4, &ids, Radii::practical(3, 2), opts);
        let (sol, stats) = solver.resolve(&c4, &ids, far, opts);
        assert_eq!(stats.components_resolved, 1, "(1, 2³⁰ + 2) must miss (3, 2)'s entry");
        assert_eq!(sol, algorithm1_with(&c4, &ids, far, opts).solution);
    }

    #[test]
    fn capacity_bounds_and_zero_capacity_disable_reuse() {
        let mut g = lmds_gen::basic::path(5);
        g.disjoint_union(&lmds_gen::basic::path(5));
        g.disjoint_union(&lmds_gen::basic::path(5));
        let ids = IdAssignment::sequential(g.n());
        let radii = Radii::practical(2, 3);
        let opts = PipelineOptions::default();

        let mut tiny = DynamicSolver::with_capacity(2);
        tiny.resolve(&g, &ids, radii, opts);
        assert_eq!(tiny.cached_components(), 2, "FIFO eviction keeps the newest 2");

        let mut off = DynamicSolver::with_capacity(0);
        off.resolve(&g, &ids, radii, opts);
        let (_, stats) = off.resolve(&g, &ids, radii, opts);
        assert_eq!(off.cached_components(), 0);
        assert_eq!(stats.components_reused, 0);

        tiny.clear();
        assert_eq!(tiny.cached_components(), 0);
    }

    #[test]
    fn empty_graph_resolves_trivially() {
        let g = Graph::new(0);
        let ids = IdAssignment::sequential(0);
        let mut solver = DynamicSolver::new();
        let (sol, stats) =
            solver.resolve(&g, &ids, Radii::practical(2, 3), PipelineOptions::default());
        assert!(sol.is_empty());
        assert_eq!(stats, DynamicStats::default());
    }
}
