//! The compressed-sparse-row (CSR) adjacency store backing [`Graph`].
//!
//! # Layout
//!
//! Two flat arrays describe the whole graph:
//!
//! * `offsets` — `n + 1` cumulative counts; the neighbors of vertex `v`
//!   occupy `neighbors[offsets[v] .. offsets[v + 1]]`.
//! * `neighbors` — all adjacency rows back to back, each row sorted
//!   ascending with no duplicates; every undirected edge `{u, v}`
//!   appears twice (as an arc in `u`'s row and in `v`'s row). Rows
//!   store vertex indices as `u32`: the neighbor array is the 2m-sized
//!   hot array, and halving it doubles the edges that fit per cache
//!   line (and per gigabyte) on the million-node scale path. The
//!   public [`Vertex`] index type stays `usize`; the `u32` capacity
//!   cap (`n ≤ u32::MAX`, [`crate::MAX_VERTICES`]) is enforced by the
//!   [`Graph`] constructors before anything is allocated.
//!
//! Degree is `offsets[v + 1] - offsets[v]` (O(1)); neighbor iteration
//! is a contiguous slice walk (one cache line per ~16 neighbors instead
//! of a pointer chase per vertex); membership is a binary search on the
//! row.
//!
//! # Construction vs. mutation
//!
//! [`Csr::from_arcs`] bulk-builds in O(n + m) via counting sort and is
//! the path every [`crate::GraphBuilder::build`] /
//! [`Graph::from_edges`](crate::Graph::from_edges) call takes. The
//! mutating operations ([`Csr::insert_arc`], [`Csr::remove_arc`]) splice
//! the flat arrays and cost O(n + m) *per call* — fine for the small
//! incremental edits the workspace performs (tests, generator repair
//! steps), wrong for building a large graph edge by edge. Build in bulk.
//!
//! [`Graph`]: crate::Graph

use crate::graph::Vertex;

/// Flat sorted-adjacency storage: see the [module docs](self) for the
/// layout and the construction-vs-mutation contract.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    /// `n + 1` cumulative row offsets into `neighbors`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency rows (each edge appears as two
    /// arcs), compacted to `u32` per the scale plan.
    neighbors: Vec<u32>,
}

impl Csr {
    /// An edgeless store over `n` vertices.
    pub fn new(n: usize) -> Self {
        Csr { offsets: vec![0; n + 1], neighbors: Vec::new() }
    }

    /// Bulk-builds from an arc list in O(n + m): counting sort into
    /// rows, per-row sort, then in-place dedup/compaction. `arcs` holds
    /// each undirected edge once (as either orientation); endpoints must
    /// be `< n` and non-equal, and `n` must be within the `u32` row
    /// capacity (both validated by the caller). Returns the store and
    /// the number of distinct edges.
    pub fn from_arcs(n: usize, arcs: &[(Vertex, Vertex)]) -> (Self, usize) {
        let mut csr = Csr { offsets: Vec::new(), neighbors: Vec::new() };
        let m = csr.refill(n, arcs);
        (csr, m)
    }

    /// [`Csr::from_arcs`] in place: rebuilds this store from `arcs`,
    /// reusing the capacity of its two arrays, and returns the number of
    /// distinct edges. Callers that build many small graphs one after
    /// another (the exact engine's instances) allocate nothing once the
    /// arrays have grown.
    pub(crate) fn refill(&mut self, n: usize, arcs: &[(Vertex, Vertex)]) -> usize {
        debug_assert!(n <= crate::MAX_VERTICES, "caller enforces the u32 vertex cap");
        let Csr { offsets, neighbors } = self;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(u, v) in arcs {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `offsets[v]` is the write cursor of row v; once every arc is
        // placed it holds the row's end.
        neighbors.clear();
        neighbors.resize(2 * arcs.len(), 0);
        for &(u, v) in arcs {
            neighbors[offsets[u]] = v as u32;
            offsets[u] += 1;
            neighbors[offsets[v]] = u as u32;
            offsets[v] += 1;
        }
        // Sort each row, then compact duplicates in place. The write
        // cursor never overtakes the read cursor, so one pass suffices;
        // `offsets[v]` becomes the start of the compacted row.
        let mut write = 0usize;
        let mut row_start = 0usize;
        for row in &mut offsets[..n] {
            let row_end = *row;
            neighbors[row_start..row_end].sort_unstable();
            let new_start = write;
            let mut prev: Option<u32> = None;
            for read in row_start..row_end {
                let x = neighbors[read];
                if prev != Some(x) {
                    neighbors[write] = x;
                    write += 1;
                    prev = Some(x);
                }
            }
            row_start = row_end;
            *row = new_start;
        }
        offsets[n] = write;
        neighbors.truncate(write);
        debug_assert!(write.is_multiple_of(2), "every edge contributes two arcs");
        write / 2
    }

    /// Builds from a sorted, deduplicated edge list without sorting:
    /// each edge `(u, v)` has `u < v < n`, and the list is strictly
    /// increasing (the caller validates both). Filling the rows in list
    /// order leaves every row sorted, since row `x` receives all its
    /// smaller neighbors (the edges `(u, x)`, by increasing `u`) before
    /// its larger ones (the edges `(x, v)`, by increasing `v`).
    pub(crate) fn from_sorted_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut offsets = vec![0; n + 1];
        for &(u, v) in edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `offsets[x]` is the write cursor of row x, then the start of
        // row x + 1 once the row is full: shift the starts back in place.
        let mut neighbors = vec![0; 2 * edges.len()];
        for &(u, v) in edges {
            neighbors[offsets[u]] = v as u32;
            offsets[u] += 1;
            neighbors[offsets[v]] = u as u32;
            offsets[v] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        let csr = Csr { offsets, neighbors };
        debug_assert!((0..n).all(|x| csr.row(x).windows(2).all(|w| w[0] < w[1])));
        csr
    }

    /// Wraps pre-validated flat arrays (the zero-copy snapshot ingest
    /// path). The caller guarantees the full CSR contract: `offsets` is
    /// monotone with `offsets[0] == 0` and `offsets.last() ==
    /// neighbors.len()`, every row is strictly ascending, in range, and
    /// self-loop-free, and the arc set is symmetric.
    pub(crate) fn from_parts_unchecked(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().expect("nonempty"), neighbors.len());
        Csr { offsets, neighbors }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (`2m`).
    #[inline]
    pub fn arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of `v` in O(1).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbor row of `v` as a contiguous `u32` slice.
    #[inline]
    pub fn row(&self, v: Vertex) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The bounds `(start, end)` of `v`'s row among the `2m` arc slots:
    /// slot `start + i` holds `row(v)[i]`. A traversal that keeps a
    /// cursor into the row reads the neighbor array at the cursor
    /// instead of re-slicing the row at every step, and a caller can
    /// key per-arc data by slot.
    #[inline]
    pub fn row_bounds(&self, v: Vertex) -> (usize, usize) {
        (self.offsets[v], self.offsets[v + 1])
    }

    /// Every row back to back, as [`Csr::row_bounds`] indexes them.
    #[inline]
    pub(crate) fn neighbor_array(&self) -> &[u32] {
        &self.neighbors
    }

    /// Whether the arc `u → v` is present (row binary search).
    #[inline]
    pub fn has_arc(&self, u: Vertex, v: Vertex) -> bool {
        let Ok(v32) = u32::try_from(v) else { return false };
        self.row(u).binary_search(&v32).is_ok()
    }

    /// Appends an isolated vertex, returning its index. The caller
    /// ([`Graph::add_vertex`](crate::Graph::add_vertex)) enforces the
    /// `u32` vertex cap.
    pub fn push_vertex(&mut self) -> Vertex {
        let last = *self.offsets.last().expect("offsets nonempty");
        self.offsets.push(last);
        self.offsets.len() - 2
    }

    /// Splices the arc `u → v` into `u`'s row. Returns `false` if
    /// already present. O(n + m); see the module docs.
    pub fn insert_arc(&mut self, u: Vertex, v: Vertex) -> bool {
        let v32 = u32::try_from(v).expect("caller validates v < n <= u32 capacity");
        match self.row(u).binary_search(&v32) {
            Ok(_) => false,
            Err(pos) => {
                self.neighbors.insert(self.offsets[u] + pos, v32);
                for o in &mut self.offsets[u + 1..] {
                    *o += 1;
                }
                true
            }
        }
    }

    /// Splices the arc `u → v` out of `u`'s row. Returns `false` if
    /// absent. O(n + m).
    pub fn remove_arc(&mut self, u: Vertex, v: Vertex) -> bool {
        let Ok(v32) = u32::try_from(v) else { return false };
        match self.row(u).binary_search(&v32) {
            Err(_) => false,
            Ok(pos) => {
                self.neighbors.remove(self.offsets[u] + pos);
                for o in &mut self.offsets[u + 1..] {
                    *o -= 1;
                }
                true
            }
        }
    }

    /// Appends `other`'s rows with every vertex shifted by `offset`
    /// (the disjoint-union primitive). `offset` must equal `self.n()`,
    /// and the combined vertex count must stay within the `u32` row
    /// capacity (enforced by
    /// [`Graph::disjoint_union`](crate::Graph::disjoint_union)).
    pub fn append_shifted(&mut self, other: &Csr, offset: usize) {
        debug_assert_eq!(offset, self.n());
        debug_assert!(self.n() + other.n() <= crate::MAX_VERTICES);
        let base = self.neighbors.len();
        let shift = offset as u32;
        self.neighbors.extend(other.neighbors.iter().map(|&u| u + shift));
        self.offsets.extend(other.offsets[1..].iter().map(|&o| o + base));
    }
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Csr(n={}, arcs={})", self.n(), self.arcs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_build_sorts_and_dedups() {
        let (csr, m) = Csr::from_arcs(4, &[(2, 0), (0, 2), (2, 1), (3, 2)]);
        assert_eq!(m, 3);
        assert_eq!(csr.row(2), &[0, 1, 3]);
        assert_eq!(csr.row(0), &[2]);
        assert_eq!(csr.row(1), &[2]);
        assert_eq!(csr.row(3), &[2]);
        assert_eq!(csr.arcs(), 6);
        assert_eq!(csr.degree(2), 3);
    }

    #[test]
    fn empty_rows_between_occupied_ones() {
        let (csr, m) = Csr::from_arcs(5, &[(0, 4)]);
        assert_eq!(m, 1);
        for v in 1..4 {
            assert!(csr.row(v).is_empty());
            assert_eq!(csr.degree(v), 0);
        }
        assert_eq!(csr.row(0), &[4]);
        assert_eq!(csr.row(4), &[0]);
    }

    #[test]
    fn splice_insert_and_remove() {
        let (mut csr, _) = Csr::from_arcs(3, &[(0, 1)]);
        assert!(csr.insert_arc(1, 2));
        assert!(csr.insert_arc(2, 1));
        assert!(!csr.insert_arc(1, 2));
        assert_eq!(csr.row(1), &[0, 2]);
        assert!(csr.remove_arc(1, 0));
        assert!(!csr.remove_arc(1, 0));
        assert_eq!(csr.row(1), &[2]);
    }

    #[test]
    fn push_vertex_and_append() {
        let (mut a, _) = Csr::from_arcs(2, &[(0, 1)]);
        assert_eq!(a.push_vertex(), 2);
        assert_eq!(a.n(), 3);
        assert!(a.row(2).is_empty());
        let (b, _) = Csr::from_arcs(2, &[(0, 1)]);
        a.append_shifted(&b, 3);
        assert_eq!(a.n(), 5);
        assert_eq!(a.row(3), &[4]);
        assert_eq!(a.row(4), &[3]);
    }

    #[test]
    fn refill_matches_a_fresh_build_whatever_came_before() {
        let (mut csr, _) = Csr::from_arcs(6, &[(0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]);
        for (n, arcs) in [(3, vec![(2, 0), (0, 2), (1, 0)]), (0, vec![]), (7, vec![(6, 0), (3, 4)])]
        {
            let m = csr.refill(n, &arcs);
            assert_eq!((csr.clone(), m), Csr::from_arcs(n, &arcs));
        }
    }

    #[test]
    fn sorted_edges_build_the_same_rows_as_a_bulk_build() {
        for (n, edges) in [
            (5, vec![(0, 1), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)]),
            (4, vec![]),
            (6, vec![(2, 5)]),
            (0, vec![]),
        ] {
            let (bulk, m) = Csr::from_arcs(n, &edges);
            assert_eq!(Csr::from_sorted_edges(n, &edges), bulk);
            assert_eq!(m, edges.len());
        }
    }

    #[test]
    fn from_parts_matches_bulk_build() {
        let (bulk, _) = Csr::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]);
        let parts = Csr::from_parts_unchecked(vec![0, 1, 3, 5, 6], vec![1, 0, 2, 1, 3, 2]);
        assert_eq!(bulk, parts);
    }
}
