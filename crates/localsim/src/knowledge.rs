//! Block knowledge: what the [`crate::Decider`] adapter floods.
//!
//! A run numbers its network once, in identifier order: vertex `r` is
//! the one with the `r`-th smallest identifier (its *rank*), and the
//! edges are numbered by their endpoint ranks, lower end first, in
//! lexicographic order, which is the `(min id, max id)` order of
//! [`LocalView::edge_ids`]. Each CSR slot also records its edge's
//! number. A vertex's [`Knowledge`] is two sorted lists of `(block,
//! word)` pairs: bit `i` of block `b` stands for vertex (or edge)
//! `64·b + i`, and a list holds only the blocks with a bit set. Folding
//! a round in ORs words, 64 vertices or edges per step, and the view a
//! decider reads is the bits in order, with no sort.

use crate::algorithm::Network;
use crate::ids::IdAssignment;
use crate::view::LocalView;
use lmds_graph::scratch::with_thread_scratch;
use lmds_graph::{bfs, Graph, Vertex};
use std::fmt;
use std::sync::Arc;

/// One 64-bit block: its index and its word.
type Block = (u32, u64);

/// A run's numbering of the network's vertices and edges, in
/// identifier order (see the module docs).
pub(crate) struct Numbering {
    /// The identifier of each rank, ascending.
    ids: Vec<u64>,
    /// The rank of each host vertex.
    rank: Vec<u32>,
    /// The endpoint ranks of each edge, lower first; ascending.
    ends: Vec<(u32, u32)>,
    /// The first edge whose lower end has each rank (and the edge
    /// count last): that end's edges are a run of `ends`.
    first: Vec<u32>,
    /// The edge number of each CSR slot.
    slot_edge: Vec<u32>,
}

impl Numbering {
    /// Numbers `g`'s vertices by identifier and its edges by their
    /// endpoint ranks.
    pub(crate) fn new(g: &Graph, ids: &IdAssignment) -> Numbering {
        // n ≤ u32::MAX (the CSR's vertex cap), so ranks fit a u32; with
        // m checked here, so do edge numbers.
        assert!(u32::try_from(g.m()).is_ok(), "a graph has fewer than 2^32 edges");
        let mut by_rank: Vec<u32> = (0..g.n() as u32).collect();
        by_rank.sort_unstable_by_key(|&v| ids.id_of(v as usize));
        let mut rank = vec![0u32; g.n()];
        for (r, &v) in (0u32..).zip(&by_rank) {
            rank[v as usize] = r;
        }
        let csr = g.csr();
        let mut ends = Vec::with_capacity(g.m());
        let mut first = Vec::with_capacity(g.n() + 1);
        let mut slot_edge = vec![0u32; csr.arcs()];
        // The edges to higher ranks of the vertex at rank `r`, numbered
        // in the order of those ranks; both slots get the number.
        let mut upper: Vec<(u32, usize, u32)> = Vec::new();
        for (r, &v) in (0u32..).zip(&by_rank) {
            first.push(ends.len() as u32);
            let start = csr.row_bounds(v as usize).0;
            upper.clear();
            for (slot, &w) in (start..).zip(g.neighbors(v as usize)) {
                if rank[w as usize] > r {
                    upper.push((rank[w as usize], slot, w));
                }
            }
            upper.sort_unstable();
            for &(hi, slot, w) in &upper {
                let e = ends.len() as u32;
                ends.push((r, hi));
                slot_edge[slot] = e;
                let row = g.neighbors(w as usize);
                let back = row.binary_search(&v).expect("adjacency rows are symmetric");
                slot_edge[csr.row_bounds(w as usize).0 + back] = e;
            }
        }
        first.push(ends.len() as u32);
        let ids = by_rank.iter().map(|&v| ids.id_of(v as usize)).collect();
        Numbering { ids, rank, ends, first, slot_edge }
    }

    /// The number of the edge between ranks `a` and `b`.
    fn edge_between(&self, a: u32, b: u32) -> u32 {
        let (lo, hi) = (a.min(b) as usize, a.max(b));
        let start = self.first[lo];
        let run = &self.ends[start as usize..self.first[lo + 1] as usize];
        let pos = run.binary_search_by_key(&hi, |&(_, h)| h).expect("the edge exists");
        start + pos as u32
    }
}

/// What a vertex knows after some rounds of full-information flooding:
/// the state and message of the [`crate::Decider`] adapter.
///
/// It holds the same sets as a [`LocalView`] — the vertices of
/// `N^k[v]` and the edges incident to `N^{k−1}[v]` on a healthy network
/// — as bits over the run's numbering, which it shares with every other
/// vertex's knowledge. Algorithms read it only through
/// [`Knowledge::view`], which is also what it prints as.
#[derive(Clone)]
pub struct Knowledge {
    /// The center's rank.
    center: u32,
    rounds: u32,
    verts: Vec<Block>,
    edges: Vec<Block>,
    numbering: Arc<Numbering>,
}

impl Knowledge {
    /// The round-0 knowledge of host vertex `v`: itself.
    pub(crate) fn initial(numbering: &Arc<Numbering>, v: Vertex) -> Knowledge {
        let center = numbering.rank[v];
        Knowledge {
            center,
            rounds: 0,
            verts: vec![block_of(center)],
            edges: Vec::new(),
            numbering: Arc::clone(numbering),
        }
    }

    /// The knowledge of `v` after `k` rounds, from one BFS: the ball
    /// `N^k[v]` and every edge with an end at distance `< k`. An edge
    /// between two such ends is taken once, from its smaller end.
    pub(crate) fn project(network: &Network, v: Vertex, k: u32) -> Knowledge {
        let numbering = network.numbering();
        if k == 0 {
            return Knowledge::initial(numbering, v);
        }
        let g = network.graph();
        let (verts, edges) = with_thread_scratch(|s| {
            let mut ball = Vec::new();
            bfs::ball_of_set_into(g, s, &[v], k, &mut ball);
            let inner = |u: Vertex| s.distance(u).is_some_and(|d| d < k);
            let mut edges = Vec::new();
            for &u in ball.iter().filter(|&&u| inner(u)) {
                let start = g.csr().row_bounds(u).0;
                for (slot, &w) in (start..).zip(g.neighbors(u)) {
                    if u < w as Vertex || !inner(w as Vertex) {
                        edges.push(numbering.slot_edge[slot]);
                    }
                }
            }
            let verts: Vec<u32> = ball.iter().map(|&u| numbering.rank[u]).collect();
            (verts, edges)
        });
        Knowledge {
            center: numbering.rank[v],
            rounds: k,
            verts: pack(verts),
            edges: pack(edges),
            numbering: Arc::clone(numbering),
        }
    }

    /// Folds one round's messages in: the union of the senders'
    /// knowledge plus the edge each message arrived over.
    pub(crate) fn fold_round(&mut self, incoming: &[&Knowledge]) {
        for msg in incoming {
            or_blocks(&mut self.verts, &msg.verts);
            or_blocks(&mut self.edges, &msg.edges);
        }
        // A sender's own vertex bit came with its message; past round 1
        // its knowledge holds this edge too, so these find their block.
        for msg in incoming {
            set_bit(&mut self.edges, self.numbering.edge_between(self.center, msg.center));
        }
        self.rounds += 1;
    }

    /// The view these bits spell out: vertices and edges in numbering
    /// order, which is identifier order, so nothing is sorted.
    pub fn view(&self) -> LocalView {
        let numbering = &*self.numbering;
        let mut verts = Vec::with_capacity(count(&self.verts));
        for_each_position(&self.verts, |r| verts.push(numbering.ids[r]));
        let mut edges = Vec::with_capacity(count(&self.edges));
        for_each_position(&self.edges, |e| {
            let (a, b) = numbering.ends[e];
            edges.push((numbering.ids[a as usize], numbering.ids[b as usize]));
        });
        LocalView::from_sorted(numbering.ids[self.center as usize], self.rounds, verts, edges)
    }

    /// Message size in bits with `id_bits` bits per identifier: the
    /// size of [`Knowledge::view`] ([`LocalView::size_bits`]).
    pub(crate) fn size_bits(&self, id_bits: u32) -> u64 {
        (count(&self.verts) + 2 * count(&self.edges)) as u64 * id_bits as u64
    }
}

impl fmt::Debug for Knowledge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Knowledge").field(&self.view()).finish()
    }
}

/// The block holding position `p`, with only `p`'s bit set.
fn block_of(p: u32) -> Block {
    (p >> 6, 1 << (p & 63))
}

/// The number of set bits.
fn count(blocks: &[Block]) -> usize {
    blocks.iter().map(|&(_, w)| w.count_ones() as usize).sum()
}

/// Calls `f` on every set position, ascending.
fn for_each_position(blocks: &[Block], mut f: impl FnMut(usize)) {
    for &(b, mut w) in blocks {
        let base = (b as usize) << 6;
        while w != 0 {
            f(base | w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// The blocks of a set of distinct positions.
fn pack(mut positions: Vec<u32>) -> Vec<Block> {
    positions.sort_unstable();
    let mut blocks: Vec<Block> = Vec::new();
    for p in positions {
        let (b, bit) = block_of(p);
        match blocks.last_mut() {
            Some(last) if last.0 == b => last.1 |= bit,
            _ => blocks.push((b, bit)),
        }
    }
    blocks
}

/// Sets position `p`.
fn set_bit(blocks: &mut Vec<Block>, p: u32) {
    let (b, bit) = block_of(p);
    match blocks.binary_search_by_key(&b, |&(i, _)| i) {
        Ok(i) => blocks[i].1 |= bit,
        Err(i) => blocks.insert(i, (b, bit)),
    }
}

/// ORs `other` into `into`, both sorted by block index.
fn or_blocks(into: &mut Vec<Block>, other: &[Block]) {
    // One pass ORs the words of shared blocks and counts the new ones;
    // once a view stops growing, that is all a message costs.
    let (mut i, mut fresh) = (0, 0);
    for &(b, w) in other {
        while i < into.len() && into[i].0 < b {
            i += 1;
        }
        if i < into.len() && into[i].0 == b {
            into[i].1 |= w;
            i += 1;
        } else {
            fresh += 1;
        }
    }
    if fresh == 0 {
        return;
    }
    // The new blocks go in by a merge from the back, in place.
    let mut i = into.len();
    into.resize(i + fresh, (0, 0));
    let mut k = into.len();
    for &(b, w) in other.iter().rev() {
        while i > 0 && into[i - 1].0 > b {
            i -= 1;
            k -= 1;
            into[k] = into[i];
        }
        k -= 1;
        if i > 0 && into[i - 1].0 == b {
            i -= 1;
            into[k] = into[i];
        } else {
            into[k] = (b, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The blocks of a position set, built the obvious way.
    fn blocks_of(set: &std::collections::BTreeSet<u32>) -> Vec<Block> {
        let mut out: Vec<Block> = Vec::new();
        for &p in set {
            let (b, bit) = block_of(p);
            match out.last_mut() {
                Some(last) if last.0 == b => last.1 |= bit,
                _ => out.push((b, bit)),
            }
        }
        out
    }

    #[test]
    fn block_operations_match_a_set_union() {
        let mut state = 0xB10Cu64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..500 {
            let range = 1 + next(2000) as u32;
            let mut a: std::collections::BTreeSet<u32> =
                (0..next(60)).map(|_| next(range as u64) as u32).collect();
            let b: std::collections::BTreeSet<u32> =
                (0..next(60)).map(|_| next(range as u64) as u32).collect();
            let mut blocks = pack(a.iter().rev().copied().collect());
            assert_eq!(blocks, blocks_of(&a));
            assert_eq!(count(&blocks), a.len());
            or_blocks(&mut blocks, &blocks_of(&b));
            a.extend(&b);
            assert_eq!(blocks, blocks_of(&a));
            let p = next(range as u64) as u32;
            set_bit(&mut blocks, p);
            a.insert(p);
            assert_eq!(blocks, blocks_of(&a));
            let mut listed = Vec::new();
            for_each_position(&blocks, |p| listed.push(p));
            assert_eq!(listed, a.iter().map(|&p| p as usize).collect::<Vec<_>>());
        }
    }

    #[test]
    fn numbering_follows_identifier_order() {
        // A 5-cycle with a chord and sparse ids: ranks follow the ids,
        // edges their (min id, max id) pairs, and each slot holds the
        // number of its own edge.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let ids = IdAssignment::from_ids(vec![900, 5, 1 << 40, 77, 12]);
        let numbering = Numbering::new(&g, &ids);
        assert_eq!(numbering.ids, vec![5, 12, 77, 900, 1 << 40]);
        assert_eq!(numbering.rank, vec![3, 0, 4, 2, 1]);
        let by_ids: Vec<(u64, u64)> = numbering
            .ends
            .iter()
            .map(|&(a, b)| (numbering.ids[a as usize], numbering.ids[b as usize]))
            .collect();
        let mut expected: Vec<(u64, u64)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (ids.id_of(u), ids.id_of(v));
                (a.min(b), a.max(b))
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(by_ids, expected);
        for u in g.vertices() {
            let start = g.csr().row_bounds(u).0;
            for (slot, &w) in (start..).zip(g.neighbors(u)) {
                let e = numbering.slot_edge[slot];
                let (ru, rw) = (numbering.rank[u], numbering.rank[w as usize]);
                assert_eq!(numbering.ends[e as usize], (ru.min(rw), ru.max(rw)));
                assert_eq!(numbering.edge_between(ru, rw), e);
            }
        }
    }
}
