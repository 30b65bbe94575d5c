//! Maximum connected common subgraph (MCCS) and the `ω_MCCS` similarity
//! used by fine clustering (§2.3, Shang et al. \[35\]).
//!
//! `ω_MCCS(G₁, G₂) = |G_MCCS| / min(|G₁|, |G₂|)` where graph size is edge
//! count. Exact MCCS is NP-hard; we run a complete branch-and-bound search
//! under a node *budget* — with a generous budget the result is exact on
//! molecule-sized graphs, and when the budget trips we return the best
//! connected common subgraph found so far (a lower bound, which biases
//! `ω_MCCS` conservatively; see DESIGN.md §5).
//!
//! # The search tree is the contract
//!
//! A capped search returns the best subgraph among the nodes it visited,
//! so its answer depends on which nodes it visits and in what order.
//! [`mccs_edges`] visits exactly the nodes of the reference search
//! (`reference_mccs_edges` in the `midas-oracle` crate) in the same order
//! and charges one budget unit per node entered: after the bound, it
//! branches on the unmapped G1 vertices `u` in ascending id (after the
//! seed only those with a mapped neighbour), and for each on its G2
//! images `v` in ascending id, skipping after the seed every pair that
//! adds no matched edge. So both return the same `edges` and `exact` for
//! every pair and budget, capped or not; a proptest and oracle check 11
//! (`mccs_vs_reference`) pin this. A different search, such as McSplit's
//! label-class bound, would change capped scores, and with them the fine
//! clusters and the pattern sets.
//!
//! # What a node costs
//!
//! The reference rescans every G1 edge for the bound, `map1` for "is
//! anything mapped", each vertex's neighbours for the frontier test and
//! all of G2 per frontier vertex, and counts each gain with binary
//! searches. [`mccs_edges`] instead keeps state that mapping and
//! unmapping a pair update:
//!
//! * `decided`, the G1 edges with both endpoints mapped, so the bound is
//!   `matched + |E₁| − decided`;
//! * `depth`, the number of mapped vertices (depth 0 is the seed level);
//! * per G1 vertex, how many of its neighbours are mapped and a bitset
//!   row of those neighbours' G2 images;
//! * the frontier, a row of the unmapped G1 vertices whose count is
//!   `> 0`, iterated in ascending bit order;
//!
//! and, built once per search, G2 adjacency rows and one row per G1
//! vertex of the G2 vertices with its label. A frontier vertex `u`'s
//! images are then `(⋃ adj₂[img]) & label[u] & free₂` over the images in
//! its row, iterated in ascending bit order — the reference's ascending
//! `v`, minus the pairs it skips for zero gain — and the gain of `u ↦ v`
//! is `popcount(img_nbrs[u] & adj₂[v])`. A row is one `u64` when G2 has
//! at most 64 vertices (every generated molecule) and `⌈|V₂| / 64⌉`
//! words beyond; one search body serves both widths.

use crate::graph::{LabeledGraph, VertexId};

/// Result of an MCCS search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MccsResult {
    /// Number of edges in the best connected common subgraph found.
    pub edges: usize,
    /// Whether the search ran to completion (result is exact).
    pub exact: bool,
}

/// Words per bitset row. The search is monomorphised once per width, so
/// the one-word rows compile their word loops away.
trait Width: Copy {
    fn words(self) -> usize;
}

/// Rows of one word: G2 has at most 64 vertices.
#[derive(Clone, Copy)]
struct OneWord;

impl Width for OneWord {
    #[inline(always)]
    fn words(self) -> usize {
        1
    }
}

/// Rows of `.0` words.
#[derive(Clone, Copy)]
struct Words(usize);

impl Width for Words {
    #[inline(always)]
    fn words(self) -> usize {
        self.0
    }
}

/// Search state; every bitset field is a run of rows of `width` words,
/// row `i` at `[i * w, (i + 1) * w)`, bit `v` naming vertex `v` of G2, or
/// of G1 in `all1` and `frontier1` (`|V₁| ≤ |V₂|`, so G1 fits the width).
struct Search<'a, W: Width> {
    g1: &'a LabeledGraph,
    width: W,
    /// Row per G2 vertex: its neighbours.
    adj2: Vec<u64>,
    /// Row per G1 vertex: the G2 vertices with its label.
    label2: Vec<u64>,
    /// Row per G1 vertex: the G2 images of its mapped neighbours.
    img_nbrs: Vec<u64>,
    /// Per G1 vertex: how many of its neighbours are mapped.
    mapped_nbrs: Vec<u32>,
    /// Per G1 vertex: whether it is mapped.
    mapped1: Vec<bool>,
    /// One row: every G1 vertex, the branch set of the seed.
    all1: Vec<u64>,
    /// One row: the unmapped G1 vertices with a mapped neighbour.
    frontier1: Vec<u64>,
    /// One row: the G2 vertices not yet an image.
    free2: Vec<u64>,
    /// Row per depth: the images of the vertex that depth branches on.
    cand: Vec<u64>,
    depth: usize,
    /// G1 edges with both endpoints mapped (matched or lost).
    decided: usize,
    matched: usize,
    best: usize,
    budget: u64,
    exhausted: bool,
}

impl<W: Width> Search<'_, W> {
    /// The reference's node, with the same bound, branch order and budget
    /// accounting (see the module docs).
    fn run(&mut self) {
        if self.budget == 0 {
            self.exhausted = true;
            return;
        }
        self.budget -= 1;
        self.best = self.best.max(self.matched);
        if self.matched + self.g1.edge_count() - self.decided <= self.best {
            return;
        }
        let w = self.width.words();
        let at = self.depth * w;
        for uword in 0..w {
            let mut us = if self.depth == 0 {
                self.all1[uword]
            } else {
                self.frontier1[uword]
            };
            while us != 0 {
                let u = uword * 64 + us.trailing_zeros() as usize;
                us &= us - 1;
                self.candidates(u, at);
                for word in 0..w {
                    let mut vs = self.cand[at + word];
                    while vs != 0 {
                        let v = word * 64 + vs.trailing_zeros() as usize;
                        vs &= vs - 1;
                        let gain = self.gain(u, v);
                        self.map(u, v, gain);
                        self.run();
                        self.unmap(u, v, gain);
                        if self.exhausted {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Writes `u`'s images at this node into the candidate row at `at`:
    /// every free G2 vertex with `u`'s label for the seed, and after it
    /// only those adjacent to an image of a mapped neighbour of `u`.
    fn candidates(&mut self, u: usize, at: usize) {
        let w = self.width.words();
        let row = u * w;
        if self.depth == 0 {
            for i in 0..w {
                self.cand[at + i] = self.label2[row + i] & self.free2[i];
            }
            return;
        }
        for i in 0..w {
            let mut reach = 0;
            for word in 0..w {
                let mut imgs = self.img_nbrs[row + word];
                while imgs != 0 {
                    let img = word * 64 + imgs.trailing_zeros() as usize;
                    imgs &= imgs - 1;
                    reach |= self.adj2[img * w + i];
                }
            }
            self.cand[at + i] = reach & self.label2[row + i] & self.free2[i];
        }
    }

    /// Matched edges that mapping `u ↦ v` adds.
    fn gain(&self, u: usize, v: usize) -> usize {
        let w = self.width.words();
        (0..w)
            .map(|i| (self.img_nbrs[u * w + i] & self.adj2[v * w + i]).count_ones() as usize)
            .sum()
    }

    fn map(&mut self, u: usize, v: usize, gain: usize) {
        let w = self.width.words();
        let (word, bit) = (v / 64, 1u64 << (v % 64));
        self.mapped1[u] = true;
        self.frontier1[u / 64] &= !(1 << (u % 64));
        self.free2[word] &= !bit;
        self.decided += self.mapped_nbrs[u] as usize;
        self.matched += gain;
        self.depth += 1;
        for &x in self.g1.neighbors(u as VertexId) {
            let x = x as usize;
            self.mapped_nbrs[x] += 1;
            self.img_nbrs[x * w + word] |= bit;
            if !self.mapped1[x] {
                self.frontier1[x / 64] |= 1 << (x % 64);
            }
        }
    }

    fn unmap(&mut self, u: usize, v: usize, gain: usize) {
        let w = self.width.words();
        let (word, bit) = (v / 64, 1u64 << (v % 64));
        for &x in self.g1.neighbors(u as VertexId) {
            let x = x as usize;
            self.mapped_nbrs[x] -= 1;
            self.img_nbrs[x * w + word] &= !bit;
            if self.mapped_nbrs[x] == 0 {
                self.frontier1[x / 64] &= !(1 << (x % 64));
            }
        }
        self.depth -= 1;
        self.matched -= gain;
        self.decided -= self.mapped_nbrs[u] as usize;
        self.free2[word] |= bit;
        self.mapped1[u] = false;
        if self.mapped_nbrs[u] > 0 {
            self.frontier1[u / 64] |= 1 << (u % 64);
        }
    }
}

/// Runs the search of `g1` into `g2` on rows of `width` words.
fn search<W: Width>(g1: &LabeledGraph, g2: &LabeledGraph, budget: u64, width: W) -> MccsResult {
    let w = width.words();
    let (n1, n2) = (g1.vertex_count(), g2.vertex_count());
    let set = |rows: &mut [u64], row: usize, v: usize| rows[row * w + v / 64] |= 1 << (v % 64);
    let mut adj2 = vec![0; n2 * w];
    for &(x, y) in g2.edges() {
        set(&mut adj2, x as usize, y as usize);
        set(&mut adj2, y as usize, x as usize);
    }
    let mut label2 = vec![0; n1 * w];
    for u in 0..n1 {
        for v in 0..n2 {
            if g2.label(v as VertexId) == g1.label(u as VertexId) {
                set(&mut label2, u, v);
            }
        }
    }
    let (mut all1, mut free2) = (vec![0; w], vec![0; w]);
    for u in 0..n1 {
        set(&mut all1, 0, u);
    }
    for v in 0..n2 {
        set(&mut free2, 0, v);
    }
    let mut search = Search {
        g1,
        width,
        adj2,
        label2,
        img_nbrs: vec![0; n1 * w],
        mapped_nbrs: vec![0; n1],
        mapped1: vec![false; n1],
        all1,
        frontier1: vec![0; w],
        free2,
        cand: vec![0; (n1 + 1) * w],
        depth: 0,
        decided: 0,
        matched: 0,
        best: 0,
        budget,
        exhausted: false,
    };
    search.run();
    MccsResult {
        edges: search.best,
        exact: !search.exhausted,
    }
}

/// Computes (a lower bound of) the MCCS edge count between `a` and `b`.
///
/// `budget` caps branch-and-bound node expansions; `exact` in the result
/// tells whether the search completed. Equal to the oracle's
/// `reference_mccs_edges` for every input and budget.
pub fn mccs_edges(a: &LabeledGraph, b: &LabeledGraph, budget: u64) -> MccsResult {
    if a.edge_count() == 0 || b.edge_count() == 0 {
        return MccsResult {
            edges: 0,
            exact: true,
        };
    }
    // Search from the smaller-vertex-count side for a smaller branching tree.
    let (g1, g2) = if a.vertex_count() <= b.vertex_count() {
        (a, b)
    } else {
        (b, a)
    };
    match g2.vertex_count() {
        0..=64 => search(g1, g2, budget, OneWord),
        n2 => search(g1, g2, budget, Words(n2.div_ceil(64))),
    }
}

/// MCCS similarity `ω_MCCS(G₁, G₂) = |G_MCCS| / min(|G₁|, |G₂|)` (§2.3).
///
/// Returns 0 when either graph has no edges.
pub fn mccs_similarity(a: &LabeledGraph, b: &LabeledGraph, budget: u64) -> f64 {
    let denom = a.edge_count().min(b.edge_count());
    if denom == 0 {
        return 0.0;
    }
    mccs_edges(a, b, budget).edges as f64 / denom as f64
}

/// Default node budget: ample for molecule-sized graphs, bounded for
/// adversarial inputs.
pub const DEFAULT_MCCS_BUDGET: u64 = 20_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn triangle(l: u32) -> LabeledGraph {
        GraphBuilder::new()
            .vertices(&[l, l, l])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
    }

    #[test]
    fn identical_graphs_share_everything() {
        let g = path(&[0, 1, 0, 2]);
        let r = mccs_edges(&g, &g, DEFAULT_MCCS_BUDGET);
        assert!(r.exact);
        assert_eq!(r.edges, 3);
        assert!((mccs_similarity(&g, &g, DEFAULT_MCCS_BUDGET) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_relationship() {
        let small = path(&[0, 0, 0]);
        let big = triangle(0);
        let r = mccs_edges(&small, &big, DEFAULT_MCCS_BUDGET);
        assert_eq!(r.edges, 2);
        assert!((mccs_similarity(&small, &big, DEFAULT_MCCS_BUDGET) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_labels_share_nothing() {
        let a = path(&[0, 0, 0]);
        let b = path(&[1, 1, 1]);
        assert_eq!(mccs_edges(&a, &b, DEFAULT_MCCS_BUDGET).edges, 0);
        assert_eq!(mccs_similarity(&a, &b, DEFAULT_MCCS_BUDGET), 0.0);
    }

    #[test]
    fn common_subgraph_must_be_connected() {
        // a: two C-O edges joined via N; b: two C-O edges joined via S.
        // The shared structure C-O ... O-C is disconnected without the
        // middle vertex, so MCCS is a single connected piece of 2 edges
        // (O-C plus C's other O? no: labels force C-O edges only).
        let a = path(&[0, 1, 2, 1, 0]); // C O N O C
        let b = path(&[0, 1, 3, 1, 0]); // C O S O C
        let r = mccs_edges(&a, &b, DEFAULT_MCCS_BUDGET);
        assert!(r.exact);
        // Connected common pieces: "C-O" (1 edge). Two of them exist but a
        // connected subgraph can only use one side.
        assert_eq!(r.edges, 1);
    }

    #[test]
    fn partial_overlap() {
        // Shared triangle with different tails.
        let a = GraphBuilder::new()
            .vertices(&[0, 0, 0, 1])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build();
        let b = GraphBuilder::new()
            .vertices(&[0, 0, 0, 2])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build();
        let r = mccs_edges(&a, &b, DEFAULT_MCCS_BUDGET);
        assert!(r.exact);
        assert_eq!(r.edges, 3); // the triangle
        assert!((mccs_similarity(&a, &b, DEFAULT_MCCS_BUDGET) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_graphs() {
        let e = LabeledGraph::new();
        let g = triangle(0);
        let r = mccs_edges(&e, &g, DEFAULT_MCCS_BUDGET);
        assert_eq!(r.edges, 0);
        assert!(r.exact);
    }

    #[test]
    fn budget_zero_reports_inexact() {
        let g = triangle(0);
        let r = mccs_edges(&g, &g, 0);
        assert!(!r.exact);
        assert_eq!(r.edges, 0);
    }

    #[test]
    fn regression_late_frontier_vertex() {
        // Found by proptest: the optimal mapping requires placing a vertex
        // that is unmatchable when first reached (its only matched edge
        // appears after a later neighbor is mapped). A lowest-id branching
        // with permanent exclusion returns 2 instead of 3 here.
        let a = GraphBuilder::new()
            .vertices(&[0, 0, 1, 1, 0])
            .edge(0, 1)
            .edge(0, 3)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 4)
            .build();
        let b = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0, 1])
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(2, 4)
            .edge(3, 4)
            .build();
        let ab = mccs_edges(&a, &b, DEFAULT_MCCS_BUDGET);
        let ba = mccs_edges(&b, &a, DEFAULT_MCCS_BUDGET);
        assert!(ab.exact && ba.exact);
        assert_eq!(ab.edges, 3, "C-C-N-C path is common");
        assert_eq!(ba.edges, 3);
    }

    #[test]
    fn symmetric() {
        let a = path(&[0, 1, 0, 1]);
        let b = triangle(0);
        assert_eq!(
            mccs_edges(&a, &b, DEFAULT_MCCS_BUDGET).edges,
            mccs_edges(&b, &a, DEFAULT_MCCS_BUDGET).edges
        );
    }
}
