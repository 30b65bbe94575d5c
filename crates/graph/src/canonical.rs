//! Canonical codes for small labeled graphs.
//!
//! Candidate patterns produced by random walks on different CSGs may be
//! isomorphic; the selection and swapping phases must treat them as one.
//! This module computes a canonical byte code via colour refinement plus
//! individualization (a miniature nauty): two graphs get the same code iff
//! they are isomorphic (respecting vertex labels).
//!
//! Intended for pattern-sized graphs (≤ `η_max` = 12 edges); the search is
//! exhaustive over refinement-compatible orderings, which is tiny for sparse
//! labeled graphs.
//!
//! One call allocates its buffers once and reuses them at every node of
//! the search: the refinement signatures are one flat buffer of neighbour
//! colours with fixed per-vertex offsets, ranked by sorting vertex
//! indices; the colouring of each search depth is a slice of one stack;
//! cells are found by a count pass over the (dense) colours; and each
//! leaf is encoded into one reused buffer that is copied out only when it
//! is a new minimum. The embedding memo, the pattern store and every
//! `seen` set key on these bytes, so the search, its leaf order and the
//! encoding are fixed: any change to them changes every key.

use crate::graph::{LabeledGraph, VertexId};
use std::sync::Arc;

/// A canonical code: equal codes ⇔ isomorphic graphs.
///
/// The byte buffer is behind an `Arc` so codes can be cloned cheaply into
/// cache keys and cross-thread work items.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode(pub Arc<[u8]>);

/// Computes the canonical code of `g`.
pub fn canonical_code(g: &LabeledGraph) -> CanonicalCode {
    let n = g.vertex_count();
    if n == 0 {
        return CanonicalCode(Arc::from(Vec::new()));
    }
    let mut search = Search::new(g);
    // Initial colouring by vertex label (compressed to dense ids).
    let mut sorted: Vec<u32> = g.labels().to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for (slot, l) in search.levels.iter_mut().zip(g.labels()) {
        *slot = sorted.binary_search(l).expect("present") as u32;
    }
    search.refiner.refine(g, &mut search.levels[..n]);
    search.individualize(0);
    CanonicalCode(Arc::from(search.best))
}

/// Tests isomorphism through canonical codes.
pub fn are_isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && a.sorted_labels() == b.sorted_labels()
        && canonical_code(a) == canonical_code(b)
}

/// Weisfeiler–Leman colour refinement over reused buffers.
struct Refiner {
    /// Vertex `v`'s sorted neighbour colours are `sig[off[v]..off[v + 1]]`.
    off: Vec<usize>,
    sig: Vec<u32>,
    /// Vertex indices, sorted by signature.
    idx: Vec<u32>,
    /// The colouring the current round produces.
    ranks: Vec<u32>,
}

impl Refiner {
    fn new(g: &LabeledGraph) -> Self {
        let n = g.vertex_count();
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        for v in 0..n as VertexId {
            off.push(off[v as usize] + g.degree(v));
        }
        Refiner {
            sig: vec![0; off[n]],
            off,
            idx: Vec::with_capacity(n),
            ranks: vec![0; n],
        }
    }

    /// Refines `colors` in place until stable. Each round gives every
    /// vertex the rank of its signature `(own colour, sorted neighbour
    /// colours)` among the distinct signatures, so a stable colouring is
    /// dense: its colours are `0..k`.
    fn refine(&mut self, g: &LabeledGraph, colors: &mut [u32]) {
        let n = colors.len();
        let off = &self.off;
        loop {
            for v in 0..n {
                let slots = &mut self.sig[off[v]..off[v + 1]];
                for (slot, &w) in slots.iter_mut().zip(g.neighbors(v as VertexId)) {
                    *slot = colors[w as usize];
                }
                slots.sort_unstable();
            }
            let sig = &self.sig;
            let key = |v: u32| {
                (
                    colors[v as usize],
                    &sig[off[v as usize]..off[v as usize + 1]],
                )
            };
            self.idx.clear();
            self.idx.extend(0..n as u32);
            self.idx.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
            let mut rank = 0;
            for (i, &v) in self.idx.iter().enumerate() {
                if i > 0 && key(self.idx[i - 1]) != key(v) {
                    rank += 1;
                }
                self.ranks[v as usize] = rank;
            }
            if self.ranks == colors {
                return;
            }
            colors.copy_from_slice(&self.ranks);
        }
    }
}

/// The individualization–refinement search of one call.
struct Search<'g> {
    g: &'g LabeledGraph,
    refiner: Refiner,
    /// The colouring at search depth `d` is `levels[d * n..(d + 1) * n]`.
    levels: Vec<u32>,
    /// Cell sizes by colour.
    counts: Vec<u32>,
    /// A leaf's vertex order.
    order: Vec<VertexId>,
    /// A leaf's code.
    code: Vec<u8>,
    /// The least code so far; empty until the first leaf.
    best: Vec<u8>,
}

impl<'g> Search<'g> {
    fn new(g: &'g LabeledGraph) -> Self {
        let n = g.vertex_count();
        Search {
            g,
            refiner: Refiner::new(g),
            levels: vec![0; n],
            counts: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            code: Vec::new(),
            best: Vec::new(),
        }
    }

    /// At a non-discrete colouring, splits the first non-singleton cell
    /// (smallest colour) on each of its members in ascending id: the member
    /// takes colour `max + 1`, the colouring is refined, and the search
    /// recurses. At a discrete colouring, encodes the graph in colour order
    /// and keeps the minimum code.
    fn individualize(&mut self, depth: usize) {
        let n = self.g.vertex_count();
        let base = depth * n;
        let colors = &self.levels[base..base + n];
        let k = *colors.iter().max().expect("non-empty") as usize + 1;
        self.counts.clear();
        self.counts.resize(k, 0);
        for &c in colors {
            self.counts[c as usize] += 1;
        }
        let Some(target) = self.counts.iter().position(|&c| c > 1) else {
            self.order.clear();
            self.order.extend(0..n as VertexId);
            self.order.sort_unstable_by_key(|&v| colors[v as usize]);
            encode(self.g, &self.order, &mut self.code);
            if self.best.is_empty() || self.code < self.best {
                self.best.clone_from(&self.code);
            }
            return;
        };
        if self.levels.len() < base + 2 * n {
            self.levels.resize(base + 2 * n, 0);
        }
        for v in 0..n {
            if self.levels[base + v] != target as u32 {
                continue;
            }
            let (parent, child) = self.levels.split_at_mut(base + n);
            let child = &mut child[..n];
            child.copy_from_slice(&parent[base..]);
            child[v] = k as u32;
            self.refiner.refine(self.g, child);
            self.individualize(depth + 1);
        }
    }
}

/// Serializes the graph under a vertex ordering into `out`: vertex count,
/// labels in order, then the upper-triangular adjacency bitmap.
fn encode(g: &LabeledGraph, order: &[VertexId], out: &mut Vec<u8>) {
    let n = order.len();
    out.clear();
    out.extend_from_slice(&(n as u32).to_be_bytes());
    for &v in order {
        out.extend_from_slice(&g.label(v).to_be_bytes());
    }
    let mut bitpos = 0u8;
    let mut current = 0u8;
    for i in 0..n {
        for j in i + 1..n {
            current <<= 1;
            if g.has_edge(order[i], order[j]) {
                current |= 1;
            }
            bitpos += 1;
            if bitpos == 8 {
                out.push(current);
                bitpos = 0;
                current = 0;
            }
        }
    }
    if bitpos > 0 {
        out.push(current << (8 - bitpos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use proptest::prelude::*;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    #[test]
    fn permuted_graphs_share_code() {
        // C-O-N path in two vertex orders.
        let a = path(&[0, 1, 2]);
        let b = GraphBuilder::new()
            .vertices(&[2, 1, 0])
            .edge(0, 1)
            .edge(1, 2)
            .build();
        assert_eq!(canonical_code(&a), canonical_code(&b));
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn different_labels_differ() {
        assert_ne!(
            canonical_code(&path(&[0, 1, 2])),
            canonical_code(&path(&[0, 1, 3]))
        );
    }

    #[test]
    fn different_structure_differs() {
        let p = path(&[0, 0, 0]);
        let t = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build();
        assert_ne!(canonical_code(&p), canonical_code(&t));
        assert!(!are_isomorphic(&p, &t));
    }

    #[test]
    fn symmetric_graphs_are_handled() {
        // A same-label 6-cycle in two different orders.
        let mk = |perm: &[u32]| {
            let mut g = LabeledGraph::new();
            for _ in 0..6 {
                g.add_vertex(5);
            }
            for i in 0..6usize {
                let u = perm[i];
                let v = perm[(i + 1) % 6];
                g.add_edge(u, v);
            }
            g
        };
        let a = mk(&[0, 1, 2, 3, 4, 5]);
        let b = mk(&[3, 1, 4, 0, 5, 2]);
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn claw_vs_path_same_degree_sum() {
        let claw = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        let p4 = path(&[0, 0, 0, 0]);
        assert!(!are_isomorphic(&claw, &p4));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(
            canonical_code(&LabeledGraph::new()),
            canonical_code(&LabeledGraph::new())
        );
        let mut a = LabeledGraph::new();
        a.add_vertex(3);
        let mut b = LabeledGraph::new();
        b.add_vertex(3);
        assert!(are_isomorphic(&a, &b));
        let mut c = LabeledGraph::new();
        c.add_vertex(4);
        assert!(!are_isomorphic(&a, &c));
    }

    #[test]
    fn code_is_deterministic() {
        let g = GraphBuilder::new()
            .vertices(&[0, 1, 0, 1, 2])
            .path(&[0, 1, 2, 3])
            .edge(3, 4)
            .edge(4, 0)
            .build();
        assert_eq!(canonical_code(&g), canonical_code(&g.clone()));
    }

    #[test]
    fn label_multiset_shortcut_in_are_isomorphic() {
        // Same structure, shuffled labels -> caught before code computation.
        let a = path(&[0, 0, 1]);
        let b = path(&[1, 1, 0]);
        assert!(!are_isomorphic(&a, &b));
    }

    /// The allocating search `canonical_code` replaced, kept as the
    /// reference its bytes are checked against.
    mod reference {
        use crate::graph::{LabeledGraph, VertexId};

        pub fn canonical_code(g: &LabeledGraph) -> Vec<u8> {
            let n = g.vertex_count();
            if n == 0 {
                return Vec::new();
            }
            let mut colors: Vec<u32> = {
                let mut sorted: Vec<u32> = g.labels().to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                g.labels()
                    .iter()
                    .map(|l| sorted.binary_search(l).expect("present") as u32)
                    .collect()
            };
            refine(g, &mut colors);
            let mut best: Option<Vec<u8>> = None;
            individualize(g, &colors, &mut best);
            best.expect("at least one ordering")
        }

        fn refine(g: &LabeledGraph, colors: &mut [u32]) {
            let n = g.vertex_count();
            loop {
                let mut sigs: Vec<(u32, Vec<u32>)> = (0..n)
                    .map(|v| {
                        let mut ns: Vec<u32> = g
                            .neighbors(v as VertexId)
                            .iter()
                            .map(|&w| colors[w as usize])
                            .collect();
                        ns.sort_unstable();
                        (colors[v], ns)
                    })
                    .collect();
                let mut sorted = sigs.clone();
                sorted.sort();
                sorted.dedup();
                let new_colors: Vec<u32> = sigs
                    .drain(..)
                    .map(|s| sorted.binary_search(&s).expect("present") as u32)
                    .collect();
                if new_colors == colors {
                    return;
                }
                colors.copy_from_slice(&new_colors);
            }
        }

        fn individualize(g: &LabeledGraph, colors: &[u32], best: &mut Option<Vec<u8>>) {
            let n = g.vertex_count();
            let mut by_color: std::collections::BTreeMap<u32, Vec<VertexId>> = Default::default();
            for v in 0..n as VertexId {
                by_color.entry(colors[v as usize]).or_default().push(v);
            }
            let target = by_color.values().find(|cell| cell.len() > 1).cloned();
            match target {
                None => {
                    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
                    order.sort_by_key(|&v| colors[v as usize]);
                    let code = encode(g, &order);
                    if best.as_ref().is_none_or(|b| code < *b) {
                        *best = Some(code);
                    }
                }
                Some(cell) => {
                    let max_color = *by_color.keys().last().expect("non-empty") + 1;
                    for &v in &cell {
                        let mut next = colors.to_vec();
                        next[v as usize] = max_color;
                        refine(g, &mut next);
                        individualize(g, &next, best);
                    }
                }
            }
        }

        fn encode(g: &LabeledGraph, order: &[VertexId]) -> Vec<u8> {
            let n = order.len();
            let mut out = Vec::with_capacity(4 + 4 * n + n * n / 16 + 1);
            out.extend_from_slice(&(n as u32).to_be_bytes());
            for &v in order {
                out.extend_from_slice(&g.label(v).to_be_bytes());
            }
            let mut bitpos = 0u8;
            let mut current = 0u8;
            for i in 0..n {
                for j in i + 1..n {
                    current <<= 1;
                    if g.has_edge(order[i], order[j]) {
                        current |= 1;
                    }
                    bitpos += 1;
                    if bitpos == 8 {
                        out.push(current);
                        bitpos = 0;
                        current = 0;
                    }
                }
            }
            if bitpos > 0 {
                out.push(current << (8 - bitpos));
            }
            out
        }
    }

    /// Shape `kind` on `n` vertices: a random (possibly disconnected)
    /// graph over `labels` and `pairs`, a one-label cycle, a star, or a
    /// complete graph.
    fn shape(kind: u32, n: usize, labels: &[u32], pairs: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        // Stars and complete graphs have `leaves!` and `n!` search leaves,
        // so they stay small.
        let n = match kind {
            1 => n.max(3),
            2 => n.min(6),
            3 => n.min(5),
            _ => n,
        };
        for v in 0..n {
            g.add_vertex(if kind == 0 { labels[v] } else { labels[0] });
        }
        let n = n as u32;
        let mut link = |u: u32, v: u32| {
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        };
        match kind {
            0 => pairs.iter().for_each(|&(u, v)| link(u % n, v % n)),
            1 => (0..n).for_each(|u| link(u, (u + 1) % n)),
            2 => (1..n).for_each(|leaf| link(0, leaf)),
            _ => (0..n).for_each(|u| (u + 1..n).for_each(|v| link(u, v))),
        }
        g
    }

    /// Labelled graphs of up to 12 vertices: random graphs, one-label
    /// cycles, stars and small complete graphs, alone or in a disjoint
    /// union with a random graph or a cycle.
    fn shaped_graph() -> impl Strategy<Value = LabeledGraph> {
        (
            (0u32..4, 1usize..13),
            (0u32..4, 1usize..7),
            proptest::collection::vec(0u32..4, 12),
            proptest::collection::vec((0u32..12, 0u32..12), 12..30),
        )
            .prop_map(|((kind, n), (other, m), labels, pairs)| {
                let mut g = shape(kind, n, &labels, &pairs);
                let b = shape(other % 2, m, &labels[6..], &pairs);
                if other >= 2 || g.vertex_count() + b.vertex_count() > 12 {
                    return g;
                }
                let shift = g.vertex_count() as u32;
                for &l in b.labels() {
                    g.add_vertex(l);
                }
                for &(u, v) in b.edges() {
                    g.add_edge(u + shift, v + shift);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The buffer-reusing search emits exactly the bytes of the
        /// allocating one.
        #[test]
        fn code_bytes_match_the_allocating_search(g in shaped_graph()) {
            prop_assert_eq!(&canonical_code(&g).0[..], &reference::canonical_code(&g)[..]);
        }
    }
}
