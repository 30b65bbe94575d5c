//! Graphlet counting and graphlet frequency distributions (§3.4).
//!
//! MIDAS classifies a batch update as *major* or *minor* by the Euclidean
//! distance between the graphlet frequency distributions `ψ_D` and
//! `ψ_{D⊕ΔD}` (Pržulj \[31\]). We count all connected 3-node and 4-node
//! graphlets — the paper observes that size-3 canned patterns *are* 3-/4-node
//! graphlets and larger patterns are grown from them (Lemma 3.5).
//!
//! Counting uses the ESU (FANMOD) enumeration scheme, which visits every
//! connected induced k-vertex subgraph exactly once; molecule-sized graphs
//! make this cheap and exact.

use crate::graph::{LabeledGraph, VertexId};

/// The eight connected graphlets on 3 and 4 vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum GraphletKind {
    /// 3 vertices, 2 edges: the path `P3`.
    Path3 = 0,
    /// 3 vertices, 3 edges: the triangle `K3`.
    Triangle = 1,
    /// 4 vertices, 3 edges, max degree 2: the path `P4`.
    Path4 = 2,
    /// 4 vertices, 3 edges, max degree 3: the star (claw) `S4`.
    Star4 = 3,
    /// 4 vertices, 4 edges, all degree 2: the cycle `C4`.
    Cycle4 = 4,
    /// 4 vertices, 4 edges with a triangle: the tailed triangle (paw).
    TailedTriangle = 5,
    /// 4 vertices, 5 edges: the diamond (chordal 4-cycle).
    Diamond = 6,
    /// 4 vertices, 6 edges: the clique `K4`.
    Clique4 = 7,
}

impl GraphletKind {
    /// All kinds, in index order.
    pub const ALL: [GraphletKind; 8] = [
        GraphletKind::Path3,
        GraphletKind::Triangle,
        GraphletKind::Path4,
        GraphletKind::Star4,
        GraphletKind::Cycle4,
        GraphletKind::TailedTriangle,
        GraphletKind::Diamond,
        GraphletKind::Clique4,
    ];

    /// Number of vertices in this graphlet.
    pub fn vertex_count(self) -> usize {
        match self {
            GraphletKind::Path3 | GraphletKind::Triangle => 3,
            _ => 4,
        }
    }
}

/// Raw graphlet occurrence counts for one graph (or one database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphletCounts {
    counts: [u64; 8],
}

impl GraphletCounts {
    /// The count for `kind`.
    pub fn get(&self, kind: GraphletKind) -> u64 {
        self.counts[kind as usize]
    }

    /// All eight counts in [`GraphletKind::ALL`] order.
    pub fn as_array(&self) -> [u64; 8] {
        self.counts
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise addition (e.g. accumulating a database total).
    pub fn add(&mut self, other: &GraphletCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// Element-wise saturating subtraction (e.g. removing a deleted graph).
    pub fn sub(&mut self, other: &GraphletCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a = a.saturating_sub(b);
        }
    }

    /// Normalizes into a frequency distribution `ψ`. The zero vector stays
    /// zero (an empty database has an empty distribution).
    pub fn distribution(&self) -> GraphletDistribution {
        let total = self.total();
        let mut freqs = [0.0f64; 8];
        if total > 0 {
            for (f, &c) in freqs.iter_mut().zip(self.counts.iter()) {
                *f = c as f64 / total as f64;
            }
        }
        GraphletDistribution { freqs }
    }
}

/// A graphlet frequency distribution `ψ` (§3.4): normalized counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphletDistribution {
    freqs: [f64; 8],
}

impl GraphletDistribution {
    /// Frequency of `kind`.
    pub fn get(&self, kind: GraphletKind) -> f64 {
        self.freqs[kind as usize]
    }

    /// All eight frequencies.
    pub fn as_array(&self) -> [f64; 8] {
        self.freqs
    }

    /// Euclidean distance `dist(ψ_D, ψ_{D⊕ΔD})` used by the selective
    /// maintenance test (§3.4). The paper notes alternative distances do not
    /// change behaviour significantly.
    pub fn euclidean_distance(&self, other: &GraphletDistribution) -> f64 {
        self.freqs
            .iter()
            .zip(other.freqs)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Classifies a connected induced subgraph on 3 vertices by edge count.
fn classify3(edges: usize) -> GraphletKind {
    match edges {
        2 => GraphletKind::Path3,
        3 => GraphletKind::Triangle,
        _ => unreachable!("connected 3-vertex graph has 2 or 3 edges"),
    }
}

/// Classifies a connected induced subgraph on 4 vertices by edge count and
/// maximum degree.
fn classify4(edges: usize, max_degree: usize) -> GraphletKind {
    match (edges, max_degree) {
        (3, 2) => GraphletKind::Path4,
        (3, 3) => GraphletKind::Star4,
        (4, 2) => GraphletKind::Cycle4,
        (4, 3) => GraphletKind::TailedTriangle,
        (5, _) => GraphletKind::Diamond,
        (6, _) => GraphletKind::Clique4,
        _ => unreachable!("impossible connected 4-vertex signature ({edges}, {max_degree})"),
    }
}

/// Counts all connected 3- and 4-node graphlets of `g` exactly, via ESU.
pub fn count_graphlets(g: &LabeledGraph) -> GraphletCounts {
    let mut counts = GraphletCounts::default();
    let n = g.vertex_count();
    if n < 3 {
        return counts;
    }
    // ESU: for each root v, extend subgraphs using only vertices > v that
    // neighbor the current subgraph, tracking the exclusive extension set.
    let mut subgraph: Vec<VertexId> = Vec::with_capacity(4);
    for v in 0..n as VertexId {
        subgraph.push(v);
        let ext: Vec<VertexId> = g.neighbors(v).iter().copied().filter(|&w| w > v).collect();
        extend(g, &mut subgraph, &ext, v, &mut counts);
        subgraph.pop();
    }
    counts
}

fn record(g: &LabeledGraph, subgraph: &[VertexId], counts: &mut GraphletCounts) {
    let k = subgraph.len();
    let mut edges = 0;
    let mut max_degree = 0;
    for (i, &u) in subgraph.iter().enumerate() {
        let mut d = 0;
        for (j, &w) in subgraph.iter().enumerate() {
            if i != j && g.has_edge(u, w) {
                d += 1;
            }
        }
        max_degree = max_degree.max(d);
        edges += d;
    }
    edges /= 2;
    let kind = if k == 3 {
        classify3(edges)
    } else {
        classify4(edges, max_degree)
    };
    counts.counts[kind as usize] += 1;
}

fn extend(
    g: &LabeledGraph,
    subgraph: &mut Vec<VertexId>,
    ext: &[VertexId],
    root: VertexId,
    counts: &mut GraphletCounts,
) {
    if subgraph.len() >= 3 {
        record(g, subgraph, counts);
    }
    if subgraph.len() == 4 {
        return;
    }
    // When |subgraph| == 2 we only record at sizes 3 and 4, so keep going.
    for (idx, &w) in ext.iter().enumerate() {
        // New exclusive extension: remaining ext members, plus neighbors of w
        // that are > root and not adjacent to any current subgraph vertex.
        let mut next_ext: Vec<VertexId> = ext[idx + 1..].to_vec();
        for &u in g.neighbors(w) {
            if u > root
                && u != w
                && !subgraph.contains(&u)
                && !ext.contains(&u)
                && !subgraph.iter().any(|&s| g.has_edge(s, u))
            {
                next_ext.push(u);
            }
        }
        subgraph.push(w);
        extend(g, subgraph, &next_ext, root, counts);
        subgraph.pop();
    }
}

/// Brute-force counter for testing: enumerates all 3- and 4-vertex subsets.
pub fn count_graphlets_brute_force(g: &LabeledGraph) -> GraphletCounts {
    let mut counts = GraphletCounts::default();
    let n = g.vertex_count() as VertexId;
    let connected = |vs: &[VertexId]| g.induced_subgraph(vs).is_connected();
    for a in 0..n {
        for b in a + 1..n {
            for c in b + 1..n {
                if connected(&[a, b, c]) {
                    record(g, &[a, b, c], &mut counts);
                }
                for d in c + 1..n {
                    if connected(&[a, b, c, d]) {
                        record(g, &[a, b, c, d], &mut counts);
                    }
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> LabeledGraph {
        let labels = vec![0u32; n];
        let vs: Vec<u32> = (0..n as u32).collect();
        GraphBuilder::new().vertices(&labels).path(&vs).build()
    }

    fn clique(n: usize) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_vertex(0);
        }
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                g.add_edge(u, v);
            }
        }
        g
    }

    fn cycle(n: usize) -> LabeledGraph {
        let mut g = path(n);
        g.add_edge(0, n as u32 - 1);
        g
    }

    #[test]
    fn triangle_counts() {
        let c = count_graphlets(&clique(3));
        assert_eq!(c.get(GraphletKind::Triangle), 1);
        assert_eq!(c.get(GraphletKind::Path3), 0);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn path4_counts() {
        let c = count_graphlets(&path(4));
        assert_eq!(c.get(GraphletKind::Path3), 2);
        assert_eq!(c.get(GraphletKind::Path4), 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn star_counts() {
        // K1,3: one star, three P3s.
        let star = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        let c = count_graphlets(&star);
        assert_eq!(c.get(GraphletKind::Star4), 1);
        assert_eq!(c.get(GraphletKind::Path3), 3);
        assert_eq!(c.get(GraphletKind::Path4), 0);
    }

    #[test]
    fn cycle4_counts() {
        let c = count_graphlets(&cycle(4));
        assert_eq!(c.get(GraphletKind::Cycle4), 1);
        assert_eq!(c.get(GraphletKind::Path3), 4);
        // Graphlets are induced: the only 4-vertex subset of C4 induces the
        // cycle itself, so there is no induced P4.
        assert_eq!(c.get(GraphletKind::Path4), 0);
    }

    #[test]
    fn clique4_counts() {
        let c = count_graphlets(&clique(4));
        assert_eq!(c.get(GraphletKind::Clique4), 1);
        assert_eq!(c.get(GraphletKind::Triangle), 4);
        assert_eq!(c.get(GraphletKind::Diamond), 0);
        // Within K4 every 4-set is the clique itself; no sparser 4-graphlet.
        assert_eq!(c.get(GraphletKind::Cycle4), 0);
    }

    #[test]
    fn diamond_counts() {
        // K4 minus one edge.
        let mut g = clique(4);
        let g2 = {
            let mut h = LabeledGraph::new();
            for _ in 0..4 {
                h.add_vertex(0);
            }
            for &(u, v) in g.edges() {
                if (u, v) != (2, 3) {
                    h.add_edge(u, v);
                }
            }
            h
        };
        g = g2;
        let c = count_graphlets(&g);
        assert_eq!(c.get(GraphletKind::Diamond), 1);
        assert_eq!(c.get(GraphletKind::Triangle), 2);
    }

    #[test]
    fn tailed_triangle_counts() {
        let paw = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build();
        let c = count_graphlets(&paw);
        assert_eq!(c.get(GraphletKind::TailedTriangle), 1);
        assert_eq!(c.get(GraphletKind::Triangle), 1);
        assert_eq!(c.get(GraphletKind::Path3), 2);
    }

    #[test]
    fn esu_matches_brute_force() {
        let samples = vec![
            path(6),
            cycle(5),
            clique(5),
            GraphBuilder::new()
                .vertices(&[0; 7])
                .path(&[0, 1, 2, 3, 4])
                .edge(2, 5)
                .edge(5, 6)
                .edge(1, 4)
                .build(),
        ];
        for g in &samples {
            assert_eq!(
                count_graphlets(g),
                count_graphlets_brute_force(g),
                "ESU mismatch on {g:?}"
            );
        }
    }

    #[test]
    fn small_graphs_have_no_graphlets() {
        assert_eq!(count_graphlets(&path(2)).total(), 0);
        assert_eq!(count_graphlets(&LabeledGraph::new()).total(), 0);
    }

    #[test]
    fn distribution_normalizes() {
        let c = count_graphlets(&path(4));
        let d = c.distribution();
        let sum: f64 = d.as_array().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((d.get(GraphletKind::Path3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distribution_for_empty() {
        let d = GraphletCounts::default().distribution();
        assert_eq!(d.as_array(), [0.0; 8]);
    }

    #[test]
    fn euclidean_distance_properties() {
        let a = count_graphlets(&path(5)).distribution();
        let b = count_graphlets(&clique(4)).distribution();
        assert_eq!(a.euclidean_distance(&a), 0.0);
        assert!((a.euclidean_distance(&b) - b.euclidean_distance(&a)).abs() < 1e-15);
        assert!(a.euclidean_distance(&b) > 0.0);
    }

    #[test]
    fn counts_add_and_sub() {
        let mut total = GraphletCounts::default();
        let a = count_graphlets(&path(5));
        let b = count_graphlets(&clique(4));
        total.add(&a);
        total.add(&b);
        assert_eq!(total.total(), a.total() + b.total());
        total.sub(&b);
        assert_eq!(total, a);
    }
}
