//! Graph edit distance (GED) — the paper's lower bounds.
//!
//! Diversity of a pattern set is defined through GED (§2.2):
//! `div(p, P\p) = min GED(p, p_i)`. Exact GED is NP-hard, so the paper
//! computes diversity with a *lower bound* `GED_l`, tightened in MIDAS to
//! `GED'_l = GED_l + n` using relaxed-edge counts (Lemma 6.1, §6.1). The
//! exact solver the bounds are checked against is a reference in
//! `midas-oracle`; as in the paper, it is never computed at scale.
//!
//! Cost model: vertex insertion / deletion / relabel cost 1 each; edge
//! insertion / deletion cost 1 each. Edge labels are derived from endpoint
//! labels (§2.1), so there is no independent edge-relabel operation.

use crate::graph::{LabeledGraph, VertexId};

/// Multiset intersection size of two sorted slices.
fn sorted_multiset_intersection<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// The label-based lower bound `GED_l` (the `n = 0` case of Lemma 6.1):
///
/// `|V| = ||V_A| − |V_B|| + min(|V_A|, |V_B|) − |L(V_A) ∩ L(V_B)|`
/// (multiset intersection), plus `|E| = ||E_A| − |E_B||`.
///
/// This is a true lower bound on exact GED under the uniform cost model:
/// the vertex term counts unavoidable vertex insertions/deletions plus
/// unavoidable relabels, and the edge term counts the unavoidable edge-count
/// difference; the two cost pools are disjoint.
pub fn ged_label_lower_bound(a: &LabeledGraph, b: &LabeledGraph) -> u32 {
    let (v, e) = ged_label_parts(a, b);
    v + e
}

/// The two disjoint cost pools of `GED_l`, separately: the vertex part
/// (unavoidable vertex insert/delete/relabel operations) and the edge part
/// (the unavoidable edge-count difference). [`ged_tight_lower_bound`]
/// tightens the vertex part only, so it needs them apart.
fn ged_label_parts(a: &LabeledGraph, b: &LabeledGraph) -> (u32, u32) {
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let la = a.sorted_labels();
    let lb = b.sorted_labels();
    let common = sorted_multiset_intersection(&la, &lb);
    let vertex_part = na.abs_diff(nb) + na.min(nb) - common;
    let edge_part = a.edge_count().abs_diff(b.edge_count());
    (vertex_part as u32, edge_part as u32)
}

/// Number of *relaxed edges* `n` between two graphs (§6.1): edges of the
/// smaller-edge-set graph that cannot be matched to an edge of the other
/// graph with the same (endpoint-derived) label.
///
/// The paper derives `n` from PF-matrix feature embeddings; at graph level
/// this is exactly the edge-label multiset deficit: at most
/// `|L(E_i) ∩ L(E_j)|` edges can match, so `n = |E_i| − |L(E_i) ∩ L(E_j)|`.
fn relaxed_edge_count(a: &LabeledGraph, b: &LabeledGraph) -> u32 {
    let ea = a.sorted_edge_labels();
    let eb = b.sorted_edge_labels();
    let common = sorted_multiset_intersection(&ea, &eb);
    (ea.len().min(eb.len()) - common.min(ea.len().min(eb.len()))) as u32
}

/// Combines the `GED_l` parts with a relaxed-edge count `n` into the
/// tightened — and still *admissible* — bound used by
/// [`ged_tight_lower_bound`]:
///
/// `GED'_l = max(vertex_part, ⌈n / d_max⌉) + edge_part`.
///
/// Soundness: every relaxed edge of the smaller-edge-set graph `S` must be
/// either deleted (edge cost 1 each, beyond `edge_part`, which only counts
/// the *net* count difference) or have an endpoint relabeled/deleted
/// (vertex cost 1, repairing at most `d_max = max degree of S` incident
/// edges at once). If `k` relaxed edges are deleted, the path pays at least
/// `k` extra edge operations plus `⌈(n−k)/d_max⌉` vertex operations, which
/// is never below `⌈n/d_max⌉`; and the vertex pool independently costs at
/// least `vertex_part`. Taking the max (the two lower bounds share the
/// vertex-operation pool) plus the disjoint `edge_part` stays below exact
/// GED. The paper's additive Lemma 6.1 form (`GED_l + n`) over-counts when
/// one relabel repairs several mismatched edge labels — edge labels are
/// *derived* from endpoint labels here (§2.1) — so it can exceed exact GED;
/// this form cannot.
fn ged_tight_from_parts(vertex_part: u32, edge_part: u32, relaxed: u32, max_degree: u32) -> u32 {
    let d = max_degree.max(1);
    vertex_part.max(relaxed.div_ceil(d)) + edge_part
}

/// Maximum vertex degree of `g` (0 for an edgeless graph).
fn max_degree(g: &LabeledGraph) -> u32 {
    (0..g.vertex_count() as VertexId)
        .map(|v| g.neighbors(v).len() as u32)
        .max()
        .unwrap_or(0)
}

/// MIDAS's tightened lower bound `GED'_l` (Lemma 6.1), made admissible:
/// the relaxed-edge count `n` is folded in as
/// `max(vertex_part, ⌈n / d_max⌉) + edge_part` (`ged_tight_from_parts`
/// gives the soundness argument) instead of the paper's additive
/// `GED_l + n`, so `GED_l ≤ GED'_l ≤ exact GED` always holds (property-tested in the
/// workspace's `tests` crate and cross-checked against exact GED by the
/// oracle's check 4, `ged_bounds`).
///
/// This is the quantity MIDAS plugs into diversity computations.
pub fn ged_tight_lower_bound(a: &LabeledGraph, b: &LabeledGraph) -> u32 {
    let (vertex_part, edge_part) = ged_label_parts(a, b);
    let relaxed = relaxed_edge_count(a, b);
    // `n` counts edges of the smaller-edge-set graph; its max degree is the
    // repair fan-out the soundness argument needs.
    let small = if a.edge_count() <= b.edge_count() {
        a
    } else {
        b
    };
    ged_tight_from_parts(vertex_part, edge_part, relaxed, max_degree(small))
}

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
    fn identical_graphs_have_zero_distance() {
        let g = path(&[0, 1, 2]);
        assert_eq!(ged_label_lower_bound(&g, &g), 0);
        assert_eq!(ged_tight_lower_bound(&g, &g), 0);
    }

    #[test]
    fn edge_insertion_costs_one() {
        let a = path(&[0, 0, 0]); // 2 edges
        let b = triangle(0); // 3 edges
        assert_eq!(ged_label_lower_bound(&a, &b), 1);
    }

    #[test]
    fn relaxed_edges_count_label_deficit() {
        // a: edges (0,0),(0,0); b: edges (0,1),(0,1) -> no common labels.
        let a = path(&[0, 0, 0]);
        let b = path(&[0, 1, 0]);
        assert_eq!(relaxed_edge_count(&a, &b), 2);
        // Identical edge label multisets -> 0 relaxed edges.
        assert_eq!(relaxed_edge_count(&a, &a), 0);
    }

    #[test]
    fn tight_bound_stays_admissible_under_relaxation() {
        // Regression: the paper's additive `GED_l + n` gave 1 + 2 = 3 here,
        // but one middle-vertex relabel transforms a into b (exact = 1) —
        // the bound was not a lower bound. The repaired form caps the
        // relaxation by the repair fan-out `d_max`.
        let a = path(&[0, 0, 0]);
        let b = path(&[0, 1, 0]);
        assert_eq!(relaxed_edge_count(&a, &b), 2);
        let tight = ged_tight_lower_bound(&a, &b);
        assert!(tight >= ged_label_lower_bound(&a, &b));
        assert_eq!(tight, 1);
    }

    #[test]
    fn tight_bound_improves_on_label_bound() {
        // Equal vertex-label multisets (vertex_part = 0) and equal edge
        // counts (edge_part = 0), but mismatched edge labels: GED_l = 0,
        // while the relaxation proves at least one operation is needed.
        let a = path(&[0, 1, 0, 1]); // edges (0,1) ×3
        let b = path(&[0, 0, 1, 1]); // edges (0,0), (0,1), (1,1)
        assert_eq!(ged_label_lower_bound(&a, &b), 0);
        let tight = ged_tight_lower_bound(&a, &b);
        assert!(tight >= 1, "relaxed edges force work");
    }

    #[test]
    fn empty_graph_distance_is_build_cost() {
        let e = LabeledGraph::new();
        let t = triangle(0);
        // 3 vertex insertions + 3 edge insertions.
        assert_eq!(ged_label_lower_bound(&e, &t), 6);
    }
}
