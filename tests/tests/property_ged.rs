//! Property tests for the GED lower-bound chain: for every pair of small
//! labeled graphs, `ged_label_lower_bound ≤ ged_tight_lower_bound ≤
//! ged_exact` must hold — the bounds are only usable for pruning while
//! they stay admissible (never exceed the true edit distance).
//!
//! Graphs here are deliberately *not* restricted to connected ones:
//! isolated vertices are exactly the shape that made the paper-literal
//! strengthened bound (`GED'_l + n`) inadmissible, so the generator must
//! reach them.

use midas_graph::ged::{ged_label_lower_bound, ged_tight_lower_bound};
use midas_graph::{GraphBuilder, LabeledGraph};
use midas_oracle::ged_exact;
use midas_tests::triangle;
use proptest::prelude::*;

/// A small labeled graph that may be disconnected and may contain
/// isolated vertices: up to `max_vertices` vertices (labels in
/// `0..max_label`) and a sparse random edge set.
fn sparse_graph_strategy(
    max_vertices: usize,
    max_label: u32,
) -> impl Strategy<Value = LabeledGraph> {
    (1..=max_vertices)
        .prop_flat_map(move |n| {
            let labels = proptest::collection::vec(0..max_label, n);
            let edges = proptest::collection::vec((0..n, 0..n), 0..=n * 2);
            (labels, edges)
        })
        .prop_map(|(labels, edges)| {
            let mut g = LabeledGraph::new();
            for &l in &labels {
                g.add_vertex(l);
            }
            for (a, b) in edges {
                let (a, b) = (a as u32, b as u32);
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b);
                }
            }
            g
        })
}

fn path(labels: &[u32]) -> LabeledGraph {
    let vs: Vec<u32> = (0..labels.len() as u32).collect();
    GraphBuilder::new().vertices(labels).path(&vs).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full admissibility chain on arbitrary small pairs.
    #[test]
    fn lower_bound_chain_is_admissible(
        a in sparse_graph_strategy(5, 4),
        b in sparse_graph_strategy(5, 4),
    ) {
        let label = ged_label_lower_bound(&a, &b);
        let tight = ged_tight_lower_bound(&a, &b);
        let exact = ged_exact(&a, &b);
        prop_assert!(
            label <= tight,
            "tight bound must dominate the label bound: label = {label}, tight = {tight}"
        );
        prop_assert!(
            tight <= exact,
            "tight bound must stay admissible: tight = {tight}, exact = {exact}"
        );
    }

    /// Both bounds are symmetric, like the distance they bound.
    #[test]
    fn lower_bounds_are_symmetric(
        a in sparse_graph_strategy(5, 4),
        b in sparse_graph_strategy(5, 4),
    ) {
        prop_assert_eq!(ged_label_lower_bound(&a, &b), ged_label_lower_bound(&b, &a));
        prop_assert_eq!(ged_tight_lower_bound(&a, &b), ged_tight_lower_bound(&b, &a));
    }

    /// Identical graphs have distance zero, and every bound agrees.
    #[test]
    fn identical_graphs_bound_to_zero(g in sparse_graph_strategy(5, 4)) {
        prop_assert_eq!(ged_label_lower_bound(&g, &g), 0);
        prop_assert_eq!(ged_tight_lower_bound(&g, &g), 0);
        prop_assert_eq!(ged_exact(&g, &g), 0);
    }
}

/// The pair that broke the paper-literal strengthened bound: relabeling
/// one interior vertex of a 3-path is a single edit, but `GED'_l + n`
/// claimed 3. The repaired bound must sit at or below the exact value.
#[test]
fn interior_relabel_regression_stays_admissible() {
    let a = path(&[0, 0, 0]);
    let b = path(&[0, 1, 0]);
    let exact = ged_exact(&a, &b);
    assert_eq!(exact, 1);
    assert!(ged_tight_lower_bound(&a, &b) <= exact);
}

/// Disjoint label alphabets: every vertex must be relabeled, and the
/// bounds must see all of it without overshooting.
#[test]
fn disjoint_label_alphabets() {
    let a = path(&[0, 1]);
    let b = path(&[2, 3]);
    let exact = ged_exact(&a, &b);
    assert_eq!(ged_label_lower_bound(&a, &b), 2);
    assert!(ged_tight_lower_bound(&a, &b) <= exact);
    assert!(exact >= 2);
}

/// Isolated vertices vs a triangle on the same labels: the edit distance
/// is pure edge insertion; the edge-aware tight bound must capture it
/// while staying admissible.
#[test]
fn isolated_vertices_vs_triangle() {
    let isolated = GraphBuilder::new().vertices(&[0, 0, 0]).build();
    let triangle = GraphBuilder::new()
        .vertices(&[0, 0, 0])
        .edge(0, 1)
        .edge(1, 2)
        .edge(0, 2)
        .build();
    let exact = ged_exact(&isolated, &triangle);
    assert_eq!(exact, 3);
    let tight = ged_tight_lower_bound(&isolated, &triangle);
    assert!(tight <= exact);
    assert!(tight >= ged_label_lower_bound(&isolated, &triangle));
}

/// The chain on fixed pairs: relabels, edge-count gaps, a star, and two
/// 4-paths with equal vertex labels and edge counts but mismatched edge
/// labels, where only the relaxation lifts the tight bound above 0.
#[test]
fn lower_bounds_never_exceed_exact() {
    let gs = [
        path(&[0, 1, 0]),
        triangle(0),
        triangle(1),
        path(&[1, 1]),
        path(&[0, 1, 2, 0]),
        GraphBuilder::new()
            .vertices(&[0, 1, 1, 2])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build(),
        path(&[0, 1, 0, 1]),
        path(&[0, 0, 1, 1]),
    ];
    for x in &gs {
        for y in &gs {
            let exact = ged_exact(x, y);
            assert!(
                ged_label_lower_bound(x, y) <= exact,
                "GED_l violated for {x:?} vs {y:?}"
            );
            assert!(ged_tight_lower_bound(x, y) >= ged_label_lower_bound(x, y));
            assert!(
                ged_tight_lower_bound(x, y) <= exact,
                "GED'_l inadmissible for {x:?} vs {y:?}"
            );
        }
    }
}
