//! Property tests for the plan-compiled matcher: on random connected
//! (pattern, target) pairs the plan interpreter over CSR label slices
//! must agree exactly with the serial VF2 reference — counts at every
//! cap, coverage booleans, full embedding sets and their enumeration
//! order, and the kernel's bulk operations against serial VF2 loops.

use midas_graph::isomorphism::{count_embeddings, find_embeddings, is_subgraph_of};
use midas_graph::{CachedPattern, Csr, GraphDb, GraphId, LabeledGraph, MatchKernel, MatchPlan};
use midas_tests::{connected_graph_strategy, count_row};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Counts embeddings of `pattern` in `target` through a freshly compiled
/// plan.
fn count_embeddings_plan(pattern: &LabeledGraph, target: &LabeledGraph, cap: u64) -> u64 {
    MatchPlan::compile(pattern).count_embeddings(&Csr::from_graph(target), cap)
}

/// Whether `pattern ⊆ target` through a freshly compiled plan.
fn is_subgraph_plan(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    MatchPlan::compile(pattern).is_subgraph_of(&Csr::from_graph(target))
}

/// Up to `limit` embeddings through a freshly compiled plan, in
/// `pattern`'s own vertex numbering.
fn find_embeddings_plan(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    limit: usize,
) -> Vec<Vec<u32>> {
    MatchPlan::compile(pattern).find_embeddings(&Csr::from_graph(target), limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Capped counts agree at a spread of caps, including the degenerate
    /// cap 1 (containment) and an effectively unbounded cap.
    #[test]
    fn plan_counts_match_vf2(
        pattern in connected_graph_strategy(6, 3),
        target in connected_graph_strategy(9, 3),
    ) {
        for cap in [1, 2, 64, u64::MAX] {
            prop_assert_eq!(
                count_embeddings_plan(&pattern, &target, cap),
                count_embeddings(&pattern, &target, cap),
                "cap {}", cap
            );
        }
    }

    /// Coverage booleans agree, in both directions of the pair.
    #[test]
    fn plan_coverage_matches_vf2(
        a in connected_graph_strategy(6, 3),
        b in connected_graph_strategy(7, 3),
    ) {
        prop_assert_eq!(is_subgraph_plan(&a, &b), is_subgraph_of(&a, &b));
        prop_assert_eq!(is_subgraph_plan(&b, &a), is_subgraph_of(&b, &a));
    }

    /// Both matchers enumerate in the pattern's own vertex numbering, so
    /// the embedding *sets* (order-free) must be identical.
    #[test]
    fn plan_embedding_sets_match_vf2(
        pattern in connected_graph_strategy(5, 3),
        target in connected_graph_strategy(7, 3),
    ) {
        let reference: BTreeSet<Vec<u32>> =
            find_embeddings(&pattern, &target, 10_000).into_iter().collect();
        let plan: BTreeSet<Vec<u32>> =
            find_embeddings_plan(&pattern, &target, 10_000).into_iter().collect();
        prop_assert_eq!(plan, reference);
    }

    /// Both matchers share one vertex-ordering rule and try candidates in
    /// ascending target-vertex order, so they enumerate the same
    /// embeddings in the same *sequence* — the formulation simulator's
    /// first-fit packing depends on it. The pattern is an induced subgraph
    /// of a two-label target, so it embeds, usually many times.
    #[test]
    fn plan_embedding_order_matches_vf2(
        target in connected_graph_strategy(8, 2),
        keep in proptest::collection::vec(0..2u8, 8),
    ) {
        let kept: Vec<u32> = (0..target.vertex_count() as u32)
            .filter(|&v| keep[v as usize] == 1)
            .collect();
        let pattern = target.induced_subgraph(&kept);
        prop_assert_eq!(
            find_embeddings_plan(&pattern, &target, 10_000),
            find_embeddings(&pattern, &target, 10_000)
        );
    }

    /// The CSR twin reproduces the adjacency structure it was built from:
    /// same labels, same degrees, `has_edge` agreeing with the edge list,
    /// and per-label neighbor slices partitioning the neighborhood.
    #[test]
    fn csr_round_trips_random_graphs(g in connected_graph_strategy(8, 4)) {
        let csr = Csr::from_graph(&g);
        prop_assert_eq!(csr.vertex_count(), g.vertex_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(csr.label(v), g.label(v));
            prop_assert_eq!(csr.degree(v), g.neighbors(v).len());
            let mut want: Vec<u32> = g.neighbors(v).to_vec();
            want.sort_unstable();
            let mut got: Vec<u32> = csr.neighbors(v).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            // Per-label slices are sorted and partition the neighborhood.
            let mut by_label: Vec<u32> = Vec::new();
            let mut labels: Vec<u32> = g.neighbors(v).iter().map(|&w| g.label(w)).collect();
            labels.sort_unstable();
            labels.dedup();
            for l in labels {
                let slice = csr.neighbors_with_label(v, l);
                prop_assert!(slice.windows(2).all(|w| w[0] < w[1]));
                by_label.extend_from_slice(slice);
            }
            by_label.sort_unstable();
            let mut want: Vec<u32> = g.neighbors(v).to_vec();
            want.sort_unstable();
            prop_assert_eq!(by_label, want);
        }
        for &(u, v) in g.edges() {
            prop_assert!(csr.has_edge(u, v));
            prop_assert!(csr.has_edge(v, u));
        }
    }

    /// The kernel's bulk operations over the database's CSR views equal
    /// serial VF2 loops over the same graphs.
    #[test]
    fn kernels_agree_across_matchers(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..6),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let kernel = MatchKernel::new();
        let db = GraphDb::from_graphs(graphs.iter().cloned());
        let csrs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        for p in &patterns {
            let counts: Vec<u64> = graphs.iter().map(|g| count_embeddings(p, g, 64)).collect();
            prop_assert_eq!(count_row(&kernel, p, &csrs, 64), counts);
            let covered: Vec<bool> = graphs.iter().map(|g| is_subgraph_of(p, g)).collect();
            prop_assert_eq!(kernel.covered_in(p, &csrs), covered);
            let unbounded: Vec<u64> =
                graphs.iter().map(|g| count_embeddings(p, g, u64::MAX)).collect();
            let plan = MatchPlan::compile(p);
            let uncapped: Vec<u64> = graphs
                .iter()
                .map(|g| plan.count_embeddings(&Csr::from_graph(g), u64::MAX))
                .collect();
            prop_assert_eq!(uncapped, unbounded);
        }
        let prepared: Vec<_> = patterns.iter().map(CachedPattern::new).collect();
        let grid: Vec<Vec<u64>> = graphs
            .iter()
            .map(|g| patterns.iter().map(|p| count_embeddings(p, g, 64)).collect())
            .collect();
        let prepared: Vec<_> = prepared.iter().collect();
        prop_assert_eq!(kernel.count_grid(&prepared, &csrs, 64), grid);
    }
}
