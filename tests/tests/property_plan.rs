//! Property tests for the plan-compiled matcher: on random connected
//! (pattern, target) pairs and on an adversarial suite of closed-form
//! shapes, the plan interpreter over CSR label slices must agree exactly
//! with the serial VF2 reference — counts at every cap, coverage
//! booleans, full embedding sets and their enumeration order, the
//! kernel's bulk operations against serial VF2 loops, and the
//! formulation simulator's first-fit packing.

use midas_graph::plan::Control;
use midas_graph::{
    CachedPattern, Csr, GraphBuilder, GraphDb, GraphId, LabeledGraph, MatchKernel, MatchPlan,
};
use midas_oracle::vf2::{count_embeddings, find_embeddings, for_each_embedding, is_subgraph_of};
use midas_queryform::{formulate, FormulationResult};
use midas_tests::{connected_graph_strategy, count_row, path, triangle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
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

/// The adversarial pattern and target lists for the exact comparisons:
/// every closed-form shape, with the label coincidences its collision
/// corrections special-case, against targets dense in shared
/// neighborhoods.
fn suite() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let patterns = vec![
        path(&[0, 0]),
        path(&[0, 1, 0]),
        triangle(0),
        // Square with alternating labels — two anchors at the closing
        // vertex exercise the intersection path.
        GraphBuilder::new()
            .vertices(&[0, 1, 0, 1])
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 0)
            .build(),
        // Disconnected pattern: two components.
        GraphBuilder::new().vertices(&[0, 0]).build(),
        // Star: degree pruning.
        GraphBuilder::new()
            .vertices(&[0, 1, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build(),
        // Star with mixed leaf labels (falling-factorial grouping).
        GraphBuilder::new()
            .vertices(&[1, 0, 0, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build(),
        // 4-paths: every end/mid label coincidence the double-star
        // closed form special-cases (a = d, c = a, b = d, all equal).
        path(&[0, 1, 0, 1]),
        path(&[0, 1, 1, 0]),
        path(&[0, 0, 0, 0]),
        path(&[0, 1, 1, 2]),
        path(&[1, 0, 1, 0]),
        // Double stars with multi-leaf sides: cross-side collisions
        // within one label exercise the inclusion–exclusion.
        GraphBuilder::new()
            .vertices(&[1, 0, 0, 1, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(3, 4)
            .build(),
        GraphBuilder::new()
            .vertices(&[0, 0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(3, 4)
            .build(),
        GraphBuilder::new()
            .vertices(&[0, 1, 1, 0, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(3, 4)
            .edge(3, 5)
            .build(),
        // 5-paths: uniform labels maximize end-collision corrections.
        path(&[0, 0, 0, 0, 0]),
        path(&[0, 1, 2, 1, 0]),
        path(&[0, 0, 1, 0, 0]),
        path(&[1, 0, 0, 0, 2]),
        // Triangle + isolated vertex: tree edge count but NOT a tree —
        // must fall through to the interpreter.
        GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build(),
    ];
    let targets = vec![
        triangle(0),
        path(&[0, 1, 0, 1, 0]),
        GraphBuilder::new()
            .vertices(&[0, 1, 0, 1, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 0)
            .edge(3, 4)
            .build(),
        GraphBuilder::new()
            .vertices(&[0, 1, 1, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(0, 4)
            .edge(1, 2)
            .build(),
        // K4, uniform labels: every pair of adjacent vertices shares
        // two common neighbors — the worst case for the closed forms'
        // collision corrections.
        GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(1, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build(),
        // Butterfly (two triangles sharing vertex 2) with a pendant
        // path: mixed degrees, shared neighborhoods, a 2-label split.
        GraphBuilder::new()
            .vertices(&[0, 0, 0, 0, 0, 1, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 2)
            .edge(2, 3)
            .edge(2, 4)
            .edge(3, 4)
            .edge(2, 5)
            .edge(5, 6)
            .build(),
        LabeledGraph::new(),
    ];
    (patterns, targets)
}

#[test]
fn counts_match_vf2_reference() {
    let (patterns, targets) = suite();
    for p in &patterns {
        let plan = MatchPlan::compile(p);
        for t in &targets {
            let csr = Csr::from_graph(t);
            for cap in [1, 3, u64::MAX] {
                assert_eq!(
                    plan.count_embeddings(&csr, cap),
                    count_embeddings(p, t, cap),
                    "count mismatch for {p:?} in {t:?} at cap {cap}"
                );
            }
            assert_eq!(plan.is_subgraph_of(&csr), is_subgraph_of(p, t));
        }
    }
}

#[test]
fn embedding_sets_match_vf2_reference() {
    let (patterns, targets) = suite();
    for p in &patterns {
        let plan = MatchPlan::compile(p);
        for t in &targets {
            let csr = Csr::from_graph(t);
            let ours: BTreeSet<Vec<u32>> =
                plan.find_embeddings(&csr, usize::MAX).into_iter().collect();
            let reference: BTreeSet<Vec<u32>> =
                find_embeddings(p, t, usize::MAX).into_iter().collect();
            assert_eq!(ours, reference, "embedding sets differ for {p:?} in {t:?}");
        }
    }
}

/// One greedy packing pass of the formulation simulator on the VF2
/// reference: for each pattern in `order`, keep placing the first
/// vertex-disjoint embedding VF2 enumerates.
fn pack_vf2(query: &LabeledGraph, order: &[&LabeledGraph]) -> FormulationResult {
    let n = query.vertex_count();
    let mut used_vertex = vec![false; n];
    let (mut patterns_used, mut covered_edges) = (0, 0);
    for pattern in order {
        loop {
            let mut found: Option<Vec<u32>> = None;
            for_each_embedding(pattern, query, &mut |mapping| {
                if mapping.iter().all(|&tv| !used_vertex[tv as usize]) {
                    found = Some(mapping.to_vec());
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            let Some(mapping) = found else { break };
            for &tv in &mapping {
                used_vertex[tv as usize] = true;
            }
            patterns_used += 1;
            covered_edges += pattern.edge_count();
        }
    }
    let covered_vertices = used_vertex.iter().filter(|&&u| u).count();
    FormulationResult {
        steps: patterns_used + (n - covered_vertices) + (query.edge_count() - covered_edges),
        edge_steps: n + query.edge_count(),
        patterns_used,
        covered_vertices,
        covered_edges,
    }
}

fn random_graph(rng: &mut StdRng, vertices: usize, labels: &[u32], p: f64) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    for _ in 0..vertices {
        g.add_vertex(labels[rng.random_range(0..labels.len())]);
    }
    for u in 0..vertices as u32 {
        for v in (u + 1)..vertices as u32 {
            if rng.random_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// 300 `(query, patterns)` rounds mixing patterns that embed, patterns
/// that usually do not, and patterns that are often larger than the
/// query.
fn random_rounds() -> Vec<(LabeledGraph, Vec<LabeledGraph>)> {
    let mut rng = StdRng::seed_from_u64(0x51ed);
    (0..300)
        .map(|_| {
            let n = rng.random_range(3..=9);
            let query = random_graph(&mut rng, n, &[0, 1, 2], 0.4);
            let mut patterns = Vec::new();
            for _ in 0..rng.random_range(0..=8) {
                patterns.push(match rng.random_range(0..4) {
                    // Embeds: an induced subgraph of the query.
                    0 | 1 => {
                        let keep: Vec<u32> =
                            (0..n as u32).filter(|_| rng.random_bool(0.5)).collect();
                        query.induced_subgraph(&keep)
                    }
                    // Usually does not embed: query labels plus one it lacks.
                    2 => {
                        let size = rng.random_range(2..=4);
                        random_graph(&mut rng, size, &[0, 1, 2, 9], 0.6)
                    }
                    // Often larger than the query.
                    _ => {
                        let size = rng.random_range(n..=n + 3);
                        random_graph(&mut rng, size, &[0, 1, 2], 0.6)
                    }
                });
            }
            (query, patterns)
        })
        .collect()
}

/// The greedy keeps the *first* vertex-disjoint embedding it finds, so
/// placements depend on enumeration order. [`formulate`]'s answer must be
/// the best of the same passes — size order, then each size-eligible
/// pattern promoted — packed on the VF2 reference, with every pattern
/// kept, embedding or not: `formulate` drops the size-eligible patterns
/// that do not embed before packing, and the rounds must hold enough of
/// them for that prefilter to be under test.
#[test]
fn formulation_matches_vf2_packing() {
    let (mut skipped, mut placed) = (0, 0);
    for (round, (query, patterns)) in random_rounds().iter().enumerate() {
        let mut by_size: Vec<&LabeledGraph> = patterns
            .iter()
            .filter(|p| p.edge_count() > 0 && p.edge_count() <= query.edge_count())
            .collect();
        skipped += by_size.iter().filter(|p| !is_subgraph_of(p, query)).count();
        by_size.sort_by_key(|p| std::cmp::Reverse(p.edge_count()));
        let mut best: Option<FormulationResult> = None;
        for promoted in std::iter::once(None).chain((0..by_size.len()).map(Some)) {
            let mut order = by_size.clone();
            if let Some(front) = promoted {
                let pattern = order.remove(front);
                order.insert(0, pattern);
            }
            let reference = pack_vf2(query, &order);
            if best.is_none_or(|b| reference.steps < b.steps) {
                best = Some(reference);
            }
        }
        let result = formulate(query, patterns);
        assert_eq!(
            Some(result),
            best,
            "round {round}: {query:?} with {patterns:?}"
        );
        placed += usize::from(result.used_any_pattern());
    }
    assert!(
        skipped > 50,
        "too few size-eligible non-embedding patterns: {skipped}"
    );
    assert!(
        placed > 100,
        "too few formulations used a pattern: {placed}"
    );
}
