//! Property tests for the graph substrate: canonical codes, VF2, GED
//! bounds, graphlets, MCCS, and tree canonical strings.

use midas_graph::canonical::{are_isomorphic, canonical_code};
use midas_graph::ged::{ged_exact, ged_label_lower_bound, ged_tight_lower_bound};
use midas_graph::graphlets::{count_graphlets, count_graphlets_brute_force};
use midas_graph::isomorphism::{count_embeddings, count_embeddings_brute_force, is_subgraph_of};
use midas_graph::mccs::{mccs_edges, mccs_similarity};
use midas_graph::LabeledGraph;
use midas_oracle::reference_mccs_edges;
use midas_tests::{
    connected_graph_sized, connected_graph_strategy, path, permutation_strategy, permute,
    tree_strategy,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical codes are invariant under vertex permutation.
    #[test]
    fn canonical_code_permutation_invariant(
        g in connected_graph_strategy(7, 3),
        seed in proptest::num::u64::ANY,
    ) {
        let n = g.vertex_count();
        let perm = {
            // Deterministic permutation from the seed.
            let mut p: Vec<usize> = (0..n).collect();
            let mut state = seed;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                p.swap(i, j);
            }
            p
        };
        let h = permute(&g, &perm);
        prop_assert_eq!(canonical_code(&g), canonical_code(&h));
        prop_assert!(are_isomorphic(&g, &h));
    }

    /// VF2 embedding counts agree with brute force on small graphs.
    #[test]
    fn vf2_matches_brute_force(
        pattern in connected_graph_strategy(4, 2),
        target in connected_graph_strategy(6, 2),
    ) {
        prop_assert_eq!(
            count_embeddings(&pattern, &target, u64::MAX),
            count_embeddings_brute_force(&pattern, &target)
        );
    }

    /// A connected subgraph always embeds in its source.
    #[test]
    fn subgraph_embeds_in_source(g in connected_graph_strategy(7, 3)) {
        // Remove one leaf-ish vertex to get a subgraph candidate.
        if g.vertex_count() > 2 {
            let keep: Vec<u32> = (0..g.vertex_count() as u32 - 1).collect();
            let sub = g.induced_subgraph(&keep);
            if sub.is_connected() {
                prop_assert!(is_subgraph_of(&sub, &g));
            }
        }
    }

    /// GED lower bounds never exceed the exact distance, and the tight
    /// bound dominates the base bound.
    #[test]
    fn ged_bound_sandwich(
        a in connected_graph_strategy(5, 3),
        b in connected_graph_strategy(5, 3),
    ) {
        let exact = ged_exact(&a, &b);
        prop_assert!(ged_label_lower_bound(&a, &b) <= exact);
        prop_assert!(ged_tight_lower_bound(&a, &b) >= ged_label_lower_bound(&a, &b));
    }

    /// Exact GED is a metric on these samples: identity and symmetry.
    #[test]
    fn ged_identity_and_symmetry(
        a in connected_graph_strategy(5, 3),
        b in connected_graph_strategy(5, 3),
    ) {
        prop_assert_eq!(ged_exact(&a, &a), 0);
        prop_assert_eq!(ged_exact(&a, &b), ged_exact(&b, &a));
    }

    /// ESU graphlet counting agrees with subset enumeration.
    #[test]
    fn graphlets_match_brute_force(g in connected_graph_strategy(8, 2)) {
        prop_assert_eq!(count_graphlets(&g), count_graphlets_brute_force(&g));
    }

    /// Graphlet distributions of isomorphic graphs coincide.
    #[test]
    fn graphlets_are_invariants(
        g in connected_graph_strategy(7, 3),
        seed in proptest::num::u64::ANY,
    ) {
        let n = g.vertex_count();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let h = permute(&g, &perm);
        prop_assert_eq!(count_graphlets(&g), count_graphlets(&h));
    }

    /// MCCS: similarity to self is 1; symmetric; bounded by 1.
    #[test]
    fn mccs_properties(
        a in connected_graph_strategy(5, 2),
        b in connected_graph_strategy(5, 2),
    ) {
        let sim_self = mccs_similarity(&a, &a, 50_000);
        prop_assert!((sim_self - 1.0).abs() < 1e-9);
        let ab = mccs_edges(&a, &b, 50_000);
        let ba = mccs_edges(&b, &a, 50_000);
        if ab.exact && ba.exact {
            prop_assert_eq!(ab.edges, ba.edges);
        }
        prop_assert!(mccs_similarity(&a, &b, 50_000) <= 1.0 + 1e-9);
    }

    /// The bitset MCCS search returns the reference's `edges` and `exact`
    /// at every budget, capped searches included. A quarter of the pairs
    /// have two graphs above 64 vertices and a quarter one, so multi-word
    /// rows run on both sides.
    #[test]
    fn mccs_matches_the_reference(pair in mccs_pair_strategy()) {
        let (a, b) = pair;
        for budget in [0, 1, 50, 300, 2_000] {
            let (got, want) = (mccs_edges(&a, &b, budget), reference_mccs_edges(&a, &b, budget));
            prop_assert_eq!(got, want, "budget {}: {:?} != reference {:?}", budget, got, want);
        }
    }

    /// Tree canonical strings are permutation-invariant and decodable to
    /// the right vertex count.
    #[test]
    fn tree_keys_are_canonical(
        t in tree_strategy(8, 3),
        seed in proptest::num::u64::ANY,
    ) {
        let n = t.vertex_count();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let h = permute(&t, &perm);
        let ka = midas_mining::tree_key(&t);
        let kb = midas_mining::tree_key(&h);
        prop_assert_eq!(&ka, &kb);
        prop_assert_eq!(ka.vertex_count(), n);
    }

    /// Distinct canonical codes imply tree keys differ too (consistency of
    /// the two canonical forms on trees).
    #[test]
    fn tree_key_consistent_with_graph_canonical(
        a in tree_strategy(7, 3),
        b in tree_strategy(7, 3),
    ) {
        let same_graph = are_isomorphic(&a, &b);
        let same_tree = midas_mining::tree_key(&a) == midas_mining::tree_key(&b);
        prop_assert_eq!(same_graph, same_tree);
    }
}

/// A permutation strategy is exercised directly here so the helper is
/// covered (and stays deterministic under shrinking).
#[test]
fn permutation_strategy_smoke() {
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let tree = permutation_strategy(5).new_tree(&mut runner).unwrap();
    let mut perm = tree.current();
    perm.sort_unstable();
    assert_eq!(perm, vec![0, 1, 2, 3, 4]);
}

/// Two- and three-word rows (130 and 150 vertices), capped and not: the
/// bitset search returns the reference's `edges` and `exact`.
#[test]
fn wide_rows_match_the_reference() {
    let ring = |n: u32, labels: u32| {
        let mut g = path(&(0..n).map(|i| i % labels).collect::<Vec<_>>());
        g.add_edge(0, n - 1);
        g.add_edge(0, n / 2);
        g
    };
    let (a, b) = (ring(130, 3), ring(150, 2));
    let small = path(&[0, 1, 0, 1, 0]);
    for (x, y) in [(&a, &b), (&b, &a), (&small, &b), (&a, &a)] {
        for budget in [0, 1, 7, 300] {
            assert_eq!(
                mccs_edges(x, y, budget),
                reference_mccs_edges(x, y, budget),
                "budget {budget}"
            );
        }
    }
}

/// MCCS test pairs: both graphs wide (65–100 vertices), one wide, or both
/// molecule-sized (at most 12 vertices).
fn mccs_pair_strategy() -> impl Strategy<Value = (LabeledGraph, LabeledGraph)> {
    (0..4u32).prop_flat_map(|kind| {
        let (a, b) = match kind {
            0 => ((65, 100), (65, 100)),
            1 => ((2, 12), (65, 100)),
            _ => ((2, 12), (2, 12)),
        };
        (
            connected_graph_sized(a.0, a.1, 3),
            connected_graph_sized(b.0, b.1, 3),
        )
    })
}
