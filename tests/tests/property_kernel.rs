//! Property tests for the memoized isomorphism kernel: every cached
//! path must agree exactly with the uncached VF2 reference, including
//! across insert/delete invalidation, and the signature prefilter must
//! never reject a true embedding.

use midas_catapult::score::{set_measures, set_quality, SetQuality};
use midas_graph::isomorphism::{count_embeddings, is_subgraph_of, GraphSignature};
use midas_graph::{CachedPattern, Csr, EdgeLabel, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::scov::covered_graphs;
use midas_index::{FctIndex, IfeIndex};
use midas_mining::canonical::edge_tree;
use midas_mining::tree_key;
use midas_tests::{connected_graph_strategy, count_row};
use proptest::prelude::*;
use std::collections::BTreeSet;

const CAP: u64 = 64;

fn db_refs(db: &GraphDb) -> Vec<(GraphId, &LabeledGraph)> {
    db.iter().map(|(id, g)| (id, g.as_ref())).collect()
}

fn csr_refs(db: &GraphDb) -> Vec<(GraphId, &Csr)> {
    db.csrs().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel bulk counts equal the serial uncached loop, on first
    /// (cold) and second (fully memoized) passes alike.
    #[test]
    fn kernel_counts_match_serial(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..8),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let refs = db_refs(&db);
        let csrs = csr_refs(&db);
        let kernel = MatchKernel::new();
        for pass in 0..2 {
            for p in &patterns {
                let got = count_row(&kernel, p, &csrs, CAP);
                let covered = kernel.covered_in(p, &csrs);
                for (i, &(_, g)) in refs.iter().enumerate() {
                    prop_assert_eq!(got[i], count_embeddings(p, g, CAP), "pass {}", pass);
                    prop_assert_eq!(covered[i], is_subgraph_of(p, g), "pass {}", pass);
                }
            }
        }
    }

    /// The grid (many patterns × many graphs) equals nested serial loops.
    #[test]
    fn kernel_grid_matches_serial(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..6),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let refs = db_refs(&db);
        let kernel = MatchKernel::new();
        let prepared: Vec<CachedPattern> = patterns.iter().map(CachedPattern::new).collect();
        let batch: Vec<&CachedPattern> = prepared.iter().collect();
        let grid = kernel.count_grid(&batch, &csr_refs(&db), CAP);
        for (i, &(_, g)) in refs.iter().enumerate() {
            for (j, p) in patterns.iter().enumerate() {
                prop_assert_eq!(grid[i][j], count_embeddings(p, g, CAP));
            }
        }
    }

    /// Cached answers stay correct across insert/delete invalidation:
    /// after a batch mutates the database, re-querying through the kernel
    /// (with per-graph invalidation, as `Midas::maintain_indices` does)
    /// matches a fresh serial scan of the new database state.
    #[test]
    fn kernel_stays_correct_across_batches(
        initial in proptest::collection::vec(connected_graph_strategy(6, 3), 3..7),
        added in proptest::collection::vec(connected_graph_strategy(6, 3), 1..4),
        pattern in connected_graph_strategy(4, 3),
        delete_first in 0u8..2,
    ) {
        let delete_first = delete_first == 1;
        let mut db = GraphDb::from_graphs(initial);
        let kernel = MatchKernel::new();
        // Warm the cache on the initial state.
        count_row(&kernel, &pattern, &csr_refs(&db), CAP);

        // Mutate: optionally delete the first graph, then insert `added`.
        let mut update = midas_graph::BatchUpdate::insert_only(added);
        if delete_first {
            update.delete.push(db.ids().next().unwrap());
        }
        let (inserted, deleted) = db.apply(update);
        for &id in deleted.iter().chain(&inserted) {
            kernel.invalidate_graph(id);
        }

        let refs = db_refs(&db);
        let got = count_row(&kernel, &pattern, &csr_refs(&db), CAP);
        for (i, &(_, g)) in refs.iter().enumerate() {
            prop_assert_eq!(got[i], count_embeddings(&pattern, g, CAP));
        }
    }

    /// The label-multiset / degree-sequence prefilter is sound: whenever
    /// the pattern truly embeds in the target, the signature must say the
    /// embedding is possible.
    #[test]
    fn prefilter_never_rejects_true_embeddings(
        pattern in connected_graph_strategy(5, 3),
        target in connected_graph_strategy(7, 3),
    ) {
        if is_subgraph_of(&pattern, &target) {
            prop_assert!(
                GraphSignature::of(&pattern).may_embed_in(&GraphSignature::of(&target)),
                "prefilter rejected a true embedding: {pattern:?} ⊑ {target:?}"
            );
        }
        // Self-embedding is always true, so in particular:
        prop_assert!(
            GraphSignature::of(&target).may_embed_in(&GraphSignature::of(&target))
        );
    }

    /// Index-accelerated coverage through the kernel equals VF2 over the
    /// whole universe with no dominance filter, before and after a batch
    /// update. The indices hold every edge of the database as a feature
    /// and track every edge label, so the filter prunes and its soundness
    /// is under test.
    #[test]
    fn covered_graphs_kernel_matches_serial_across_updates(
        initial in proptest::collection::vec(connected_graph_strategy(6, 3), 3..7),
        added in proptest::collection::vec(connected_graph_strategy(6, 3), 1..3),
        pattern in connected_graph_strategy(4, 3),
    ) {
        let mut db = GraphDb::from_graphs(initial);
        let kernel = MatchKernel::new();
        let check = |db: &GraphDb| -> Result<(), TestCaseError> {
            let refs = db_refs(db);
            let labels: BTreeSet<EdgeLabel> = refs.iter().flat_map(|(_, g)| g.edge_labels()).collect();
            let edges = labels.iter().map(|l| {
                let tree = edge_tree(l.0, l.1);
                (tree_key(&tree), tree)
            });
            let fct = FctIndex::build(&kernel, edges, &csr_refs(db));
            let ife = IfeIndex::build(labels, refs.iter().copied());
            let universe: BTreeSet<GraphId> = db.ids().collect();
            let want: BTreeSet<GraphId> = refs
                .iter()
                .filter(|(_, g)| is_subgraph_of(&pattern, g))
                .map(|&(id, _)| id)
                .collect();
            prop_assert_eq!(covered_graphs(&kernel, &fct, &ife, db, &pattern, &universe), want);
            Ok(())
        };
        check(&db)?;
        let (inserted, deleted) = db.apply(midas_graph::BatchUpdate::insert_only(added));
        for &id in deleted.iter().chain(&inserted) {
            kernel.invalidate_graph(id);
        }
        check(&db)?;
    }

    /// Set quality through the kernel equals VF2 coverage over the whole
    /// universe, with the same label, diversity and cognitive measures.
    #[test]
    fn set_quality_kernel_matches_serial(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..6),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let catalog = midas_mining::EdgeCatalog::build(db_refs(&db).into_iter());
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let covered = db_refs(&db)
            .iter()
            .filter(|(_, g)| patterns.iter().any(|p| is_subgraph_of(p, g)))
            .count();
        let measures = set_measures(&patterns, &catalog, &universe);
        let want = SetQuality {
            scov: covered as f64 / universe.len() as f64,
            lcov: measures.lcov,
            div: measures.div,
            cog: measures.cog,
        };
        let got = set_quality(&MatchKernel::new(), &patterns, &db, &catalog, &universe);
        prop_assert_eq!(got, want);
    }
}
