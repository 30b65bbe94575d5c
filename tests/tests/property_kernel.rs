//! Property tests for the parallel + memoized isomorphism kernel: every
//! cached/parallel path must agree exactly with the serial uncached
//! reference, including across insert/delete invalidation, and the
//! signature prefilter must never reject a true embedding.

use midas_graph::isomorphism::{count_embeddings, is_subgraph_of, GraphSignature};
use midas_graph::{CachedPattern, Csr, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::scov::{covered_graphs, covered_graphs_with};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_tests::connected_graph_strategy;
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
        let kernel = MatchKernel::new(4);
        for pass in 0..2 {
            for p in &patterns {
                let got = kernel.try_count_in_graphs(p, &csrs, CAP).unwrap();
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
        let kernel = MatchKernel::new(3);
        let prepared: Vec<CachedPattern> = patterns.iter().map(|p| kernel.prepare(p)).collect();
        let grid = kernel.try_count_grid(&prepared, &csr_refs(&db), CAP).unwrap();
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
        let kernel = MatchKernel::new(2);
        // Warm the cache on the initial state.
        kernel.try_count_in_graphs(&pattern, &csr_refs(&db), CAP).unwrap();

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
        let got = kernel.try_count_in_graphs(&pattern, &csr_refs(&db), CAP).unwrap();
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

    /// Index-accelerated coverage through the kernel equals the serial
    /// uncached path, before and after a batch update.
    #[test]
    fn covered_graphs_kernel_matches_serial_across_updates(
        initial in proptest::collection::vec(connected_graph_strategy(6, 3), 3..7),
        added in proptest::collection::vec(connected_graph_strategy(6, 3), 1..3),
        pattern in connected_graph_strategy(4, 3),
    ) {
        let mut db = GraphDb::from_graphs(initial);
        let kernel = MatchKernel::new(2);

        let build = |db: &GraphDb| {
            let refs = db_refs(db);
            let fct = FctIndex::build(
                std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
                refs.iter().copied(),
                std::iter::empty::<(PatternId, &LabeledGraph)>(),
            );
            let ife = IfeIndex::build(
                BTreeSet::new(),
                refs.iter().copied(),
                std::iter::empty::<(PatternId, &LabeledGraph)>(),
            );
            (fct, ife)
        };

        let (fct, ife) = build(&db);
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let serial = covered_graphs(&fct, &ife, &db, &pattern, &universe);
        let cached = covered_graphs_with(&kernel, &fct, &ife, &db, &pattern, &universe);
        prop_assert_eq!(serial, cached);

        let (inserted, deleted) = db.apply(midas_graph::BatchUpdate::insert_only(added));
        for &id in deleted.iter().chain(&inserted) {
            kernel.invalidate_graph(id);
        }
        let (fct, ife) = build(&db);
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let serial = covered_graphs(&fct, &ife, &db, &pattern, &universe);
        let cached = covered_graphs_with(&kernel, &fct, &ife, &db, &pattern, &universe);
        prop_assert_eq!(serial, cached);
    }

    /// Set quality through the kernel equals the serial computation.
    #[test]
    fn set_quality_kernel_matches_serial(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..6),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let catalog = midas_mining::EdgeCatalog::build(db_refs(&db).into_iter());
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let kernel = MatchKernel::new(2);
        let serial = midas_catapult::score::set_quality(&patterns, &db, &catalog, &universe);
        let cached =
            midas_catapult::score::set_quality_with(&kernel, &patterns, &db, &catalog, &universe);
        prop_assert_eq!(serial, cached);
    }
}
