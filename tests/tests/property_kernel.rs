//! Property tests for the memoized containment kernel and the FCT-Index's
//! own counting: the memo, the kernel's bulk operations, the index's TG
//! cells and index-accelerated coverage must agree exactly with the
//! uncached VF2 reference, including across insert/delete invalidation,
//! and the signature prefilter must never reject a true embedding.

use midas_catapult::score::{set_measures, set_quality, SetQuality};
use midas_graph::{
    CachedPattern, Csr, EmbeddingCache, GraphDb, GraphId, LabeledGraph, MatchKernel,
};
use midas_index::scov::covered_graphs;
use midas_index::{FctIndex, EMBED_CAP};
use midas_mining::{tree_key, EdgeCatalog, TreeKey};
use midas_oracle::reference_entries;
use midas_oracle::vf2::{count_embeddings, is_subgraph_of, GraphSignature};
use midas_tests::{connected_graph_strategy, path, triangle};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn db_refs(db: &GraphDb) -> Vec<(GraphId, &LabeledGraph)> {
    db.iter().map(|(id, g)| (id, g.as_ref())).collect()
}

fn csr_refs(db: &GraphDb) -> Vec<(GraphId, &Csr)> {
    db.csrs().collect()
}

/// Every labeled 2-edge path `a-v-b` of `g`.
fn two_edge_paths(g: &LabeledGraph) -> Vec<LabeledGraph> {
    let mut paths = Vec::new();
    for v in g.vertices() {
        let around = g.neighbors(v);
        for (i, &a) in around.iter().enumerate() {
            for &b in &around[i + 1..] {
                paths.push(path(&[g.label(a), g.label(v), g.label(b)]));
            }
        }
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel containment answers (the memo's cap-1 counts) equal the
    /// serial uncached loop, on first (cold) and second (fully memoized)
    /// passes alike.
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
                let covered = kernel.covered_in(p, &csrs);
                for (i, &(_, g)) in refs.iter().enumerate() {
                    prop_assert_eq!(covered[i], is_subgraph_of(p, g), "pass {}", pass);
                }
            }
        }
    }

    /// The set-coverage scan (many patterns × many graphs) equals nested
    /// serial loops, cold and warm.
    #[test]
    fn kernel_grid_matches_serial(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 2..6),
        patterns in proptest::collection::vec(connected_graph_strategy(4, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let refs = db_refs(&db);
        let kernel = MatchKernel::new();
        let prepared: Vec<CachedPattern> = patterns.iter().map(CachedPattern::new).collect();
        for pass in 0..2 {
            let any = kernel.any_covered_in(&prepared, &csr_refs(&db));
            for (i, &(_, g)) in refs.iter().enumerate() {
                let want = patterns.iter().any(|p| is_subgraph_of(p, g));
                prop_assert_eq!(any[i], want, "pass {}", pass);
            }
        }
    }

    /// Cached answers stay correct across insert/delete invalidation:
    /// after a batch mutates the database, re-querying through the kernel
    /// (with per-graph invalidation, as `Midas::maintain_index` does)
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
        kernel.covered_in(&pattern, &csr_refs(&db));

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
        let got = kernel.covered_in(&pattern, &csr_refs(&db));
        for (i, &(_, g)) in refs.iter().enumerate() {
            prop_assert_eq!(got[i], is_subgraph_of(&pattern, g));
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
    /// update. The FCT-Index holds every 2-edge path of the database as a
    /// feature and the catalog every edge label, so the filter prunes and
    /// its soundness is under test.
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
            let paths: BTreeMap<TreeKey, LabeledGraph> = refs
                .iter()
                .flat_map(|(_, g)| two_edge_paths(g))
                .map(|tree| (tree_key(&tree), tree))
                .collect();
            let entries = reference_entries(paths, db);
            let fct = FctIndex::build(&entries, db);
            let catalog = EdgeCatalog::build(refs.iter().copied());
            let universe: BTreeSet<GraphId> = db.ids().collect();
            let want: BTreeSet<GraphId> = refs
                .iter()
                .filter(|(_, g)| is_subgraph_of(&pattern, g))
                .map(|&(id, _)| id)
                .collect();
            prop_assert_eq!(covered_graphs(&kernel, &fct, &catalog, db, &pattern, &universe), want);
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

/// The memo's containment answers equal the serial VF2 reference, on a
/// cold memo and on a partially warm one, including a pattern the plan's
/// label-demand prefilter proves absent. (Named for the count memo it
/// replaced: an answer is the cap-1 count.)
#[test]
fn cache_batched_counts_match_vf2() {
    let patterns: Vec<CachedPattern> = [path(&[0, 0]), path(&[0, 9]), triangle(0)]
        .iter()
        .map(CachedPattern::new)
        .collect();
    let g = triangle(0);
    let t = Csr::from_graph(&g);
    let want: Vec<bool> = patterns
        .iter()
        .map(|p| is_subgraph_of(p.graph(), &g))
        .collect();
    assert_eq!(want, vec![true, false, true]);
    let cache = EmbeddingCache::new();
    let answers = |id: GraphId| -> Vec<bool> {
        patterns
            .iter()
            .map(|p| cache.is_subgraph(p, id, &t))
            .collect()
    };
    assert_eq!(answers(GraphId(12)), want);
    cache.is_subgraph(&patterns[0], GraphId(3), &t);
    assert_eq!(answers(GraphId(3)), want);
    assert_eq!(cache.stats().hits, 1);
}

/// Every TG cell of `index` over `db` equals VF2's capped count: the
/// whole database, no dominance filter.
fn assert_cells_match_vf2(index: &FctIndex, db: &GraphDb) {
    for (fid, feature) in index.features() {
        for (id, g) in db.iter() {
            let want = count_embeddings(feature.tree(), g, EMBED_CAP) as u32;
            assert_eq!(index.count(fid, id), want);
        }
    }
}

fn keyed(features: &[LabeledGraph]) -> Vec<(TreeKey, LabeledGraph)> {
    features.iter().map(|t| (tree_key(t), t.clone())).collect()
}

/// An FCT-Index built by its own counting, then synced to a new feature
/// set, holds VF2's counts in every cell.
#[test]
fn kernel_build_matches_serial_build() {
    let features = [path(&[0, 1]), path(&[0, 1, 2]), path(&[1, 2])];
    let db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[1, 0, 1]), path(&[0, 1, 2, 1, 0])]);
    let mut index = FctIndex::build(&reference_entries(keyed(&features), &db), &db);
    assert_eq!(index.feature_count(), features.len());
    assert_cells_match_vf2(&index, &db);
    // Keep C-O-N, drop C-O and O-N, add N-O-N.
    let target = reference_entries(keyed(&[path(&[0, 1, 2]), path(&[2, 1, 2])]), &db);
    index.sync(&target, &db);
    assert_eq!(index.feature_count(), 2);
    assert_cells_match_vf2(&index, &db);
}

/// A sync counts the cells a row lacks wherever their ids fall: support
/// ids above the row's (fresh graphs) and below them (a row left short by
/// an interrupted sync) merge into VF2's counts in ascending id order.
#[test]
fn sync_fills_lacking_cells_in_id_order() {
    let features = keyed(&[path(&[0, 1]), path(&[0, 1, 2])]);
    let mut db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[1, 0, 1])]);
    let mut index = FctIndex::build(&reference_entries(features.clone(), &db), &db);
    db.apply(midas_graph::BatchUpdate::insert_only(vec![
        path(&[0, 1, 0, 1]),
        path(&[2, 1, 0]),
        path(&[1, 0, 1, 2]),
    ]));
    let full = reference_entries(features, &db);
    // First only the support ids from 3 up, then every one.
    let mut short = full.clone();
    for entry in short.values_mut() {
        entry.support.retain(|id| id.0 >= 3);
    }
    index.sync(&short, &db);
    index.sync(&full, &db);
    assert_cells_match_vf2(&index, &db);
    for (_, feature) in index.features() {
        assert!(feature.row().windows(2).all(|w| w[0].0 < w[1].0));
    }
}

/// Index-accelerated coverage equals VF2 over every sub-universe of a
/// three-graph database, so the filter's survivors are checked against
/// VF2 over graphs it may not prune, and the repeats are answered from
/// the memo.
#[test]
fn kernel_covered_graphs_matches_serial() {
    // DB: G0 = C-O-N-S, G1 = C-O-C, G2 = S-N; one feature, O-C-O.
    let db = GraphDb::from_graphs([path(&[0, 1, 2, 3]), path(&[0, 1, 0]), path(&[3, 2])]);
    let kernel = MatchKernel::new();
    let fct = FctIndex::build(&reference_entries(keyed(&[path(&[1, 0, 1])]), &db), &db);
    let catalog = EdgeCatalog::build(db_refs(&db));
    let ids: Vec<GraphId> = db.ids().collect();
    let patterns: [&[u32]; 6] = [
        &[0, 1],
        &[0, 1, 2],
        &[2, 3],
        &[0, 1, 0],
        &[1, 0, 1],
        &[3, 3],
    ];
    for mask in 0..1u32 << ids.len() {
        let universe: BTreeSet<GraphId> = (0..ids.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| ids[i])
            .collect();
        for pattern in patterns.map(path) {
            let want: BTreeSet<GraphId> = universe
                .iter()
                .copied()
                .filter(|&id| is_subgraph_of(&pattern, db.get(id).unwrap()))
                .collect();
            let got = covered_graphs(&kernel, &fct, &catalog, &db, &pattern, &universe);
            assert_eq!(got, want, "pattern {pattern:?}, universe {universe:?}");
        }
    }
    assert!(kernel.cache().stats().hits > 0);
}
