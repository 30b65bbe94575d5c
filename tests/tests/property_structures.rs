//! Property tests for the bookkeeping structures: closure graphs (CSG
//! maintenance §4.4), the index matrices (§5.1), and the swap guarantees
//! (§6.2).

use midas_catapult::score::set_quality;
use midas_core::candidate_gen::{coverage_state, Candidate};
use midas_core::metrics::ScovContext;
use midas_core::patterns::PatternStore;
use midas_core::swap::{multi_scan_swap, SwapParams};
use midas_graph::{
    BatchUpdate, ClosureGraph, EdgeLabel, GraphDb, GraphId, LabeledGraph, MatchKernel,
};
use midas_index::scov::{candidate_graphs, profile_pattern, PatternProfile};
use midas_index::{FctIndex, FeatureId, EMBED_CAP};
use midas_mining::canonical::edge_tree;
use midas_mining::incremental::FctState;
use midas_mining::{tree_key, EdgeCatalog, MiningConfig, TreeKey};
use midas_oracle::vf2::count_embeddings;
use midas_oracle::{reference_entries, reference_tg_cells};
use midas_tests::{connected_graph_sized, connected_graph_strategy, tree_strategy};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSG insert/remove round-trips: removing everything that was added
    /// after a base set restores the base edge structure (§4.4's edge
    /// support discipline).
    #[test]
    fn closure_graph_roundtrip(
        base in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
        extra in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
    ) {
        let mut csg = ClosureGraph::new();
        for (i, g) in base.iter().enumerate() {
            csg.insert_graph(GraphId(i as u64), g);
        }
        let snapshot: Vec<(u32, u32, Vec<GraphId>)> = csg
            .edges()
            .map(|(u, v, s)| (u, v, s.iter().copied().collect()))
            .collect();
        let member_snapshot = csg.members().clone();
        for (i, g) in extra.iter().enumerate() {
            csg.insert_graph(GraphId(100 + i as u64), g);
        }
        for (i, g) in extra.iter().enumerate() {
            csg.remove_graph(GraphId(100 + i as u64), g);
        }
        let back: Vec<(u32, u32, Vec<GraphId>)> = csg
            .edges()
            .map(|(u, v, s)| (u, v, s.iter().copied().collect()))
            .collect();
        prop_assert_eq!(snapshot, back);
        prop_assert_eq!(member_snapshot, csg.members().clone());
    }

    /// Every member graph's edges appear in its CSG with that member in
    /// the support set (§4.4 step 1 invariant).
    #[test]
    fn closure_graph_supports_cover_members(
        graphs in proptest::collection::vec(connected_graph_strategy(5, 3), 1..5),
    ) {
        let refs: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId(i as u64), g))
            .collect();
        let csg = ClosureGraph::from_graphs(refs.iter().copied());
        for &(id, g) in &refs {
            let supported_edges = csg
                .edges()
                .filter(|(_, _, s)| s.contains(&id))
                .count();
            prop_assert_eq!(
                supported_edges,
                g.edge_count(),
                "member {} must support exactly its own edge count", id
            );
        }
    }

    /// Index graph columns: a graph joining the supports and then leaving
    /// them leaves the matrices untouched (§5.1 rules 3–4).
    #[test]
    fn index_graph_column_roundtrip(
        feature in connected_graph_strategy(3, 2),
        graphs in proptest::collection::vec(connected_graph_strategy(5, 2), 1..4),
        newcomer in connected_graph_strategy(5, 2),
    ) {
        // Only tree-shaped features are meaningful; skip others.
        prop_assume!(midas_mining::canonical::is_tree(&feature));
        let mut db = GraphDb::from_graphs(graphs);
        let feature = [(tree_key(&feature), feature)];
        let mut index = FctIndex::build(&reference_entries(feature.clone(), &db), &db);
        let before: Vec<_> = index.cells().collect::<Vec<_>>();
        let (inserted, _) = db.apply(BatchUpdate::insert_only(vec![newcomer]));
        index.sync(&reference_entries(feature.clone(), &db), &db);
        db.apply(BatchUpdate::delete_only(inserted));
        index.sync(&reference_entries(feature, &db), &db);
        let after: Vec<_> = index.cells().collect::<Vec<_>>();
        prop_assert_eq!(before, after);
    }

    /// The TG rows under interleaved maintenance: insertion waves, graph
    /// deletions and changes of the feature set, each followed by a sync,
    /// and syncs to supports cut short (as an interrupted phase leaves a
    /// row) before the next full one. After every full sync each row is
    /// strictly increasing in `GraphId`, holds no zero and has exactly
    /// its tree's support as ids, the rows are exactly the wanted
    /// features, and every cell equals VF2's count over the live graphs.
    #[test]
    fn tg_rows_stay_sorted_and_exact_under_interleaved_maintenance(
        trees in proptest::collection::vec(tree_strategy(4, 3), 1..6),
        pool in proptest::collection::vec(connected_graph_strategy(6, 3), 4..12),
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..12),
    ) {
        let keyed: Vec<(TreeKey, LabeledGraph)> =
            trees.iter().map(|t| (tree_key(t), t.clone())).collect();
        let mut wanted: Vec<(TreeKey, LabeledGraph)> = keyed.clone();
        let mut db = GraphDb::new();
        let mut index = FctIndex::new();
        let mut next = 0;
        for (step, &(op, arg)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let take = (1 + arg % 3).min(pool.len() - next);
                    db.apply(BatchUpdate::insert_only(pool[next..next + take].to_vec()));
                    next += take;
                }
                1 if !db.is_empty() => {
                    let id = db.ids().nth(arg % db.len()).unwrap();
                    db.apply(BatchUpdate::delete_only(vec![id]));
                }
                2 => {
                    wanted = keyed
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| arg & (1 << i) != 0)
                        .map(|(_, f)| f.clone())
                        .collect();
                }
                _ => {
                    let mut short = reference_entries(wanted.clone(), &db);
                    for entry in short.values_mut() {
                        let keep = arg % (entry.support.len() + 1);
                        entry.support = entry.support.iter().copied().skip(keep).collect();
                    }
                    index.sync(&short, &db);
                }
            }
            let entries = reference_entries(wanted.clone(), &db);
            index.sync(&entries, &db);
            for (_, feature) in index.features() {
                let row = feature.row();
                prop_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "step {}: unsorted row", step);
                prop_assert!(row.iter().all(|&(_, c)| c > 0), "step {}: stored zero", step);
                let ids: BTreeSet<GraphId> = row.iter().map(|&(g, _)| g).collect();
                prop_assert_eq!(&ids, &entries[&feature.key].support, "step {}", step);
            }
            let keys: BTreeSet<&TreeKey> = index.features().map(|(_, f)| &f.key).collect();
            prop_assert_eq!(keys, wanted.iter().map(|(k, _)| k).collect::<BTreeSet<_>>());
            let want = reference_tg_cells(&wanted, db.iter().map(|(id, g)| (id, g.as_ref())));
            let have: BTreeMap<(TreeKey, GraphId), u32> = index
                .features()
                .flat_map(|(_, f)| f.row().iter().map(move |&(g, c)| ((f.key.clone(), g), c)))
                .collect();
            prop_assert_eq!(have, want, "step {}", step);
        }
    }

    /// One pattern profile: the FCT-Index's `pattern_counts` equals the
    /// per-feature VF2 count at `EMBED_CAP`, the edge counts are the
    /// pattern's per-label multiplicities over the catalog's labels, and
    /// both are the profile the dominance filter uses.
    #[test]
    fn pattern_counts_match_vf2_and_the_profile(
        trees in proptest::collection::vec(tree_strategy(4, 3), 1..6),
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 1..5),
        pattern in connected_graph_strategy(6, 4),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let trees = trees.into_iter().filter(|t| t.edge_count() > 1);
        let fct = FctIndex::build(&reference_entries(trees.map(|t| (tree_key(&t), t)), &db), &db);
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));

        let fct_counts = fct.pattern_counts(&pattern);
        let vf2: Vec<(FeatureId, u32)> = fct
            .features()
            .filter_map(|(fid, f)| {
                let c = count_embeddings(f.tree(), &pattern, EMBED_CAP) as u32;
                (c > 0).then_some((fid, c))
            })
            .collect();
        prop_assert_eq!(&fct_counts, &vf2);
        let occurrences: Vec<(EdgeLabel, u32)> = catalog
            .labels()
            .filter_map(|(label, _)| {
                let c = pattern.edge_labels().filter(|&l| l == label).count() as u32;
                (c > 0).then_some((label, c))
            })
            .collect();

        let profile = profile_pattern(&fct, &catalog, &pattern);
        prop_assert_eq!(&profile.fct_counts, &fct_counts);
        prop_assert_eq!(&profile.edge_counts, &occurrences);
    }

    /// The merge-join dominance filter keeps exactly the universe graphs
    /// whose TG counts and catalog occurrence counts reach every profile
    /// entry, in ascending order. Rows are dense against a sparse
    /// universe, so a merge pass must skip several row entries between
    /// survivors. Universe ids 12..16 appear in no row, feature 3 has no
    /// row, edge label (3, 4) is absent from the catalog (no constraint),
    /// and the generated profiles and universes include empty ones.
    #[test]
    fn candidate_graphs_match_a_per_graph_dominance_check(
        tg in proptest::collection::vec((0u32..3, 0u64..12, 1u32..4), 0..60),
        eg in proptest::collection::vec((0u32..3, 0u64..12, 1u32..4), 0..40),
        fct_need in proptest::collection::vec((0u32..4, 1u32..4), 0..4),
        edge_need in proptest::collection::vec((0u32..4, 1u32..4), 0..4),
        universe in proptest::collection::vec(0u64..16, 0..10),
    ) {
        let edge = |l: u32| EdgeLabel::new(l, l + 1);
        // The last write to a repeated cell wins.
        let tg: BTreeMap<(FeatureId, GraphId), u32> = tg
            .into_iter()
            .map(|(f, g, c)| ((FeatureId(f), GraphId(g)), c))
            .collect();
        let mut rows: BTreeMap<FeatureId, Vec<(GraphId, u32)>> = BTreeMap::new();
        for (&(f, g), &c) in &tg {
            rows.entry(f).or_default().push((g, c));
        }
        let row = |f: FeatureId| rows.get(&f).map_or(&[][..], Vec::as_slice);
        // Edge cells hold labels 0..3, so label 3 is absent from the catalog.
        let eg: BTreeMap<(EdgeLabel, GraphId), u32> = eg
            .into_iter()
            .map(|(l, g, c)| ((edge(l), GraphId(g)), c))
            .collect();
        let graphs: BTreeMap<GraphId, LabeledGraph> = (0..12)
            .map(|g| {
                let cells = eg.iter().filter(|&(&(_, id), _)| id == GraphId(g));
                (GraphId(g), disjoint_edges(cells.map(|(&(label, _), &count)| (label, count))))
            })
            .collect();
        let catalog = EdgeCatalog::build(graphs.iter().map(|(&id, g)| (id, g)));
        // One entry per feature and per label, as `profile_pattern` makes them.
        let fct_need: BTreeMap<u32, u32> = fct_need.into_iter().collect();
        let edge_need: BTreeMap<u32, u32> = edge_need.into_iter().collect();
        let profile = PatternProfile {
            fct_counts: fct_need.iter().map(|(&f, &n)| (FeatureId(f), n)).collect(),
            edge_counts: edge_need.iter().map(|(&l, &n)| (edge(l), n)).collect(),
        };
        let universe: BTreeSet<GraphId> = universe.into_iter().map(GraphId).collect();
        let naive: Vec<GraphId> = universe
            .iter()
            .copied()
            .filter(|&g| {
                profile
                    .fct_counts
                    .iter()
                    .all(|&(f, need)| tg.get(&(f, g)).is_some_and(|&c| c >= need))
                    && profile.edge_counts.iter().all(|&(l, need)| {
                        catalog.get(l).is_none() || eg.get(&(l, g)).is_some_and(|&c| c >= need)
                    })
            })
            .collect();
        prop_assert_eq!(candidate_graphs(row, &catalog, &profile, &universe), naive);
        let all: Vec<GraphId> = universe.iter().copied().collect();
        prop_assert_eq!(
            candidate_graphs(row, &catalog, &PatternProfile::default(), &universe),
            all,
            "an empty profile returns the whole universe"
        );
        prop_assert!(candidate_graphs(row, &catalog, &profile, &BTreeSet::new()).is_empty());
    }

    /// The filter over ≥ 2-edge FCT rows and catalog occurrences keeps the
    /// graphs that Def. 5.1/5.2's formulation keeps: VF2 embedding counts
    /// at `EMBED_CAP` of every FCT and every frequent edge, plus occurrence
    /// counts of the infrequent edge labels. Patterns have at most 12 edges
    /// over two labels, so same-label edges repeat.
    #[test]
    fn survivors_match_the_fct_and_edge_count_reference(
        graphs in proptest::collection::vec(connected_graph_sized(2, 8, 2), 3..9),
        pattern in connected_graph_sized(2, 7, 2),
        high_support in 0u8..2,
        universe in proptest::collection::vec(0u64..9, 0..9),
    ) {
        prop_assume!(pattern.edge_count() <= 12);
        let sup_min = if high_support == 1 { 0.6 } else { 0.3 };
        let db = GraphDb::from_graphs(graphs);
        let state = FctState::build(&db, MiningConfig { sup_min, max_edges: 3 });
        let fct = FctIndex::build(state.index_trees(db.len()), &db);
        let catalog = &state.edges;
        let universe: BTreeSet<GraphId> = universe.into_iter().map(GraphId).collect();
        let profile = profile_pattern(&fct, catalog, &pattern);
        let survivors = candidate_graphs(|f| fct.row(f), catalog, &profile, &universe);

        // Def. 5.1's rows: every FCT, then every frequent edge as a tree.
        let mut features: BTreeMap<TreeKey, LabeledGraph> = state
            .fct(db.len())
            .into_iter()
            .map(|(k, e)| (k.clone(), e.tree.clone()))
            .collect();
        for (label, _) in catalog.frequent(sup_min, db.len()) {
            let tree = edge_tree(label.0, label.1);
            features.insert(tree_key(&tree), tree);
        }
        let infrequent: Vec<EdgeLabel> = catalog
            .infrequent(sup_min, db.len())
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        let occurrences = |g: &LabeledGraph, label: EdgeLabel| {
            g.edge_labels().filter(|&l| l == label).count()
        };
        // An id outside the database has no counts, as in the matrices.
        let empty = LabeledGraph::new();
        let reference: Vec<GraphId> = universe
            .iter()
            .copied()
            .filter(|&id| {
                let g = db.get(id).map_or(&empty, |g| g.as_ref());
                features.values().all(|f| {
                    count_embeddings(f, g, EMBED_CAP) >= count_embeddings(f, &pattern, EMBED_CAP)
                }) && infrequent
                    .iter()
                    .all(|&label| occurrences(g, label) >= occurrences(&pattern, label))
            })
            .collect();
        prop_assert_eq!(survivors, reference);
    }

    /// The swap never decreases sample-level coverage, diversity or label
    /// coverage, and never increases cognitive load (sw1–sw5 as a
    /// property).
    #[test]
    fn swap_quality_monotonicity(
        db_graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 4..10),
        initial in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
        candidates in proptest::collection::vec(connected_graph_strategy(5, 3), 1..4),
    ) {
        let db = GraphDb::from_graphs(db_graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let fct = FctIndex::new();
        let mut store = PatternStore::new();
        for p in initial {
            store.insert(p);
        }
        prop_assume!(!store.is_empty());
        let ctx = ScovContext {
            fct: &fct,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &MatchKernel::new(),
        };
        let kernel = MatchKernel::new();
        let quality = |store: &PatternStore| {
            set_quality(&kernel, &store.graphs(), &db, &catalog, &sample)
        };
        let before = quality(&store);
        let coverage = coverage_state(&store, &ctx);
        let candidates = Candidate::scored(&ctx, candidates);
        multi_scan_swap(&mut store, candidates, &coverage, &ctx, &SwapParams::default());
        let after = quality(&store);
        prop_assert!(after.scov >= before.scov - 1e-9, "sw1: {} -> {}", before.scov, after.scov);
        prop_assert!(after.div >= before.div - 1e-9, "sw3: {} -> {}", before.div, after.div);
        prop_assert!(after.cog <= before.cog + 1e-9, "sw4: {} -> {}", before.cog, after.cog);
        prop_assert!(after.lcov >= before.lcov - 1e-9, "sw5: {} -> {}", before.lcov, after.lcov);
    }

    /// Pattern-store size is invariant under swapping (γ preservation).
    #[test]
    fn swap_preserves_gamma(
        db_graphs in proptest::collection::vec(connected_graph_strategy(5, 2), 3..7),
        candidates in proptest::collection::vec(connected_graph_strategy(4, 2), 1..4),
    ) {
        let db = GraphDb::from_graphs(db_graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let fct = FctIndex::new();
        let mut store = PatternStore::new();
        store.insert(midas_tests::path(&[0, 1, 0]));
        store.insert(midas_tests::path(&[1, 0, 1]));
        let gamma = store.len();
        let ctx = ScovContext {
            fct: &fct,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &MatchKernel::new(),
        };
        let coverage = coverage_state(&store, &ctx);
        let candidates = Candidate::scored(&ctx, candidates);
        multi_scan_swap(&mut store, candidates, &coverage, &ctx, &SwapParams::default());
        prop_assert_eq!(store.len(), gamma);
    }
}

/// A graph of disjoint edges: `count` edges labeled `label` for each
/// `(label, count)` cell.
fn disjoint_edges(cells: impl Iterator<Item = (EdgeLabel, u32)>) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    for (label, count) in cells {
        for _ in 0..count {
            let u = g.add_vertex(label.0);
            let v = g.add_vertex(label.1);
            g.add_edge(u, v);
        }
    }
    g
}
