//! Property tests for the bookkeeping structures: closure graphs (CSG
//! maintenance §4.4), the index matrices (§5.1), and the swap guarantees
//! (§6.2).

use midas_catapult::score::set_quality;
use midas_core::candidate_gen::{coverage_state, Candidate};
use midas_core::metrics::ScovContext;
use midas_core::patterns::PatternStore;
use midas_core::swap::{multi_scan_swap, SwapParams};
use midas_graph::isomorphism::count_embeddings;
use midas_graph::{ClosureGraph, Csr, EdgeLabel, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::scov::{candidate_graphs, profile_pattern, PatternProfile};
use midas_index::{FctIndex, FeatureId, IfeIndex, SparseMatrix, EMBED_CAP};
use midas_mining::EdgeCatalog;
use midas_tests::{connected_graph_strategy, tree_strategy};
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

    /// Index graph columns: adding then removing a graph leaves the
    /// matrices untouched (§5.1 rules 3–4).
    #[test]
    fn index_graph_column_roundtrip(
        feature in connected_graph_strategy(3, 2),
        graphs in proptest::collection::vec(connected_graph_strategy(5, 2), 1..4),
        newcomer in connected_graph_strategy(5, 2),
    ) {
        // Only tree-shaped features are meaningful; skip others.
        prop_assume!(midas_mining::canonical::is_tree(&feature));
        let db = GraphDb::from_graphs(graphs);
        let kernel = MatchKernel::new();
        let key = midas_mining::tree_key(&feature);
        let mut index = FctIndex::build(&kernel, [(key, feature)], &db.csrs().collect::<Vec<_>>());
        let before: Vec<_> = index.tg().iter().collect::<Vec<_>>();
        let newcomer = Csr::from_graph(&newcomer);
        index.add_graphs(&kernel, &[(GraphId(999), &newcomer)]);
        index.remove_graph(GraphId(999));
        let after: Vec<_> = index.tg().iter().collect::<Vec<_>>();
        prop_assert_eq!(before, after);
    }

    /// One pattern profile: each index's `pattern_counts` equals the
    /// per-feature VF2 count at `EMBED_CAP` (per-label occurrences on the
    /// IFE side), and it is the profile the dominance filter uses.
    #[test]
    fn pattern_counts_match_vf2_and_the_profile(
        trees in proptest::collection::vec(tree_strategy(4, 3), 1..6),
        graphs in proptest::collection::vec(connected_graph_strategy(6, 3), 1..5),
        pattern in connected_graph_strategy(6, 3),
    ) {
        let tracked: BTreeSet<EdgeLabel> = graphs.iter().flat_map(|g| g.edge_labels()).collect();
        let db = GraphDb::from_graphs(graphs);
        let fct = FctIndex::build(
            &MatchKernel::new(),
            trees
                .into_iter()
                .filter(|t| t.edge_count() > 0)
                .map(|t| (midas_mining::tree_key(&t), t)),
            &db.csrs().collect::<Vec<_>>(),
        );
        let ife = IfeIndex::build(tracked, db.iter().map(|(id, g)| (id, g.as_ref())));

        let fct_counts = fct.pattern_counts(&pattern);
        let vf2: Vec<(FeatureId, u32)> = fct
            .features()
            .filter_map(|(fid, f)| {
                let c = count_embeddings(f.tree(), &pattern, EMBED_CAP) as u32;
                (c > 0).then_some((fid, c))
            })
            .collect();
        prop_assert_eq!(&fct_counts, &vf2);
        let ife_counts = ife.pattern_counts(&pattern);
        let occurrences: Vec<(EdgeLabel, u32)> = ife
            .tracked()
            .iter()
            .filter_map(|&label| {
                let c = pattern.edge_labels().filter(|&l| l == label).count() as u32;
                (c > 0).then_some((label, c))
            })
            .collect();
        prop_assert_eq!(&ife_counts, &occurrences);

        let profile = profile_pattern(&fct, &ife, &pattern);
        prop_assert_eq!(&profile.fct_counts, &fct_counts);
        prop_assert_eq!(&profile.ife_counts, &ife_counts);
    }

    /// The merge-join dominance filter keeps exactly the universe graphs
    /// whose TG and EG counts reach every profile entry, in ascending
    /// order. Rows are dense against a sparse universe, so a merge pass
    /// must skip several row entries between survivors. Universe ids
    /// 12..16 appear in no row, feature 3 and edge label (2, 3) have no
    /// row, and the generated profiles and universes include empty ones.
    #[test]
    fn candidate_graphs_match_a_per_graph_dominance_check(
        tg in proptest::collection::vec((0u32..3, 0u64..12, 1u32..4), 0..60),
        eg in proptest::collection::vec((0u32..2, 0u64..12, 1u32..4), 0..40),
        fct_need in proptest::collection::vec((0u32..4, 1u32..4), 0..4),
        ife_need in proptest::collection::vec((0u32..3, 1u32..4), 0..3),
        universe in proptest::collection::vec(0u64..16, 0..10),
    ) {
        let edge = |l: u32| EdgeLabel::new(l, l + 1);
        let tg = SparseMatrix::from_triples(
            tg.into_iter().map(|(f, g, c)| (FeatureId(f), GraphId(g), c)),
        );
        let eg = SparseMatrix::from_triples(
            eg.into_iter().map(|(l, g, c)| (edge(l), GraphId(g), c)),
        );
        // One entry per feature, as `pattern_counts` returns them.
        let fct_need: BTreeMap<u32, u32> = fct_need.into_iter().collect();
        let ife_need: BTreeMap<u32, u32> = ife_need.into_iter().collect();
        let profile = PatternProfile {
            fct_counts: fct_need.iter().map(|(&f, &n)| (FeatureId(f), n)).collect(),
            ife_counts: ife_need.iter().map(|(&l, &n)| (edge(l), n)).collect(),
        };
        let universe: BTreeSet<GraphId> = universe.into_iter().map(GraphId).collect();
        let naive: Vec<GraphId> = universe
            .iter()
            .copied()
            .filter(|&g| {
                profile.fct_counts.iter().all(|&(f, need)| tg.get(f, g) >= need)
                    && profile.ife_counts.iter().all(|&(l, need)| eg.get(l, g) >= need)
            })
            .collect();
        prop_assert_eq!(candidate_graphs(&tg, &eg, &profile, &universe), naive);
        let all: Vec<GraphId> = universe.iter().copied().collect();
        prop_assert_eq!(
            candidate_graphs(&tg, &eg, &PatternProfile::default(), &universe),
            all,
            "an empty profile returns the whole universe"
        );
        prop_assert!(candidate_graphs(&tg, &eg, &profile, &BTreeSet::new()).is_empty());
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
        let ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
        );
        let mut store = PatternStore::new();
        for p in initial {
            store.insert(p);
        }
        prop_assume!(!store.is_empty());
        let ctx = ScovContext {
            fct: &fct,
            ife: &ife,
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
        let ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
        );
        let mut store = PatternStore::new();
        store.insert(midas_tests::path(&[0, 1, 0]));
        store.insert(midas_tests::path(&[1, 0, 1]));
        let gamma = store.len();
        let ctx = ScovContext {
            fct: &fct,
            ife: &ife,
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
