//! Property tests for the bookkeeping structures: closure graphs (CSG
//! maintenance §4.4), the index matrices (§5.1), and the swap guarantees
//! (§6.2).

use midas_core::metrics::ScovContext;
use midas_core::patterns::PatternStore;
use midas_core::swap::{multi_scan_swap, SwapParams};
use midas_graph::{ClosureGraph, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::EdgeCatalog;
use midas_tests::connected_graph_strategy;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
        let refs: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId(i as u64), g))
            .collect();
        let mut index = FctIndex::build(
            [(midas_mining::tree_key(&feature), &feature)],
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let before: Vec<_> = index.tg().iter().collect::<Vec<_>>();
        index.add_graph(GraphId(999), &newcomer);
        index.remove_graph(GraphId(999));
        let after: Vec<_> = index.tg().iter().collect::<Vec<_>>();
        prop_assert_eq!(before, after);
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
        let mut fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut store = PatternStore::new();
        for p in initial {
            store.insert(p);
        }
        prop_assume!(!store.is_empty());
        let fct_snapshot = fct.clone();
        let ife_snapshot = ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &MatchKernel::new(1),
        };
        let before = midas_core::quality_of(&store.graphs(), &db, &catalog, &sample);
        multi_scan_swap(
            &mut store,
            candidates,
            &ctx,
            &SwapParams::default(),
            &mut fct,
            &mut ife,
        );
        let after = midas_core::quality_of(&store.graphs(), &db, &catalog, &sample);
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
        let mut fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let mut store = PatternStore::new();
        store.insert(midas_tests::path(&[0, 1, 0]));
        store.insert(midas_tests::path(&[1, 0, 1]));
        let gamma = store.len();
        let fct_snapshot = fct.clone();
        let ife_snapshot = ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &MatchKernel::new(1),
        };
        multi_scan_swap(
            &mut store,
            candidates,
            &ctx,
            &SwapParams::default(),
            &mut fct,
            &mut ife,
        );
        prop_assert_eq!(store.len(), gamma);
    }
}
