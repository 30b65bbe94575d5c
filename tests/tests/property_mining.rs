//! Property tests for FCT mining and its incremental maintenance — the
//! closure-property guarantees of §4.1–4.2.

use midas_graph::{BatchUpdate, GraphDb, GraphId, LabeledGraph};
use midas_mining::incremental::FctState;
use midas_mining::{mine_lattice, MiningConfig};
use midas_tests::connected_graph_strategy;
use proptest::prelude::*;

fn config() -> MiningConfig {
    MiningConfig {
        sup_min: 0.5,
        max_edges: 3,
    }
}

fn lattice_snapshot(state: &FctState) -> Vec<(midas_mining::TreeKey, Vec<GraphId>, bool)> {
    state
        .lattice
        .iter()
        .map(|(k, e)| (k.clone(), e.support.iter().copied().collect(), e.closed))
        .collect()
}

/// Snapshot restricted to the user threshold: frequent trees with exact
/// supports (closed flags compared separately — see the deletion test).
fn user_threshold_snapshot(
    state: &FctState,
    db_len: usize,
) -> Vec<(midas_mining::TreeKey, Vec<GraphId>)> {
    state
        .frequent_trees(db_len)
        .into_iter()
        .map(|(k, e)| (k.clone(), e.support.iter().copied().collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental maintenance after insertions equals from-scratch mining
    /// (Corollary 4.3 realized).
    #[test]
    fn insertion_maintenance_equals_scratch(
        base in proptest::collection::vec(connected_graph_strategy(6, 3), 3..8),
        delta in proptest::collection::vec(connected_graph_strategy(6, 3), 1..5),
    ) {
        let mut db = GraphDb::from_graphs(base);
        let mut state = FctState::build(&db, config());
        let (inserted, _) = db.apply(BatchUpdate::insert_only(delta));
        state.apply_batch(&db, &inserted, &[]);
        let scratch = FctState::build(&db, config());
        prop_assert_eq!(lattice_snapshot(&state), lattice_snapshot(&scratch));
    }

    /// Incremental maintenance after deletions preserves the paper's
    /// guarantee (Lemma 4.5): at the **user** threshold, the frequent-tree
    /// sets (with exact supports) coincide, and every from-scratch FCT is
    /// also an incremental FCT. (Below the user threshold the tracked
    /// lattices may differ: deleting graphs can *raise* relative supports
    /// past the relaxed tracking bar, which neither the paper's
    /// CTMiningDelete nor our realization re-mines.)
    #[test]
    fn deletion_maintenance_preserves_user_threshold(
        base in proptest::collection::vec(connected_graph_strategy(6, 3), 4..9),
        victim_idx in proptest::num::usize::ANY,
    ) {
        let mut db = GraphDb::from_graphs(base);
        let mut state = FctState::build(&db, config());
        let ids: Vec<GraphId> = db.ids().collect();
        let victim = ids[victim_idx % ids.len()];
        let graph = db.get(victim).expect("live").clone();
        db.remove(victim);
        state.apply_batch(&db, &[], &[(victim, graph.as_ref())]);
        let scratch = FctState::build(&db, config());
        prop_assert_eq!(user_threshold_snapshot(&state, db.len()),
                        user_threshold_snapshot(&scratch, db.len()));
        // Scratch tracks a superset of trees, hence has at least as many
        // closedness witnesses: scratch-FCT ⊆ incremental-FCT.
        let inc_fct: Vec<_> = state.fct(db.len()).into_iter().map(|(k, _)| k.clone()).collect();
        for (key, _) in scratch.fct(db.len()) {
            prop_assert!(inc_fct.contains(key), "scratch FCT missing incrementally: {:?}", key);
        }
    }

    /// Lemma 3.4: a tree closed in D or in ΔD is closed in D ⊕ ΔD (with
    /// support above the tracking threshold).
    #[test]
    fn lemma_3_4_closure_union(
        base in proptest::collection::vec(connected_graph_strategy(6, 2), 3..7),
        delta in proptest::collection::vec(connected_graph_strategy(6, 2), 2..5),
    ) {
        let db = GraphDb::from_graphs(base.iter().chain(&delta).cloned());
        let ids_union: Vec<GraphId> = db.ids().collect();
        let (ids_base, ids_delta) = ids_union.split_at(base.len());
        // Mine everything at a permissive threshold so no tree is dropped
        // for frequency reasons — Lemma 3.4 is about closedness alone.
        let cfg = MiningConfig { sup_min: 1e-9, max_edges: 3 };
        let lat_base = mine_lattice(&db, ids_base, &cfg);
        let lat_delta = mine_lattice(&db, ids_delta, &cfg);
        let lat_union = mine_lattice(&db, &ids_union, &cfg);
        for (key, entry) in lat_base.iter().chain(lat_delta.iter()) {
            if entry.closed {
                let in_union = lat_union.get(key).expect("union tracks all trees");
                prop_assert!(
                    in_union.closed,
                    "closed tree became non-closed in the union: {:?}", key
                );
            }
        }
    }

    /// Supports are anti-monotone: a subtree's support contains its
    /// supertree's support.
    #[test]
    fn support_anti_monotonicity(
        graphs in proptest::collection::vec(connected_graph_strategy(6, 2), 3..7),
    ) {
        let db = GraphDb::from_graphs(graphs);
        let ids: Vec<GraphId> = db.ids().collect();
        let cfg = MiningConfig { sup_min: 0.2, max_edges: 3 };
        let lattice = mine_lattice(&db, &ids, &cfg);
        let entries: Vec<_> = lattice.iter().collect();
        for (_, small) in &entries {
            for (_, large) in &entries {
                if large.tree.edge_count() > small.tree.edge_count()
                    && midas_oracle::vf2::is_subgraph_of(&small.tree, &large.tree)
                {
                    prop_assert!(
                        large.support.is_subset(&small.support),
                        "anti-monotonicity violated"
                    );
                }
            }
        }
    }
}

/// Mixed batches across several rounds stay equal to scratch (regression
/// harness for the incremental path; deterministic, not proptest, so the
/// sequence is long).
#[test]
fn long_mixed_sequence_stays_exact() {
    let seed_graphs: Vec<LabeledGraph> = (0..6)
        .map(|i| midas_tests::path(&[i % 3, (i + 1) % 3, (i + 2) % 3]))
        .collect();
    let mut db = GraphDb::from_graphs(seed_graphs);
    let mut state = FctState::build(&db, config());
    for round in 0..6u32 {
        let newcomers: Vec<LabeledGraph> = (0..2)
            .map(|j| midas_tests::path(&[(round + j) % 4, (round + j + 1) % 4]))
            .collect();
        let victim = db.ids().nth((round as usize) % db.len());
        let mut update = BatchUpdate::insert_only(newcomers);
        let mut deleted_pairs = Vec::new();
        if let Some(v) = victim {
            update.delete.push(v);
            deleted_pairs.push((v, db.get(v).expect("live").clone()));
        }
        let (inserted, _) = db.apply(update);
        let deleted_refs: Vec<(GraphId, &LabeledGraph)> = deleted_pairs
            .iter()
            .map(|(id, g)| (*id, g.as_ref()))
            .collect();
        state.apply_batch(&db, &inserted, &deleted_refs);
        let scratch = FctState::build(&db, config());
        // Deletions are involved, so compare at the user threshold (the
        // paper's guarantee — see the deletion property test above).
        assert_eq!(
            user_threshold_snapshot(&state, db.len()),
            user_threshold_snapshot(&scratch, db.len()),
            "divergence at round {round}"
        );
    }
}
