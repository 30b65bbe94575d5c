//! Incremental FCT maintenance (§4.2) — the CTMiningAdd / CTMiningDelete
//! analogues over the exact-support [`TreeLattice`].
//!
//! [`FctState`] owns everything MIDAS tracks about frequent structures:
//! the tree lattice at the **relaxed** threshold `sup_min / 2` (Lemma 4.5)
//! and the per-edge-label catalog. A batch update is processed as:
//!
//! 1. `Δ⁻`: remove deleted ids from every support set (Prop. 4.1 — a CT's
//!    identity does not change, only counts) and from the edge catalog.
//!    Closed flags are left stale: step 3 derives them once.
//! 2. `Δ⁺`: add the inserted graphs to the edge catalog, then
//!    * 2a: extend tracked supports by testing only the inserted graphs;
//!    * mine the inserted graphs alone at the relaxed threshold (the
//!      `F_{Δ⁺}` of §4.2);
//!    * 2b: for trees newly seen, complete their support against the
//!      pre-existing graphs (Corollary 4.3's case 2/3).
//!
//!    Both the mining and 2b are bounded by the catalog. A tree's *bound*
//!    is the set of graphs that have, for each of its edge labels, at
//!    least as many edges with that label as the tree; it contains the
//!    tree's support. Let `gneed` be step 3's pruning count over the
//!    post-batch database. The mining drops a tree whose bound is below
//!    `gneed`, with all its extensions (their bounds are subsets), and
//!    tests containment only inside the bound; 2b scans only the bound's
//!    pre-existing graphs.
//! 3. Prune below the relaxed threshold (`gneed`) and re-derive closed
//!    flags. Every tree the bound cut in step 2 has support below `gneed`,
//!    so it would be pruned here: the cut leaves the result unchanged.
//!
//! If a deletion batch removes more than half the database, the relaxed
//! threshold can no longer guarantee completeness (the premise behind
//! Lemma 4.5), so the state falls back to mining from scratch.

use crate::canonical::TreeKey;
use crate::edges::{min_count, Bounds, EdgeCatalog};
use crate::lattice::{TreeEntry, TreeLattice};
use crate::treenat::{catalog_of, mine_lattice, mine_supports, tree_in_graph, MiningConfig};
use midas_graph::{GraphDb, GraphId, LabeledGraph};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Frequent-structure state: tree lattice + edge catalog, kept in sync with
/// the database by [`FctState::apply_batch`].
#[derive(Debug, Clone)]
pub struct FctState {
    /// The tracked tree lattice (relaxed threshold `sup_min / 2`).
    pub lattice: TreeLattice,
    /// Per-edge-label supports and occurrence counts.
    pub edges: EdgeCatalog,
    config: MiningConfig,
}

impl FctState {
    /// The user-level mining configuration (`sup_min`, `max_edges`).
    pub fn config(&self) -> MiningConfig {
        self.config
    }

    /// The relaxed tracking threshold `sup_min / 2`.
    pub fn relaxed_threshold(&self) -> f64 {
        self.config.sup_min / 2.0
    }

    /// Builds the state from scratch for `db`.
    pub fn build(db: &GraphDb, config: MiningConfig) -> Self {
        let ids: Vec<GraphId> = db.ids().collect();
        let relaxed = MiningConfig {
            sup_min: config.sup_min / 2.0,
            ..config
        };
        FctState {
            lattice: mine_lattice(db, &ids, &relaxed),
            edges: EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref()))),
            config,
        }
    }

    /// The current FCT set at the user threshold: `(key, entry)` for every
    /// frequent *closed* tree.
    pub fn fct(&self, db_len: usize) -> Vec<(&TreeKey, &TreeEntry)> {
        self.lattice.frequent_closed(self.config.sup_min, db_len)
    }

    /// The FCT-Index rows (Def. 5.1): the FCTs with at least two edges. A
    /// one-edge tree's counts are its label's [`EdgeCatalog`] occurrences
    /// (doubled when both end labels are equal), so the dominance filter
    /// reads those from the catalog instead of a row of its own.
    pub fn index_trees(&self, db_len: usize) -> Vec<(&TreeKey, &TreeEntry)> {
        let mut trees = self.fct(db_len);
        trees.retain(|(_, entry)| entry.tree.edge_count() >= 2);
        trees
    }

    /// The frequent-subtree set at the user threshold (CATAPULT's FS
    /// features).
    pub fn frequent_trees(&self, db_len: usize) -> Vec<(&TreeKey, &TreeEntry)> {
        self.lattice.frequent(self.config.sup_min, db_len)
    }

    /// Applies a batch update.
    ///
    /// * `db_after` — the database **after** the batch was applied.
    /// * `inserted` — ids assigned to `Δ⁺` (must resolve in `db_after`).
    /// * `deleted` — the `Δ⁻` graphs, with their former ids.
    pub fn apply_batch(
        &mut self,
        db_after: &GraphDb,
        inserted: &[GraphId],
        deleted: &[(GraphId, &LabeledGraph)],
    ) {
        let old_len = db_after.len() + deleted.len() - inserted.len();
        if !deleted.is_empty() && deleted.len() * 2 > old_len {
            // Lemma 4.5's premise is void: rebuild.
            midas_obs::obs_debug!(
                "mining::incremental",
                "deletion batch ({} of {old_len}) voids the incremental premise: full FCT rebuild",
                deleted.len()
            );
            midas_obs::counter_add!("fct.rebuilds", 1);
            *self = FctState::build(db_after, self.config);
            return;
        }

        // Step 1: deletions (CTMiningDelete analogue).
        for &(id, g) in deleted {
            self.edges.remove_graph(id, g);
        }
        let deleted_ids: BTreeSet<GraphId> = deleted.iter().map(|&(id, _)| id).collect();
        if !deleted_ids.is_empty() {
            self.lattice.remove_supports(&deleted_ids);
        }

        // Step 2: insertions (CTMiningAdd analogue). Every containment
        // test matches a tree's stored plan against a graph's CSR twin.
        for &id in inserted {
            let g = db_after
                .get(id)
                .expect("inserted id must resolve in db_after");
            self.edges.add_graph(id, g);
        }
        if !inserted.is_empty() {
            // 2a: extend supports of already-tracked trees against Δ⁺ only.
            let extend_span = midas_obs::span!("batch.fct.extend");
            for (key, entry) in self.lattice.iter_mut() {
                for &id in inserted {
                    if tree_in_graph(&entry.plan, key, db_after, id) {
                        entry.support.insert(id);
                    }
                }
            }
            drop(extend_span);
            // 2b: mine F_{Δ⁺} at the relaxed threshold, cut by the catalog
            // bound at step 3's pruning count, and merge new trees,
            // completing their supports over the pre-existing graphs of
            // their bound.
            let gneed = self.gneed(db_after.len());
            let mut bounds = Bounds::new(&self.edges, db_after.ids().collect());
            let delta_lattice = self.mine_delta(db_after, inserted, &mut bounds);
            let _scan_span = midas_obs::span!("batch.fct.support_scan");
            let inserted_set: BTreeSet<GraphId> = inserted.iter().copied().collect();
            for (key, delta_entry) in delta_lattice.iter() {
                if self.lattice.contains(key) {
                    continue; // support already extended in 2a
                }
                let bound = bounds.of(&delta_entry.tree);
                debug_assert!(bound.len() >= gneed, "the delta mining cuts below gneed");
                let mut support = delta_entry.support.clone();
                for id in bounds.ids(&bound) {
                    if !inserted_set.contains(&id)
                        && tree_in_graph(&delta_entry.plan, key, db_after, id)
                    {
                        support.insert(id);
                    }
                }
                self.lattice.insert(
                    key.clone(),
                    TreeEntry {
                        tree: delta_entry.tree.clone(),
                        plan: Arc::clone(&delta_entry.plan),
                        support,
                        closed: false,
                    },
                );
            }
        }

        // Step 3: prune to the relaxed threshold and re-derive closedness.
        let _prune_span = midas_obs::span!("batch.fct.prune");
        self.lattice
            .prune_below(self.relaxed_threshold(), db_after.len());
    }

    /// The absolute support a tree needs to stay tracked in a database of
    /// `db_len` graphs: step 3's pruning count.
    fn gneed(&self, db_len: usize) -> usize {
        min_count(self.relaxed_threshold(), db_len)
    }

    /// `F_{Δ⁺}`: the trees frequent in the inserted graphs at the relaxed
    /// threshold, with their supports within `inserted`, minus every tree
    /// whose catalog bound over `db_after` (`bounds`, on the catalog already
    /// updated with the batch) is below step 3's pruning count. Closed flags
    /// are left unset.
    fn mine_delta(
        &self,
        db_after: &GraphDb,
        inserted: &[GraphId],
        bounds: &mut Bounds<'_>,
    ) -> TreeLattice {
        let _span = midas_obs::span!("batch.fct.delta_mine");
        let relaxed = MiningConfig {
            sup_min: self.relaxed_threshold(),
            ..self.config
        };
        let local = catalog_of(db_after, inserted);
        let floor = self.gneed(db_after.len());
        mine_supports(db_after, inserted, &relaxed, &local, bounds, floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::tree_key;
    use midas_graph::{BatchUpdate, GraphBuilder};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn config() -> MiningConfig {
        MiningConfig {
            sup_min: 0.5,
            max_edges: 3,
        }
    }

    /// Asserts that `state` equals a from-scratch build on `db`, up to
    /// support sets and closed flags.
    fn assert_matches_scratch(state: &FctState, db: &GraphDb) {
        let scratch = FctState::build(db, state.config());
        let got: Vec<_> = state
            .lattice
            .iter()
            .map(|(k, e)| (k.clone(), e.support.clone(), e.closed))
            .collect();
        let want: Vec<_> = scratch
            .lattice
            .iter()
            .map(|(k, e)| (k.clone(), e.support.clone(), e.closed))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn index_trees_are_the_fcts_of_two_or_more_edges() {
        // C-O (support 3) and C-O-N (support 2) are both closed.
        let db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[0, 1, 2]), path(&[0, 1])]);
        let state = FctState::build(&db, config());
        let edges = |trees: Vec<(&TreeKey, &TreeEntry)>| -> Vec<usize> {
            trees.iter().map(|(_, e)| e.tree.edge_count()).collect()
        };
        assert_eq!(edges(state.fct(db.len())), [1, 2]);
        let index_trees = state.index_trees(db.len());
        assert_eq!(index_trees[0].0, &tree_key(&path(&[0, 1, 2])));
        assert_eq!(edges(index_trees), [2]);
    }

    #[test]
    fn insertions_match_scratch_mining() {
        let mut db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[0, 1]), path(&[0, 1, 2, 3])]);
        let mut state = FctState::build(&db, config());
        let (inserted, _) = db.apply(BatchUpdate::insert_only(vec![
            path(&[0, 1, 2]),
            path(&[2, 3]),
        ]));
        state.apply_batch(&db, &inserted, &[]);
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn deletions_match_scratch_mining() {
        let mut db = GraphDb::from_graphs([
            path(&[0, 1, 2]),
            path(&[0, 1]),
            path(&[0, 1, 2, 3]),
            path(&[0, 1, 2]),
        ]);
        let mut state = FctState::build(&db, config());
        let victim = db.ids().next().unwrap();
        let victim_graph = db.get(victim).unwrap().clone();
        db.remove(victim);
        state.apply_batch(&db, &[], &[(victim, victim_graph.as_ref())]);
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn mixed_batch_matches_scratch() {
        let mut db = GraphDb::from_graphs([
            path(&[0, 1, 2]),
            path(&[0, 1]),
            path(&[0, 1, 2, 3]),
            path(&[3, 3]),
        ]);
        let mut state = FctState::build(&db, config());
        let victim = db.ids().nth(1).unwrap();
        let victim_graph = db.get(victim).unwrap().clone();
        let update = BatchUpdate {
            insert: vec![path(&[0, 1, 0]), path(&[3, 3, 3])],
            delete: vec![victim],
        };
        let (inserted, _) = db.apply(update);
        state.apply_batch(&db, &inserted, &[(victim, victim_graph.as_ref())]);
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn new_tree_from_delta_gets_full_support() {
        // S-S is below even the relaxed threshold initially (1 of 8, with
        // ceil(0.25 * 8) = 2 required), then a batch adds two more copies:
        // it must surface with support counted over the *whole* database.
        let mut db = GraphDb::from_graphs([
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[3, 3]),
        ]);
        let mut state = FctState::build(&db, config());
        let ss = tree_key(&path(&[3, 3]));
        assert!(
            state.lattice.get(&ss).is_none(),
            "S-S below relaxed threshold initially"
        );
        let (inserted, _) = db.apply(BatchUpdate::insert_only(vec![
            path(&[3, 3]),
            path(&[3, 3, 3]),
        ]));
        state.apply_batch(&db, &inserted, &[]);
        let entry = state.lattice.get(&ss).expect("S-S now tracked");
        assert_eq!(entry.support.len(), 3, "old S-S graph must be counted");
        assert_matches_scratch(&state, &db);
    }

    /// `copies` clones of each `(labels, count)` path, as one database.
    fn db_of(paths: &[(&[u32], usize)]) -> GraphDb {
        GraphDb::from_graphs(
            paths
                .iter()
                .flat_map(|&(labels, count)| std::iter::repeat_n(path(labels), count)),
        )
    }

    /// Inserts `newcomer` into `db`, applies the batch to `state`, and
    /// returns the delta lattice the batch mined.
    fn insert_one(state: &mut FctState, db: &mut GraphDb, newcomer: LabeledGraph) -> TreeLattice {
        let (inserted, _) = db.apply(BatchUpdate::insert_only(vec![newcomer]));
        state.apply_batch(db, &inserted, &[]);
        let mut bounds = Bounds::new(&state.edges, db.ids().collect());
        state.mine_delta(db, &inserted, &mut bounds)
    }

    /// The size of `tree`'s catalog bound over `db`.
    fn bound_len(state: &FctState, db: &GraphDb, tree: &LabeledGraph) -> usize {
        Bounds::new(&state.edges, db.ids().collect()).of(tree).len()
    }

    #[test]
    fn a_globally_rare_label_never_enters_the_lattice() {
        // 8 graphs after the batch: gneed = ceil(0.25 * 8) = 2. C-S occurs
        // only in the newcomer (support 1 = gneed - 1), so neither the edge
        // nor any tree holding it is mined, although Δ⁺ alone (one graph)
        // makes every one of its subtrees frequent.
        let mut db = db_of(&[(&[0, 1], 7)]);
        let mut state = FctState::build(&db, config());
        let delta = insert_one(&mut state, &mut db, path(&[1, 0, 3]));
        assert!(delta.contains(&tree_key(&path(&[0, 1]))));
        for rare in [path(&[0, 3]), path(&[1, 0, 3])] {
            assert!(!delta.contains(&tree_key(&rare)));
            assert!(!state.lattice.contains(&tree_key(&rare)));
        }
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn label_multiplicity_cuts_a_tree_of_frequent_labels() {
        // 9 graphs after the batch: gneed = ceil(0.25 * 9) = 3. C-O is in
        // all of them, but only 2 (= gneed - 1) hold two C-O edges, so
        // O-C-O is cut although each of its labels is frequent.
        let mut db = db_of(&[(&[0, 1], 7), (&[1, 0, 1], 1)]);
        let mut state = FctState::build(&db, config());
        let delta = insert_one(&mut state, &mut db, path(&[1, 0, 1]));
        let oco = tree_key(&path(&[1, 0, 1]));
        assert_eq!(bound_len(&state, &db, &path(&[1, 0, 1])), 2);
        assert!(delta.contains(&tree_key(&path(&[0, 1]))));
        assert!(!delta.contains(&oco));
        assert!(!state.lattice.contains(&oco));
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn a_tree_whose_bound_equals_gneed_is_kept() {
        // 8 graphs after the batch: gneed = 2, and exactly 2 graphs hold two
        // N-N edges. N-N-N was untracked (1 of 7, below ceil(0.25 * 7) =
        // 2); the batch must surface it with the old graph's support found
        // inside its bound.
        let mut db = db_of(&[(&[0, 1], 6), (&[2, 2, 2], 1)]);
        let mut state = FctState::build(&db, config());
        let nnn = tree_key(&path(&[2, 2, 2]));
        assert!(!state.lattice.contains(&nnn));
        let delta = insert_one(&mut state, &mut db, path(&[2, 2, 2]));
        assert_eq!(bound_len(&state, &db, &path(&[2, 2, 2])), 2);
        assert!(delta.contains(&nnn));
        assert_eq!(state.lattice.get(&nnn).expect("kept").support.len(), 2);
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn lemma_3_4_closed_stays_closed() {
        // A tree closed in D stays closed in D ⊕ ΔD when ΔD does not add a
        // same-support supertree.
        let mut db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[0, 1, 2])]);
        let mut state = FctState::build(&db, config());
        let con = tree_key(&path(&[0, 1, 2]));
        assert!(state.lattice.get(&con).unwrap().closed);
        let (inserted, _) = db.apply(BatchUpdate::insert_only(vec![path(&[0, 1])]));
        state.apply_batch(&db, &inserted, &[]);
        assert!(state.lattice.get(&con).unwrap().closed);
        // And C-O became closed too: its support now differs from C-O-N's.
        let co = tree_key(&path(&[0, 1]));
        assert!(state.lattice.get(&co).unwrap().closed);
    }

    #[test]
    fn huge_deletion_falls_back_to_rebuild() {
        let mut db =
            GraphDb::from_graphs([path(&[0, 1]), path(&[0, 1]), path(&[2, 3]), path(&[2, 3])]);
        let mut state = FctState::build(&db, config());
        let victims: Vec<_> = db.ids().take(3).collect();
        let graphs: Vec<_> = victims
            .iter()
            .map(|&id| (id, db.get(id).unwrap().clone()))
            .collect();
        for &id in &victims {
            db.remove(id);
        }
        let deleted: Vec<(GraphId, &LabeledGraph)> =
            graphs.iter().map(|(id, g)| (*id, g.as_ref())).collect();
        state.apply_batch(&db, &[], &deleted);
        assert_matches_scratch(&state, &db);
    }

    #[test]
    fn fct_filter_uses_user_threshold() {
        let db = GraphDb::from_graphs([path(&[0, 1]), path(&[0, 1]), path(&[0, 1]), path(&[2, 3])]);
        let state = FctState::build(&db, config());
        // C-O: support 3/4 >= 0.5 -> FCT. N-S: 1/4 >= 0.25 (tracked) but
        // below 0.5 (not FCT).
        let fct = state.fct(db.len());
        assert_eq!(fct.len(), 1);
        assert!(state.lattice.contains(&tree_key(&path(&[2, 3]))));
    }

    #[test]
    fn repeated_batches_stay_consistent() {
        let mut db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[0, 1])]);
        let mut state = FctState::build(&db, config());
        for round in 0..4u32 {
            let newcomer = path(&[round % 3, (round + 1) % 3]);
            let victim = db.ids().next().unwrap();
            let victim_graph = db.get(victim).unwrap().clone();
            let (inserted, _) = db.apply(BatchUpdate {
                insert: vec![newcomer, path(&[0, 1, 2])],
                delete: vec![victim],
            });
            state.apply_batch(&db, &inserted, &[(victim, victim_graph.as_ref())]);
            assert_matches_scratch(&state, &db);
        }
    }
}
