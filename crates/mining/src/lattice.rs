//! The frequent-tree lattice: tracked trees, exact supports, closed flags.
//!
//! MIDAS needs, at all times, the set of **frequent closed trees** (FCT) of
//! the evolving database (§3.3). We track every tree whose support clears
//! the *relaxed* threshold `sup_min / 2` (Lemma 4.5) together with its exact
//! supporting-graph set. The closed flag is then *derived*:
//!
//! > a tree `f` is closed iff no proper supertree `f'` has `sup(f') =
//! > sup(f)` (§3.3).
//!
//! Because support is anti-monotone, `f' ⊃ f` with equal support implies the
//! two support **sets** are equal — so closedness only needs a supertree
//! check inside buckets of trees with identical support sets, which is cheap
//! and exactly realizes the closure theory of Bifet & Gavaldà \[11\] (see
//! DESIGN.md §5).

use crate::canonical::TreeKey;
use crate::edges::min_count;
use midas_graph::{Csr, GraphId, LabeledGraph, MatchPlan};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One tracked tree: structure, exact support, derived closed flag.
#[derive(Debug, Clone)]
pub struct TreeEntry {
    /// The tree itself.
    pub tree: LabeledGraph,
    /// `tree` compiled once, when mining first counted its support; every
    /// later containment test (support extension, closedness) reuses it.
    pub(crate) plan: Arc<MatchPlan>,
    /// Ids of database graphs containing the tree.
    pub support: BTreeSet<GraphId>,
    /// Whether the tree is closed (no proper supertree with equal support).
    /// Maintained by [`TreeLattice::recompute_closed_flags`].
    pub closed: bool,
}

impl TreeEntry {
    /// An entry for `tree` whose exact support is `support`, its plan
    /// compiled here. The closed flag is `false` until
    /// [`TreeLattice::recompute_closed_flags`] derives it.
    pub fn new(tree: LabeledGraph, support: BTreeSet<GraphId>) -> Self {
        TreeEntry {
            plan: Arc::new(MatchPlan::compile(&tree)),
            tree,
            support,
            closed: false,
        }
    }

    /// The tree's compiled plan, shared with every reader that searches
    /// for the tree (the FCT-Index counts its TG row with it).
    pub fn plan(&self) -> &Arc<MatchPlan> {
        &self.plan
    }

    /// Relative support w.r.t. a database of `db_len` graphs.
    pub fn relative_support(&self, db_len: usize) -> f64 {
        if db_len == 0 {
            0.0
        } else {
            self.support.len() as f64 / db_len as f64
        }
    }
}

/// The tracked tree lattice of a database.
#[derive(Debug, Clone, Default)]
pub struct TreeLattice {
    trees: BTreeMap<TreeKey, TreeEntry>,
}

impl TreeLattice {
    /// Creates an empty lattice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether no trees are tracked.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Looks up a tracked tree.
    pub fn get(&self, key: &TreeKey) -> Option<&TreeEntry> {
        self.trees.get(key)
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &TreeKey) -> bool {
        self.trees.contains_key(key)
    }

    /// Inserts or replaces an entry. The closed flag is the caller's claim
    /// until [`Self::recompute_closed_flags`] runs.
    pub fn insert(&mut self, key: TreeKey, entry: TreeEntry) {
        self.trees.insert(key, entry);
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &TreeKey) -> Option<TreeEntry> {
        self.trees.remove(key)
    }

    /// Iterates all tracked `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&TreeKey, &TreeEntry)> {
        self.trees.iter()
    }

    /// Mutable iteration (used by incremental support maintenance).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&TreeKey, &mut TreeEntry)> {
        self.trees.iter_mut()
    }

    /// Drops every tree whose absolute support falls below
    /// `min_count(threshold, db_len)`, the rounding every support threshold
    /// of this crate uses, and recomputes closed flags.
    pub fn prune_below(&mut self, threshold: f64, db_len: usize) {
        let need = min_count(threshold, db_len);
        self.trees.retain(|_, e| e.support.len() >= need);
        self.recompute_closed_flags();
    }

    /// The frequent trees at `sup_min` (the FS feature set of CATAPULT).
    pub fn frequent(&self, sup_min: f64, db_len: usize) -> Vec<(&TreeKey, &TreeEntry)> {
        self.trees
            .iter()
            .filter(|(_, e)| e.relative_support(db_len) >= sup_min)
            .collect()
    }

    /// The **frequent closed trees** at `sup_min` — the FCT feature set of
    /// CATAPULT++ / MIDAS.
    pub fn frequent_closed(&self, sup_min: f64, db_len: usize) -> Vec<(&TreeKey, &TreeEntry)> {
        self.trees
            .iter()
            .filter(|(_, e)| e.closed && e.relative_support(db_len) >= sup_min)
            .collect()
    }

    /// Recomputes every closed flag from the exact support sets.
    ///
    /// Trees are bucketed by support set; within a bucket, a tree is
    /// non-closed iff some strictly larger tree in the same bucket is a
    /// supertree of it. (Equal support across a proper subtree relation
    /// forces equal support *sets* by anti-monotonicity.) Each member of a
    /// multi-tree bucket gets one CSR view, so every containment test is a
    /// search of its stored plan.
    pub fn recompute_closed_flags(&mut self) {
        let mut buckets: HashMap<Vec<GraphId>, Vec<TreeKey>> = HashMap::new();
        for (key, entry) in &self.trees {
            let sig: Vec<GraphId> = entry.support.iter().copied().collect();
            buckets.entry(sig).or_default().push(key.clone());
        }
        for keys in buckets.values() {
            if keys.len() == 1 {
                let entry = self.trees.get_mut(&keys[0]).expect("key present");
                entry.closed = true;
                continue;
            }
            // Sort bucket members by size descending; check containment.
            let mut members: Vec<(usize, TreeKey)> = keys
                .iter()
                .map(|k| (self.trees[k].tree.edge_count(), k.clone()))
                .collect();
            members.sort_by_key(|m| std::cmp::Reverse(m.0));
            let compiled: Vec<(Arc<MatchPlan>, Csr)> = members
                .iter()
                .map(|(_, key)| {
                    let entry = &self.trees[key];
                    (Arc::clone(&entry.plan), Csr::from_graph(&entry.tree))
                })
                .collect();
            for (i, (size_i, key_i)) in members.iter().enumerate() {
                let mut closed = true;
                for (j, (size_j, _)) in members.iter().enumerate().take(i) {
                    if size_j <= size_i {
                        break; // sorted descending: no larger tree remains
                    }
                    if compiled[i].0.is_subgraph_of(&compiled[j].1) {
                        closed = false;
                        break;
                    }
                }
                self.trees.get_mut(key_i).expect("present").closed = closed;
            }
        }
    }

    /// Removes `ids` from every support set and drops empty-support trees:
    /// the `Δ⁻` half of maintenance. Closed flags are stale until the
    /// caller recomputes them (`FctState::apply_batch` prunes, and so
    /// recomputes, last).
    pub(crate) fn remove_supports(&mut self, ids: &BTreeSet<GraphId>) {
        for entry in self.trees.values_mut() {
            for id in ids {
                entry.support.remove(id);
            }
        }
        self.trees.retain(|_, e| !e.support.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::tree_key;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn ids(v: &[u64]) -> BTreeSet<GraphId> {
        v.iter().map(|&i| GraphId(i)).collect()
    }

    fn entry(tree: LabeledGraph, support: &[u64]) -> TreeEntry {
        TreeEntry::new(tree, ids(support))
    }

    #[test]
    fn closed_flags_within_support_buckets() {
        let mut lat = TreeLattice::new();
        let small = path(&[0, 1]); // C-O
        let big = path(&[0, 1, 2]); // C-O-N, contains C-O
        lat.insert(tree_key(&small), entry(small.clone(), &[1, 2, 3]));
        lat.insert(tree_key(&big), entry(big.clone(), &[1, 2, 3]));
        lat.recompute_closed_flags();
        assert!(
            !lat.get(&tree_key(&small)).unwrap().closed,
            "subsumed by big"
        );
        assert!(lat.get(&tree_key(&big)).unwrap().closed);
    }

    #[test]
    fn different_supports_are_both_closed() {
        let mut lat = TreeLattice::new();
        let small = path(&[0, 1]);
        let big = path(&[0, 1, 2]);
        lat.insert(tree_key(&small), entry(small.clone(), &[1, 2, 3, 4]));
        lat.insert(tree_key(&big), entry(big.clone(), &[1, 2, 3]));
        lat.recompute_closed_flags();
        assert!(lat.get(&tree_key(&small)).unwrap().closed);
        assert!(lat.get(&tree_key(&big)).unwrap().closed);
    }

    #[test]
    fn equal_support_without_containment_stays_closed() {
        let mut lat = TreeLattice::new();
        let a = path(&[0, 1]); // C-O
        let b = path(&[0, 2]); // C-N — same size, not comparable
        lat.insert(tree_key(&a), entry(a.clone(), &[1, 2]));
        lat.insert(tree_key(&b), entry(b.clone(), &[1, 2]));
        lat.recompute_closed_flags();
        assert!(lat.get(&tree_key(&a)).unwrap().closed);
        assert!(lat.get(&tree_key(&b)).unwrap().closed);
    }

    #[test]
    fn frequent_and_frequent_closed_filters() {
        let mut lat = TreeLattice::new();
        let a = path(&[0, 1]);
        let b = path(&[0, 1, 2]);
        let c = path(&[3, 3]);
        lat.insert(tree_key(&a), entry(a.clone(), &[1, 2, 3]));
        lat.insert(tree_key(&b), entry(b.clone(), &[1, 2, 3]));
        lat.insert(tree_key(&c), entry(c.clone(), &[4]));
        lat.recompute_closed_flags();
        // DB of 6 graphs, sup_min = 0.5 -> need support >= 3.
        let freq = lat.frequent(0.5, 6);
        assert_eq!(freq.len(), 2);
        let fct = lat.frequent_closed(0.5, 6);
        assert_eq!(fct.len(), 1);
        assert_eq!(fct[0].1.tree.edge_count(), 2);
    }

    #[test]
    fn remove_graphs_updates_supports_and_flags() {
        let mut lat = TreeLattice::new();
        let small = path(&[0, 1]);
        let big = path(&[0, 1, 2]);
        lat.insert(tree_key(&small), entry(small.clone(), &[1, 2, 3, 4]));
        lat.insert(tree_key(&big), entry(big.clone(), &[1, 2, 3]));
        lat.recompute_closed_flags();
        assert!(lat.get(&tree_key(&small)).unwrap().closed);
        // Deleting graph 4 makes supports equal -> small becomes non-closed
        // once the flags are recomputed.
        lat.remove_supports(&ids(&[4]));
        assert_eq!(lat.get(&tree_key(&small)).unwrap().support, ids(&[1, 2, 3]));
        lat.recompute_closed_flags();
        assert!(!lat.get(&tree_key(&small)).unwrap().closed);
        assert!(lat.get(&tree_key(&big)).unwrap().closed);
        // Deleting everything empties the lattice.
        lat.remove_supports(&ids(&[1, 2, 3]));
        assert!(lat.is_empty());
    }

    #[test]
    fn prune_below_threshold() {
        let mut lat = TreeLattice::new();
        let a = path(&[0, 1]);
        let b = path(&[0, 2]);
        lat.insert(tree_key(&a), entry(a.clone(), &[1, 2, 3]));
        lat.insert(tree_key(&b), entry(b.clone(), &[1]));
        lat.prune_below(0.25, 8); // need >= 2
        assert_eq!(lat.len(), 1);
        assert!(lat.contains(&tree_key(&a)));
    }

    #[test]
    fn relative_support() {
        let e = entry(path(&[0, 1]), &[1, 2]);
        assert!((e.relative_support(4) - 0.5).abs() < 1e-12);
        assert_eq!(e.relative_support(0), 0.0);
    }
}
