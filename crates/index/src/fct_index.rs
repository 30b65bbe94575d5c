//! The FCT-Index (Def. 5.1): trie + TG-matrix, with the maintenance rules
//! of §5.1. The TP-matrix side is computed on demand by
//! [`FctIndex::pattern_counts`].
//!
//! The TG matrix is stored once, row by row: each feature owns its
//! nonzero `(GraphId, count)` cells in ascending id order, the order the
//! dominance filter merges in. Rows and columns are filled only by the
//! maintenance rules: new rows ([`FctIndex::refresh_features`], rules
//! 1–2) and new columns ([`FctIndex::add_graphs`], rule 3) share one
//! graph-major counting pass that runs each feature's own plan, and an
//! index built from nothing is the empty index after one refresh. The
//! mutators return plain values and are not transactional: a task panic
//! unwinds out of them mid-way, and the framework's phase backstop then
//! marks the index stale and rebuilds it from empty on the next batch.

use crate::trie::Trie;
use crate::EMBED_CAP;
use midas_graph::{exec, Csr, GraphId, LabeledGraph, MatchPlan};
use midas_mining::TreeKey;
use std::collections::BTreeMap;

/// Dense identifier of a feature (an FCT of two or more edges) in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FeatureId(pub u32);

/// One indexed feature: its canonical key, its tree with the match plan
/// compiled once when the row is created, and its TG row. Later batches
/// count the row's new cells and [`FctIndex::pattern_counts`] runs that
/// plan, so it is never recompiled per batch.
#[derive(Debug, Clone)]
pub struct Feature {
    /// Canonical string key (also the trie path).
    pub key: TreeKey,
    tree: LabeledGraph,
    plan: MatchPlan,
    row: Vec<(GraphId, u32)>,
}

impl Feature {
    /// The feature tree.
    pub fn tree(&self) -> &LabeledGraph {
        &self.tree
    }

    /// The feature's TG row: its nonzero embedding counts, saturating at
    /// [`EMBED_CAP`], in ascending [`GraphId`] order.
    pub fn row(&self) -> &[(GraphId, u32)] {
        &self.row
    }

    /// The feature's count in `target` (data graph `id`), saturating at
    /// [`EMBED_CAP`]. The search runs under the `(key digest, graph id)`
    /// exemplar context, so its `plan.search_ns` tail exemplars are
    /// attributed.
    fn count_in(&self, id: GraphId, target: &Csr) -> u32 {
        let _ctx = midas_obs::enabled()
            .then(|| midas_obs::exemplar::with_context(self.key.digest(), id.0));
        self.plan.count_embeddings(target, EMBED_CAP) as u32
    }
}

/// The FCT-Index: canonical-string trie with the embedding-count matrix
/// over data graphs (TG), one row per feature.
#[derive(Debug, Clone, Default)]
pub struct FctIndex {
    trie: Trie,
    features: BTreeMap<FeatureId, Feature>,
    next_feature: u32,
}

impl FctIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index over `features` (a repeated key gets one row) and `graphs`: the empty index after one
    /// [`Self::refresh_features`], the rules' own row path.
    pub fn build(
        features: impl IntoIterator<Item = (TreeKey, LabeledGraph)>,
        graphs: &[(GraphId, &Csr)],
    ) -> Self {
        let features: Vec<(TreeKey, LabeledGraph)> = features.into_iter().collect();
        let target: Vec<(TreeKey, &LabeledGraph)> =
            features.iter().map(|(k, t)| (k.clone(), t)).collect();
        let mut index = Self::new();
        index.refresh_features(&target, graphs);
        index
    }

    /// Registers an empty row for a key the trie does not hold yet,
    /// compiling the tree's plan.
    fn push_feature(&mut self, key: TreeKey, tree: &LabeledGraph) -> FeatureId {
        let id = FeatureId(self.next_feature);
        self.next_feature += 1;
        self.trie.insert(key.tokens(), id);
        let feature = Feature {
            key,
            tree: tree.clone(),
            plan: MatchPlan::compile(tree),
            row: Vec::new(),
        };
        self.features.insert(id, feature);
        id
    }

    /// Counts the `rows` features in `graphs`, one task per graph, and
    /// adds the nonzero cells to the rows, which stay in ascending id
    /// order. The cells must be empty, as those of new rows and of `Δ⁺`'s
    /// fresh columns are. No row changes until every graph is counted.
    fn count_cells(&mut self, rows: &[FeatureId], graphs: &[(GraphId, &Csr)]) {
        if rows.is_empty() || graphs.is_empty() {
            return;
        }
        let features: Vec<&Feature> = rows.iter().map(|id| &self.features[id]).collect();
        let grid = exec::map_tasks(graphs, |&(gid, g)| {
            features
                .iter()
                .map(|f| f.count_in(gid, g))
                .collect::<Vec<u32>>()
        });
        for (i, fid) in rows.iter().enumerate() {
            let row = &mut self.features.get_mut(fid).expect("counted row").row;
            let fresh = graphs
                .iter()
                .zip(&grid)
                .map(|(&(gid, _), counts)| (gid, counts[i]));
            row.extend(fresh.filter(|&(_, count)| count > 0));
            // Two sorted runs when `Δ⁺`'s ids follow the row's, as fresh
            // ids do: the stable sort merges them in one pass.
            row.sort_by_key(|&(gid, _)| gid);
        }
    }

    /// Number of features (rows).
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// The trie (for size statistics and direct lookups).
    pub fn trie(&self) -> &Trie {
        &self.trie
    }

    /// The TG row of `id` (empty for an unknown feature): nonzero counts
    /// in ascending [`GraphId`] order.
    pub fn row(&self, id: FeatureId) -> &[(GraphId, u32)] {
        self.features.get(&id).map_or(&[], |f| &f.row)
    }

    /// The TG cell `(feature, graph)` (zero when absent).
    pub fn count(&self, feature: FeatureId, graph: GraphId) -> u32 {
        let row = self.row(feature);
        row.binary_search_by_key(&graph, |&(gid, _)| gid)
            .map_or(0, |i| row[i].1)
    }

    /// Every nonzero TG cell as `(feature, graph, count)`, row-major.
    pub fn cells(&self) -> impl Iterator<Item = (FeatureId, GraphId, u32)> + '_ {
        self.features
            .iter()
            .flat_map(|(&fid, f)| f.row.iter().map(move |&(gid, count)| (fid, gid, count)))
    }

    /// Iterates the features in id order.
    pub fn features(&self) -> impl Iterator<Item = (FeatureId, &Feature)> {
        self.features.iter().map(|(&id, f)| (id, f))
    }

    /// Looks up a feature by canonical key.
    pub fn feature_by_key(&self, key: &TreeKey) -> Option<FeatureId> {
        self.trie.lookup(key.tokens())
    }

    /// Removes a feature row (maintenance rule 2).
    pub fn remove_feature(&mut self, key: &TreeKey) -> Option<FeatureId> {
        let id = self.trie.remove(key.tokens())?;
        self.features.remove(&id);
        Some(id)
    }

    /// Removes a data-graph column (maintenance rule 4): the id leaves
    /// every row.
    pub fn remove_graph(&mut self, id: GraphId) {
        for feature in self.features.values_mut() {
            if let Ok(i) = feature.row.binary_search_by_key(&id, |&(gid, _)| gid) {
                feature.row.remove(i);
            }
        }
    }

    /// The embedding count of every feature in `pattern`, saturating at
    /// [`EMBED_CAP`]: non-zero entries only, in feature-id order. This is
    /// the pattern's TP-matrix column of Def. 5.1, computed on demand, and
    /// the FCT half of its [`crate::scov::PatternProfile`]. The pattern's
    /// CSR is built once and each feature's plan runs over it.
    pub fn pattern_counts(&self, pattern: &LabeledGraph) -> Vec<(FeatureId, u32)> {
        let target = Csr::from_graph(pattern);
        self.features
            .iter()
            .filter_map(|(&fid, feature)| {
                let count = feature.plan.count_embeddings(&target, EMBED_CAP) as u32;
                (count > 0).then_some((fid, count))
            })
            .collect()
    }

    /// Adds data-graph columns (maintenance rule 3 over a whole `Δ⁺`):
    /// every feature is counted in every new graph's CSR view. The graphs'
    /// columns must be empty, as `Δ⁺`'s fresh ids are.
    pub fn add_graphs(&mut self, graphs: &[(GraphId, &Csr)]) {
        let rows: Vec<FeatureId> = self.features.keys().copied().collect();
        self.count_cells(&rows, graphs);
    }

    /// Reconciles the feature rows against a new feature set (the batch
    /// form of rules 1–2, run after FCT maintenance): rows for vanished
    /// keys are dropped, rows for new keys are added, each compiled once
    /// and counted over `graphs`. A panic mid-way leaves a partial update;
    /// the framework then marks the index stale and rebuilds it.
    pub fn refresh_features(
        &mut self,
        target: &[(TreeKey, &LabeledGraph)],
        graphs: &[(GraphId, &Csr)],
    ) {
        let want: BTreeMap<&TreeKey, &LabeledGraph> = target.iter().map(|(k, t)| (k, *t)).collect();
        let stale: Vec<TreeKey> = self
            .features
            .values()
            .filter(|f| !want.contains_key(&f.key))
            .map(|f| f.key.clone())
            .collect();
        for key in stale {
            self.remove_feature(&key);
        }
        let mut fresh = Vec::new();
        for (key, tree) in target {
            if self.trie.lookup(key.tokens()).is_none() {
                fresh.push(self.push_feature(key.clone(), tree));
            }
        }
        self.count_cells(&fresh, graphs);
    }

    /// Approximate heap size in bytes (for the Exp 2 memory report): one
    /// `(GraphId, u32)` per TG cell, plus the trie and the feature rows.
    pub fn approx_bytes(&self) -> usize {
        let cells: usize = self.features.values().map(|f| f.row.len()).sum();
        cells * std::mem::size_of::<(GraphId, u32)>()
            + self.trie.node_count() * 48
            + self.features.len() * 128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;
    use midas_mining::tree_key;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn gid(i: u64) -> GraphId {
        GraphId(i)
    }

    /// The CSR view of each graph, under ids from `first` up.
    fn csrs(graphs: &[LabeledGraph], first: u64) -> Vec<(GraphId, Csr)> {
        graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(first + i as u64), Csr::from_graph(g)))
            .collect()
    }

    fn refs(csrs: &[(GraphId, Csr)]) -> Vec<(GraphId, &Csr)> {
        csrs.iter().map(|(id, c)| (*id, c)).collect()
    }

    fn keyed(features: &[LabeledGraph]) -> Vec<(TreeKey, LabeledGraph)> {
        features.iter().map(|t| (tree_key(t), t.clone())).collect()
    }

    /// Features: C-O edge, C-O-N path. Graphs: G1 = C-O-N, G2 = O-C-O.
    fn setup() -> (FctIndex, Vec<LabeledGraph>) {
        let features = [path(&[0, 1]), path(&[0, 1, 2])];
        let graphs = vec![path(&[0, 1, 2]), path(&[1, 0, 1])];
        let views = csrs(&graphs, 1);
        let index = FctIndex::build(keyed(&features), &refs(&views));
        (index, graphs)
    }

    #[test]
    fn build_counts_embeddings() {
        let (index, ..) = setup();
        assert_eq!(index.feature_count(), 2);
        let co = index.feature_by_key(&tree_key(&path(&[0, 1]))).unwrap();
        let con = index.feature_by_key(&tree_key(&path(&[0, 1, 2]))).unwrap();
        // G1 = C-O-N: one C-O embedding; G2 = O-C-O: two (C maps one way,
        // O either side).
        assert_eq!(index.count(co, gid(1)), 1);
        assert_eq!(index.count(co, gid(2)), 2);
        assert_eq!(index.count(con, gid(1)), 1);
        assert_eq!(index.count(con, gid(2)), 0);
    }

    #[test]
    fn add_and_remove_graph_columns() {
        let (mut index, ..) = setup();
        let views = csrs(&[path(&[0, 1, 0, 1])], 3);
        index.add_graphs(&refs(&views));
        let co = index.feature_by_key(&tree_key(&path(&[0, 1]))).unwrap();
        assert_eq!(index.count(co, gid(3)), 3);
        index.remove_graph(gid(3));
        assert_eq!(index.count(co, gid(3)), 0);
    }

    #[test]
    fn remove_feature_drops_rows() {
        let (mut index, ..) = setup();
        let key = tree_key(&path(&[0, 1]));
        let id = index.feature_by_key(&key).unwrap();
        assert_eq!(index.remove_feature(&key), Some(id));
        assert_eq!(index.feature_count(), 1);
        assert!(index.row(id).is_empty());
        assert_eq!(index.feature_by_key(&key), None);
        assert_eq!(index.remove_feature(&key), None);
    }

    #[test]
    fn duplicate_feature_is_ignored() {
        // A repeated key gets one row at build time (rule 1 is a no-op for
        // a present key), and a refresh that names it again keeps the row.
        let (_, graphs) = setup();
        let views = csrs(&graphs, 1);
        let co = path(&[0, 1]);
        let mut index = FctIndex::build(keyed(&[co.clone(), co.clone()]), &refs(&views));
        assert_eq!(index.feature_count(), 1);
        let key = tree_key(&co);
        let id = index.feature_by_key(&key).unwrap();
        index.refresh_features(&[(key.clone(), &co)], &refs(&views));
        assert_eq!(index.feature_count(), 1);
        assert_eq!(index.feature_by_key(&key), Some(id));
        assert_eq!(index.count(id, gid(2)), 2);
    }

    #[test]
    fn refresh_features_diffs_rows() {
        let (mut index, graphs) = setup();
        // New target set: keep C-O-N, drop C-O, add O-N.
        let con = path(&[0, 1, 2]);
        let on = path(&[1, 2]);
        let target = vec![(tree_key(&con), &con), (tree_key(&on), &on)];
        let views = csrs(&graphs, 1);
        let con_id = index.feature_by_key(&tree_key(&con)).unwrap();
        index.refresh_features(&target, &refs(&views));
        assert_eq!(index.feature_count(), 2);
        assert!(index.feature_by_key(&tree_key(&path(&[0, 1]))).is_none());
        assert_eq!(
            index.feature_by_key(&tree_key(&con)),
            Some(con_id),
            "kept row"
        );
        let on_id = index.feature_by_key(&tree_key(&on)).unwrap();
        assert_eq!(index.count(on_id, gid(1)), 1);
        assert_eq!(index.count(on_id, gid(2)), 0);
        // The kept row keeps its cells.
        assert_eq!(index.count(con_id, gid(1)), 1);
        assert_eq!(index.count(con_id, gid(2)), 0);
    }

    #[test]
    fn approx_bytes_is_positive_and_grows() {
        let (mut index, ..) = setup();
        let before = index.approx_bytes();
        assert!(before > 0);
        let views = csrs(&[path(&[0, 1, 2, 1, 0])], 9);
        index.add_graphs(&refs(&views));
        assert!(index.approx_bytes() > before);
    }
}
