//! The FCT-Index (Def. 5.1): trie + TG-matrix, with the maintenance rules
//! of §5.1. The TP-matrix side is computed on demand by
//! [`FctIndex::pattern_counts`].
//!
//! Rows and columns are filled only by the maintenance rules: new rows
//! ([`FctIndex::refresh_features`], rules 1–2) and new columns
//! ([`FctIndex::add_graphs`], rule 3) share one graph-major counting pass,
//! and an index built from nothing is the empty index after one refresh.
//! The mutators return plain values and are not transactional: a task
//! panic unwinds out of them mid-way, and the framework's phase backstop
//! then marks the index stale and rebuilds it from empty on the next batch.

use crate::sparse::SparseMatrix;
use crate::trie::Trie;
use crate::EMBED_CAP;
use midas_graph::{CachedPattern, Csr, GraphId, LabeledGraph, MatchKernel};
use midas_mining::TreeKey;
use std::collections::BTreeMap;

/// Dense identifier of a feature (an FCT of two or more edges) in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FeatureId(pub u32);

/// One indexed feature: its canonical key and its tree, prepared once
/// when the row is created. Later batches count the row's TG cells
/// through that prepared pattern and [`FctIndex::pattern_counts`] runs
/// its plan, so neither its canonical code nor its plan is recomputed
/// per batch.
#[derive(Debug, Clone)]
pub struct Feature {
    /// Canonical string key (also the trie path).
    pub key: TreeKey,
    pattern: CachedPattern,
}

impl Feature {
    /// The feature tree.
    pub fn tree(&self) -> &LabeledGraph {
        self.pattern.graph()
    }
}

/// The FCT-Index: canonical-string trie with the embedding-count matrix
/// over data graphs (TG).
#[derive(Debug, Clone, Default)]
pub struct FctIndex {
    trie: Trie,
    features: BTreeMap<FeatureId, Feature>,
    next_feature: u32,
    tg: SparseMatrix<FeatureId, GraphId>,
}

impl FctIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index over `features` (a repeated key gets one row) and `graphs`: the empty index after one
    /// [`Self::refresh_features`], the rules' own row path.
    pub fn build(
        kernel: &MatchKernel,
        features: impl IntoIterator<Item = (TreeKey, LabeledGraph)>,
        graphs: &[(GraphId, &Csr)],
    ) -> Self {
        let features: Vec<(TreeKey, LabeledGraph)> = features.into_iter().collect();
        let target: Vec<(TreeKey, &LabeledGraph)> =
            features.iter().map(|(k, t)| (k.clone(), t)).collect();
        let mut index = Self::new();
        index.refresh_features(kernel, &target, graphs);
        index
    }

    /// Registers a row for a key the trie does not hold yet.
    fn push_feature(&mut self, key: TreeKey, pattern: CachedPattern) -> FeatureId {
        let id = FeatureId(self.next_feature);
        self.next_feature += 1;
        self.trie.insert(key.tokens(), id);
        self.features.insert(id, Feature { key, pattern });
        id
    }

    /// Counts the `rows` features in `graphs` with one graph-major
    /// [`MatchKernel::count_grid`] pass (one memo round-trip per graph for
    /// every row at once) and stores the nonzero cells. The cells must be
    /// empty, as those of new rows and of `Δ⁺`'s fresh columns are. An
    /// empty matrix (a build from nothing) is bulk built from the cells,
    /// which the warm-memo matrix build measured cheaper than one
    /// interior insert per cell.
    fn count_grid(&mut self, kernel: &MatchKernel, rows: &[FeatureId], graphs: &[(GraphId, &Csr)]) {
        if rows.is_empty() || graphs.is_empty() {
            return;
        }
        let patterns: Vec<&CachedPattern> =
            rows.iter().map(|id| &self.features[id].pattern).collect();
        let grid = kernel.count_grid(&patterns, graphs, EMBED_CAP);
        let cells = graphs.iter().zip(grid).flat_map(|(&(gid, _), counts)| {
            rows.iter()
                .zip(counts)
                .map(move |(&fid, count)| (fid, gid, count as u32))
        });
        if self.tg.is_empty() {
            self.tg = SparseMatrix::from_triples(cells);
        } else {
            for (fid, gid, count) in cells {
                if count > 0 {
                    self.tg.set(fid, gid, count);
                }
            }
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

    /// The TG-matrix (feature × data graph embedding counts).
    pub fn tg(&self) -> &SparseMatrix<FeatureId, GraphId> {
        &self.tg
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
        self.tg.remove_row(id);
        Some(id)
    }

    /// Removes a data-graph column (maintenance rule 4).
    pub fn remove_graph(&mut self, id: GraphId) {
        self.tg.remove_col(id);
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
                let count = feature.pattern.plan().count_embeddings(&target, EMBED_CAP) as u32;
                (count > 0).then_some((fid, count))
            })
            .collect()
    }

    /// Adds data-graph columns (maintenance rule 3 over a whole `Δ⁺`):
    /// every feature is counted in every new graph's CSR view. The graphs'
    /// columns must be empty, as `Δ⁺`'s fresh ids are.
    pub fn add_graphs(&mut self, kernel: &MatchKernel, graphs: &[(GraphId, &Csr)]) {
        let rows: Vec<FeatureId> = self.features.keys().copied().collect();
        self.count_grid(kernel, &rows, graphs);
    }

    /// Reconciles the feature rows against a new feature set (the batch
    /// form of rules 1–2, run after FCT maintenance): rows for vanished
    /// keys are dropped, rows for new keys are added, each prepared once
    /// and counted over `graphs`. A panic mid-way leaves a partial update;
    /// the framework then marks the index stale and rebuilds it.
    pub fn refresh_features(
        &mut self,
        kernel: &MatchKernel,
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
                fresh.push(self.push_feature(key.clone(), CachedPattern::new(tree)));
            }
        }
        self.count_grid(kernel, &fresh, graphs);
    }

    /// Approximate heap size in bytes (for the Exp 2 memory report).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(FeatureId, GraphId, u32)>() * 2;
        self.tg.nnz() * entry + self.trie.node_count() * 48 + self.features.len() * 128
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
        let index = FctIndex::build(&MatchKernel::new(), keyed(&features), &refs(&views));
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
        assert_eq!(index.tg().get(co, gid(1)), 1);
        assert_eq!(index.tg().get(co, gid(2)), 2);
        assert_eq!(index.tg().get(con, gid(1)), 1);
        assert_eq!(index.tg().get(con, gid(2)), 0);
    }

    #[test]
    fn add_and_remove_graph_columns() {
        let (mut index, ..) = setup();
        let views = csrs(&[path(&[0, 1, 0, 1])], 3);
        index.add_graphs(&MatchKernel::new(), &refs(&views));
        let co = index.feature_by_key(&tree_key(&path(&[0, 1]))).unwrap();
        assert_eq!(index.tg().get(co, gid(3)), 3);
        index.remove_graph(gid(3));
        assert_eq!(index.tg().get(co, gid(3)), 0);
    }

    #[test]
    fn remove_feature_drops_rows() {
        let (mut index, ..) = setup();
        let key = tree_key(&path(&[0, 1]));
        let id = index.feature_by_key(&key).unwrap();
        assert_eq!(index.remove_feature(&key), Some(id));
        assert_eq!(index.feature_count(), 1);
        assert!(index.tg().row(id).next().is_none());
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
        let kernel = MatchKernel::new();
        let mut index = FctIndex::build(&kernel, keyed(&[co.clone(), co.clone()]), &refs(&views));
        assert_eq!(index.feature_count(), 1);
        let key = tree_key(&co);
        let id = index.feature_by_key(&key).unwrap();
        index.refresh_features(&kernel, &[(key.clone(), &co)], &refs(&views));
        assert_eq!(index.feature_count(), 1);
        assert_eq!(index.feature_by_key(&key), Some(id));
        assert_eq!(index.tg().get(id, gid(2)), 2);
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
        index.refresh_features(&MatchKernel::new(), &target, &refs(&views));
        assert_eq!(index.feature_count(), 2);
        assert!(index.feature_by_key(&tree_key(&path(&[0, 1]))).is_none());
        assert_eq!(
            index.feature_by_key(&tree_key(&con)),
            Some(con_id),
            "kept row"
        );
        let on_id = index.feature_by_key(&tree_key(&on)).unwrap();
        assert_eq!(index.tg().get(on_id, gid(1)), 1);
        assert_eq!(index.tg().get(on_id, gid(2)), 0);
        // The kept row keeps its cells.
        assert_eq!(index.tg().get(con_id, gid(1)), 1);
        assert_eq!(index.tg().get(con_id, gid(2)), 0);
    }

    #[test]
    fn approx_bytes_is_positive_and_grows() {
        let (mut index, ..) = setup();
        let before = index.approx_bytes();
        assert!(before > 0);
        let views = csrs(&[path(&[0, 1, 2, 1, 0])], 9);
        index.add_graphs(&MatchKernel::new(), &refs(&views));
        assert!(index.approx_bytes() > before);
    }
}
