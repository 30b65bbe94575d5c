//! The FCT-Index (Def. 5.1): trie + TG-matrix + TP-matrix, with the
//! maintenance rules of §5.1.

use crate::sparse::SparseMatrix;
use crate::trie::Trie;
use crate::{PatternId, EMBED_CAP};
use midas_graph::isomorphism::count_embeddings;
use midas_graph::{Csr, GraphId, KernelError, LabeledGraph, MatchKernel, MatchPlan};
use midas_mining::TreeKey;
use std::collections::BTreeMap;

/// Dense identifier of a feature (an FCT or a frequent edge) in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FeatureId(pub u32);

/// One indexed feature: its canonical key and its tree structure.
#[derive(Debug, Clone)]
pub struct Feature {
    /// Canonical string key (also the trie path).
    pub key: TreeKey,
    /// The feature tree (frequent edges are 2-vertex trees).
    pub tree: LabeledGraph,
    /// The tree's match plan, compiled once when the row is created and
    /// run by [`FctIndex::pattern_counts`].
    plan: MatchPlan,
}

impl Feature {
    fn new(key: TreeKey, tree: LabeledGraph) -> Self {
        let plan = MatchPlan::compile(&tree);
        Feature { key, tree, plan }
    }
}

/// The FCT-Index: canonical-string trie with embedding-count matrices over
/// data graphs (TG) and canned patterns (TP).
#[derive(Debug, Clone, Default)]
pub struct FctIndex {
    trie: Trie,
    features: BTreeMap<FeatureId, Feature>,
    next_feature: u32,
    tg: SparseMatrix<FeatureId, GraphId>,
    tp: SparseMatrix<FeatureId, PatternId>,
}

impl FctIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index over `features` (FCTs ∪ frequent edges), counting
    /// embeddings in every `graph` and every `pattern`.
    pub fn build<'a, F, G, P>(features: F, graphs: G, patterns: P) -> Self
    where
        F: IntoIterator<Item = (TreeKey, &'a LabeledGraph)>,
        G: IntoIterator<Item = (GraphId, &'a LabeledGraph)> + Clone,
        P: IntoIterator<Item = (PatternId, &'a LabeledGraph)> + Clone,
    {
        let mut index = Self::new();
        for (key, tree) in features {
            index.add_feature_with(key, tree, graphs.clone(), patterns.clone());
        }
        index
    }

    /// Parallel + memoized form of [`FctIndex::build`]: embedding counts
    /// run through `kernel` over the data graphs' CSR views (borrowed from
    /// [`midas_graph::GraphDb::csrs`], cached by `(pattern key, GraphId)`);
    /// canned-pattern columns come from [`FctIndex::pattern_counts`].
    /// Produces a matrix identical to the serial build.
    ///
    /// All features are registered first and the whole TG-matrix is filled
    /// by a single [`MatchKernel::try_count_grid`] pass — one memo
    /// round-trip per *graph* for every feature at once, instead of one per
    /// `(feature, graph)` pair. A contained worker panic returns the
    /// [`KernelError`].
    pub fn build_with(
        kernel: &MatchKernel,
        features: impl IntoIterator<Item = (TreeKey, LabeledGraph)>,
        graphs: &[(GraphId, &Csr)],
        patterns: &[(PatternId, &LabeledGraph)],
    ) -> Result<Self, KernelError> {
        let mut index = Self::new();
        // Register rows first (deduplicating by key, like the serial build).
        let mut rows: Vec<(FeatureId, LabeledGraph)> = Vec::new();
        for (key, tree) in features {
            if index.trie.lookup(key.tokens()).is_some() {
                continue;
            }
            let id = FeatureId(index.next_feature);
            index.next_feature += 1;
            index.trie.insert(key.tokens(), id);
            index.features.insert(id, Feature::new(key, tree.clone()));
            rows.push((id, tree));
        }
        // One grid pass fills every TG column; the matrix itself is bulk
        // built from the nonzero triples instead of nnz interior inserts.
        if !rows.is_empty() && !graphs.is_empty() {
            let cached: Vec<midas_graph::CachedPattern> =
                rows.iter().map(|(_, t)| kernel.prepare(t)).collect();
            let grid = kernel.try_count_grid(&cached, graphs, EMBED_CAP)?;
            index.tg =
                SparseMatrix::from_triples(graphs.iter().zip(grid).flat_map(|(&(gid, _), row)| {
                    rows.iter()
                        .zip(row)
                        .map(move |(&(fid, _), count)| (fid, gid, count as u32))
                }));
        }
        // TP columns (pattern sets are tiny; no memo benefit).
        let tp_triples: Vec<(FeatureId, PatternId, u32)> = patterns
            .iter()
            .flat_map(|&(pid, p)| {
                index
                    .pattern_counts(p)
                    .into_iter()
                    .map(move |(fid, count)| (fid, pid, count))
            })
            .collect();
        index.tp = SparseMatrix::from_triples(tp_triples);
        Ok(index)
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

    /// The TP-matrix (feature × canned pattern embedding counts).
    pub fn tp(&self) -> &SparseMatrix<FeatureId, PatternId> {
        &self.tp
    }

    /// Iterates the features in id order.
    pub fn features(&self) -> impl Iterator<Item = (FeatureId, &Feature)> {
        self.features.iter().map(|(&id, f)| (id, f))
    }

    /// Looks up a feature by canonical key.
    pub fn feature_by_key(&self, key: &TreeKey) -> Option<FeatureId> {
        self.trie.lookup(key.tokens())
    }

    /// Adds a feature row (maintenance rule 1), counting its embeddings in
    /// the provided graphs and patterns. No-op if the key is present.
    pub fn add_feature_with<'a, G, P>(
        &mut self,
        key: TreeKey,
        tree: &LabeledGraph,
        graphs: G,
        patterns: P,
    ) -> FeatureId
    where
        G: IntoIterator<Item = (GraphId, &'a LabeledGraph)>,
        P: IntoIterator<Item = (PatternId, &'a LabeledGraph)>,
    {
        if let Some(existing) = self.trie.lookup(key.tokens()) {
            return existing;
        }
        let id = FeatureId(self.next_feature);
        self.next_feature += 1;
        self.trie.insert(key.tokens(), id);
        for (gid, g) in graphs {
            let count = count_embeddings(tree, g, EMBED_CAP) as u32;
            self.tg.set(id, gid, count);
        }
        for (pid, p) in patterns {
            let count = count_embeddings(tree, p, EMBED_CAP) as u32;
            self.tp.set(id, pid, count);
        }
        self.features.insert(id, Feature::new(key, tree.clone()));
        id
    }

    /// Removes a feature row (maintenance rule 2).
    pub fn remove_feature(&mut self, key: &TreeKey) -> Option<FeatureId> {
        let id = self.trie.remove(key.tokens())?;
        self.features.remove(&id);
        self.tg.remove_row(id);
        self.tp.remove_row(id);
        Some(id)
    }

    /// Adds a data-graph column (maintenance rule 3): counts every feature's
    /// embeddings in `graph`.
    pub fn add_graph(&mut self, id: GraphId, graph: &LabeledGraph) {
        for (&fid, feature) in &self.features {
            let count = count_embeddings(&feature.tree, graph, EMBED_CAP) as u32;
            self.tg.set(fid, id, count);
        }
    }

    /// Removes a data-graph column (maintenance rule 4).
    pub fn remove_graph(&mut self, id: GraphId) {
        self.tg.remove_col(id);
    }

    /// The embedding count of every feature in `pattern`, saturating at
    /// [`EMBED_CAP`]: non-zero entries only, in feature-id order. This is
    /// the pattern's TP-matrix column and the FCT half of its
    /// [`crate::scov::PatternProfile`]. The pattern's CSR is built once
    /// and each feature's compiled plan runs over it.
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

    /// Adds the column of a pattern id not yet in the TP-matrix
    /// (maintenance rule 3).
    pub fn add_pattern(&mut self, id: PatternId, pattern: &LabeledGraph) {
        for (fid, count) in self.pattern_counts(pattern) {
            self.tp.set(fid, id, count);
        }
    }

    /// Removes a canned-pattern column (maintenance rule 4).
    pub fn remove_pattern(&mut self, id: PatternId) {
        self.tp.remove_col(id);
    }

    /// Batch, parallel + memoized form of [`FctIndex::add_graph`]
    /// (maintenance rule 3 over a whole `Δ⁺`): every feature is prepared
    /// once, then counted in every new graph's CSR view through the
    /// kernel.
    ///
    /// The count grid is computed before any column is written, so on
    /// [`KernelError`] the TG-matrix is untouched.
    pub fn try_add_graphs_kernel(
        &mut self,
        kernel: &MatchKernel,
        graphs: &[(GraphId, &Csr)],
    ) -> Result<(), KernelError> {
        if graphs.is_empty() || self.features.is_empty() {
            return Ok(());
        }
        let prepared: Vec<(FeatureId, midas_graph::CachedPattern)> = self
            .features
            .iter()
            .map(|(&fid, f)| (fid, kernel.prepare(&f.tree)))
            .collect();
        let cached: Vec<midas_graph::CachedPattern> =
            prepared.iter().map(|(_, p)| p.clone()).collect();
        let grid = kernel.try_count_grid(&cached, graphs, EMBED_CAP)?;
        for (&(gid, _), row) in graphs.iter().zip(grid) {
            for (&(fid, _), count) in prepared.iter().zip(row) {
                self.tg.set(fid, gid, count as u32);
            }
        }
        Ok(())
    }

    /// Reconciles the feature rows against a new feature set (the batch
    /// form of rules 1–2, run after FCT maintenance): rows for vanished
    /// keys are dropped, rows for new keys are added, counted through
    /// `kernel` over `graphs` and `patterns`. The TG/TP rows of every
    /// *new* feature are counted up front; only once all counts succeed
    /// are stale rows dropped and new rows inserted. On [`KernelError`]
    /// the index is unchanged.
    pub fn try_refresh_features_kernel(
        &mut self,
        kernel: &MatchKernel,
        target: &[(TreeKey, &LabeledGraph)],
        graphs: &[(GraphId, &Csr)],
        patterns: &[(PatternId, &LabeledGraph)],
    ) -> Result<(), KernelError> {
        let pattern_targets: Vec<&LabeledGraph> = patterns.iter().map(|&(_, p)| p).collect();
        let mut pending: Vec<(&TreeKey, &LabeledGraph, Vec<u64>, Vec<u64>)> = Vec::new();
        let mut queued: std::collections::BTreeSet<&TreeKey> = std::collections::BTreeSet::new();
        for (key, tree) in target {
            if self.trie.lookup(key.tokens()).is_some() || !queued.insert(key) {
                continue;
            }
            let graph_counts = kernel.try_count_in_graphs(tree, graphs, EMBED_CAP)?;
            let pattern_counts = kernel.try_count_plain_many(tree, &pattern_targets, EMBED_CAP)?;
            pending.push((key, tree, graph_counts, pattern_counts));
        }
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
        for (key, tree, graph_counts, pattern_counts) in pending {
            let id = FeatureId(self.next_feature);
            self.next_feature += 1;
            self.trie.insert(key.tokens(), id);
            for (&(gid, _), count) in graphs.iter().zip(graph_counts) {
                self.tg.set(id, gid, count as u32);
            }
            for (&(pid, _), count) in patterns.iter().zip(pattern_counts) {
                self.tp.set(id, pid, count as u32);
            }
            self.features
                .insert(id, Feature::new(key.clone(), tree.clone()));
        }
        Ok(())
    }

    /// Approximate heap size in bytes (for the Exp 2 memory report).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(FeatureId, GraphId, u32)>() * 2;
        self.tg.nnz() * entry
            + self.tp.nnz() * entry
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

    fn pid(i: u64) -> PatternId {
        PatternId(i)
    }

    /// Features: C-O edge, C-O-N path. Graphs: G1 = C-O-N, G2 = O-C-O.
    /// Pattern: P1 = C-O-N.
    fn setup() -> (FctIndex, Vec<LabeledGraph>, Vec<LabeledGraph>) {
        let features = [path(&[0, 1]), path(&[0, 1, 2])];
        let graphs = vec![path(&[0, 1, 2]), path(&[1, 0, 1])];
        let patterns = vec![path(&[0, 1, 2])];
        let index = FctIndex::build(
            features.iter().map(|t| (tree_key(t), t)),
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| (gid(i as u64 + 1), g)),
            patterns
                .iter()
                .enumerate()
                .map(|(i, p)| (pid(i as u64 + 1), p)),
        );
        (index, graphs, patterns)
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
        // Pattern column.
        assert_eq!(index.tp().get(co, pid(1)), 1);
        assert_eq!(index.tp().get(con, pid(1)), 1);
    }

    #[test]
    fn add_and_remove_graph_columns() {
        let (mut index, ..) = setup();
        let g3 = path(&[0, 1, 0, 1]);
        index.add_graph(gid(3), &g3);
        let co = index.feature_by_key(&tree_key(&path(&[0, 1]))).unwrap();
        assert_eq!(index.tg().get(co, gid(3)), 3);
        index.remove_graph(gid(3));
        assert_eq!(index.tg().get(co, gid(3)), 0);
    }

    #[test]
    fn add_and_remove_pattern_columns() {
        let (mut index, ..) = setup();
        let p2 = path(&[0, 1]);
        index.add_pattern(pid(2), &p2);
        let co = index.feature_by_key(&tree_key(&path(&[0, 1]))).unwrap();
        assert_eq!(index.tp().get(co, pid(2)), 1);
        index.remove_pattern(pid(2));
        assert_eq!(index.tp().get(co, pid(2)), 0);
    }

    #[test]
    fn remove_feature_drops_rows() {
        let (mut index, ..) = setup();
        let key = tree_key(&path(&[0, 1]));
        let id = index.feature_by_key(&key).unwrap();
        assert_eq!(index.remove_feature(&key), Some(id));
        assert_eq!(index.feature_count(), 1);
        assert!(index.tg().row(id).next().is_none());
        assert!(index.tp().row(id).next().is_none());
        assert_eq!(index.feature_by_key(&key), None);
        assert_eq!(index.remove_feature(&key), None);
    }

    #[test]
    fn duplicate_feature_is_ignored() {
        let (mut index, graphs, patterns) = setup();
        let key = tree_key(&path(&[0, 1]));
        let before = index.feature_count();
        let id = index.add_feature_with(
            key.clone(),
            &path(&[0, 1]),
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| (gid(i as u64 + 1), g)),
            patterns
                .iter()
                .enumerate()
                .map(|(i, p)| (pid(i as u64 + 1), p)),
        );
        assert_eq!(index.feature_count(), before);
        assert_eq!(index.feature_by_key(&key), Some(id));
    }

    #[test]
    fn refresh_features_diffs_rows() {
        let (mut index, graphs, patterns) = setup();
        // New target set: keep C-O-N, drop C-O, add O-N.
        let con = path(&[0, 1, 2]);
        let on = path(&[1, 2]);
        let target = vec![(tree_key(&con), &con), (tree_key(&on), &on)];
        let csrs: Vec<Csr> = graphs.iter().map(Csr::from_graph).collect();
        let graph_refs: Vec<(GraphId, &Csr)> = csrs
            .iter()
            .enumerate()
            .map(|(i, c)| (gid(i as u64 + 1), c))
            .collect();
        let pattern_refs: Vec<(PatternId, &LabeledGraph)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (pid(i as u64 + 1), p))
            .collect();
        let con_id = index.feature_by_key(&tree_key(&con)).unwrap();
        index
            .try_refresh_features_kernel(&MatchKernel::new(2), &target, &graph_refs, &pattern_refs)
            .expect("no fault injected");
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
        assert_eq!(index.tp().get(on_id, pid(1)), 1, "new row's TP entry");
    }

    #[test]
    fn kernel_build_matches_serial_build() {
        let features = [path(&[0, 1]), path(&[0, 1, 2]), path(&[1, 2])];
        let graphs = [path(&[0, 1, 2]), path(&[1, 0, 1]), path(&[0, 1, 2, 1, 0])];
        let patterns = [path(&[0, 1, 2]), path(&[0, 1])];
        let graph_refs: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(i as u64), g))
            .collect();
        let pattern_refs: Vec<(PatternId, &LabeledGraph)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (pid(i as u64), p))
            .collect();
        let serial = FctIndex::build(
            features.iter().map(|t| (tree_key(t), t)),
            graph_refs.iter().copied(),
            pattern_refs.iter().copied(),
        );
        let csrs: Vec<Csr> = graphs.iter().map(Csr::from_graph).collect();
        let csr_refs: Vec<(GraphId, &Csr)> = csrs
            .iter()
            .enumerate()
            .map(|(i, c)| (gid(i as u64), c))
            .collect();
        let kernel = MatchKernel::new(4);
        let parallel = FctIndex::build_with(
            &kernel,
            features.iter().map(|t| (tree_key(t), t.clone())),
            &csr_refs,
            &pattern_refs,
        )
        .expect("no fault injected");
        assert_eq!(serial.feature_count(), parallel.feature_count());
        for (fid, _) in serial.features() {
            for &(gid, _) in &graph_refs {
                assert_eq!(serial.tg().get(fid, gid), parallel.tg().get(fid, gid));
            }
            for &(pid, _) in &pattern_refs {
                assert_eq!(serial.tp().get(fid, pid), parallel.tp().get(fid, pid));
            }
        }
    }

    #[test]
    fn add_graphs_kernel_matches_serial_columns() {
        let (mut serial, ..) = setup();
        let (mut cached, ..) = setup();
        let news = [path(&[0, 1, 0, 1]), path(&[2, 1, 0])];
        for (i, g) in news.iter().enumerate() {
            serial.add_graph(gid(10 + i as u64), g);
        }
        let csrs: Vec<Csr> = news.iter().map(Csr::from_graph).collect();
        let refs: Vec<(GraphId, &Csr)> = csrs
            .iter()
            .enumerate()
            .map(|(i, c)| (gid(10 + i as u64), c))
            .collect();
        let kernel = MatchKernel::new(2);
        cached
            .try_add_graphs_kernel(&kernel, &refs)
            .expect("no fault injected");
        for (fid, _) in serial.features() {
            for &(gid, _) in &refs {
                assert_eq!(serial.tg().get(fid, gid), cached.tg().get(fid, gid));
            }
        }
        // A second pass is served from the memo and stays identical.
        let before = kernel.cache().stats().misses;
        cached
            .try_add_graphs_kernel(&kernel, &refs)
            .expect("no fault injected");
        assert_eq!(kernel.cache().stats().misses, before);
    }

    #[test]
    fn approx_bytes_is_positive_and_grows() {
        let (mut index, ..) = setup();
        let before = index.approx_bytes();
        assert!(before > 0);
        index.add_graph(gid(9), &path(&[0, 1, 2, 1, 0]));
        assert!(index.approx_bytes() > before);
    }
}
