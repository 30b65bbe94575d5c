//! The FCT-Index (Def. 5.1): trie + TG-matrix, with the maintenance rules
//! of §5.1. The TP-matrix side is computed on demand by
//! [`FctIndex::pattern_counts`].
//!
//! The TG matrix is stored once, row by row: each feature owns its
//! nonzero `(GraphId, count)` cells in ascending id order, the order the
//! dominance filter merges in. A tree's count is nonzero exactly in the
//! graphs that contain it, so a row's ids are its tree's support, which
//! the FCT lattice already tracks exactly (`TreeEntry::support`).
//! [`FctIndex::sync`], the one mutator, makes every row follow it: rows
//! of trees that left the index set are dropped (rule 2), new rows are
//! counted over their support (rule 1), and kept rows drop the ids that
//! left the support (rule 4) and count the ones they lack (rule 3). Each
//! row is counted with the plan its lattice entry already compiled.
//!
//! A sync counts every cell before it changes any row, and a live
//! graph's cell never changes (graphs are immutable and ids are never
//! reused). So a sync that a task panic interrupts leaves rows that the
//! next sync completes: bootstrap, every batch, and the batch after a
//! failed one all make the same call.

use crate::trie::Trie;
use crate::EMBED_CAP;
use midas_graph::{exec, Csr, GraphDb, GraphId, LabeledGraph, MatchPlan};
use midas_mining::{TreeEntry, TreeKey};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Dense identifier of a feature (an FCT of two or more edges) in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FeatureId(pub u32);

/// One indexed feature: its canonical key, its tree with the match plan
/// its lattice entry compiled, and its TG row. Syncs count the row's new
/// cells and [`FctIndex::pattern_counts`] runs that plan, so the index
/// never compiles one of its own.
#[derive(Debug, Clone)]
pub struct Feature {
    /// Canonical string key (also the trie path).
    pub key: TreeKey,
    tree: LabeledGraph,
    plan: Arc<MatchPlan>,
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
}

/// The count of the tree `plan` (canonical key `key`) in `target` (data
/// graph `id`), saturating at [`EMBED_CAP`]. The search runs under the
/// `(key digest, graph id)` exemplar context, so its `plan.search_ns` tail
/// exemplars are attributed.
fn count_in(key: &TreeKey, plan: &MatchPlan, id: GraphId, target: &Csr) -> u32 {
    let _ctx = midas_obs::enabled().then(|| midas_obs::exemplar::with_context(key.digest(), id.0));
    plan.count_embeddings(target, EMBED_CAP) as u32
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

    /// The empty index after one [`Self::sync`] to `trees` over `db`.
    pub fn build<'a>(
        trees: impl IntoIterator<Item = (&'a TreeKey, &'a TreeEntry)>,
        db: &GraphDb,
    ) -> Self {
        let mut index = Self::new();
        index.sync(trees, db);
        index
    }

    /// Makes the rows those of `trees` (the index trees, a repeated key
    /// getting one row) over `db`, the database their supports describe:
    /// maintenance rules 1–4 of §5.1. Rows of keys not in `trees` are
    /// dropped; every other row ends up holding one cell per graph of
    /// its tree's support. The missing cells are counted first, one task
    /// per graph, each graph's task running every row that lacks it; the
    /// rows change only after every count is made.
    ///
    /// # Panics
    ///
    /// If a support id is not live in `db`.
    pub fn sync<'a>(
        &mut self,
        trees: impl IntoIterator<Item = (&'a TreeKey, &'a TreeEntry)>,
        db: &GraphDb,
    ) {
        let trees: Vec<(&TreeKey, &TreeEntry)> = trees
            .into_iter()
            .collect::<BTreeMap<_, _>>()
            .into_iter()
            .collect();
        // The `(graph, tree)` cells the rows lack, by index into `trees`,
        // and whether a tree's row keeps all its cells (no id left the
        // support).
        let mut lacking: Vec<(GraphId, usize)> = Vec::new();
        let mut keeps_all = vec![true; trees.len()];
        for (i, &(key, entry)) in trees.iter().enumerate() {
            let row = self
                .trie
                .lookup(key.tokens())
                .map_or(&[][..], |id| self.row(id));
            let mut kept = 0;
            let mut cells = row.iter().peekable();
            for &gid in &entry.support {
                while cells.next_if(|&&(g, _)| g < gid).is_some() {}
                match cells.next_if(|&&(g, _)| g == gid) {
                    Some(_) => kept += 1,
                    None => lacking.push((gid, i)),
                }
            }
            keeps_all[i] = kept == row.len();
        }
        // Graph-major: each tree's run is ascending, so the stable sort
        // merges the runs.
        lacking.sort_by_key(|&(gid, _)| gid);
        let tasks: Vec<_> = lacking
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, db.csr(run[0].0).expect("support id is live"), run))
            .collect();
        let counts = exec::map_tasks(&tasks, |&(gid, target, run)| {
            run.iter()
                .map(|&(_, i)| count_in(trees[i].0, trees[i].1.plan(), gid, target))
                .collect::<Vec<u32>>()
        });
        // Every count is made; the rows change from here on.
        let mut fresh: Vec<Vec<(GraphId, u32)>> = vec![Vec::new(); trees.len()];
        for (&(gid, _, run), counts) in tasks.iter().zip(counts) {
            for (&(_, i), count) in run.iter().zip(counts) {
                debug_assert!(count > 0, "a support graph contains the tree");
                fresh[i].push((gid, count));
            }
        }
        let wanted: BTreeSet<&TreeKey> = trees.iter().map(|&(key, _)| key).collect();
        let stale: Vec<TreeKey> = self
            .features
            .values()
            .filter(|f| !wanted.contains(&f.key))
            .map(|f| f.key.clone())
            .collect();
        for key in &stale {
            self.remove_feature(key);
        }
        for (((key, entry), fresh), keeps_all) in trees.into_iter().zip(fresh).zip(keeps_all) {
            let id = match self.trie.lookup(key.tokens()) {
                Some(id) => id,
                None => self.push_feature(key, entry),
            };
            let row = &mut self.features.get_mut(&id).expect("synced row").row;
            let last = row.last().map(|&(gid, _)| gid);
            if keeps_all && fresh.first().is_none_or(|&(gid, _)| last < Some(gid)) {
                // Fresh graphs only, all above the row's ids.
                row.extend(fresh);
                continue;
            }
            // One cell per support id: the row's own where it has one, else
            // the fresh count, which came in the same ascending order.
            let mut kept = row.iter().peekable();
            let mut fresh = fresh.into_iter();
            *row = entry
                .support
                .iter()
                .map(|&gid| {
                    while kept.next_if(|&&(g, _)| g < gid).is_some() {}
                    match kept.next_if(|&&(g, _)| g == gid) {
                        Some(&cell) => cell,
                        None => fresh.next().expect("a counted cell"),
                    }
                })
                .collect();
        }
    }

    /// Registers an empty row for `key`, which the trie does not hold yet,
    /// sharing `entry`'s compiled plan.
    fn push_feature(&mut self, key: &TreeKey, entry: &TreeEntry) -> FeatureId {
        let id = FeatureId(self.next_feature);
        self.next_feature += 1;
        self.trie.insert(key.tokens(), id);
        let feature = Feature {
            key: key.clone(),
            tree: entry.tree.clone(),
            plan: Arc::clone(entry.plan()),
            row: Vec::new(),
        };
        self.features.insert(id, feature);
        id
    }

    /// Removes a feature row (maintenance rule 2).
    fn remove_feature(&mut self, key: &TreeKey) -> Option<FeatureId> {
        let id = self.trie.remove(key.tokens())?;
        self.features.remove(&id);
        Some(id)
    }

    /// Number of features (rows).
    pub fn feature_count(&self) -> usize {
        self.features.len()
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

    /// Each tree keyed, with its exact support in `db`.
    fn entries(trees: &[LabeledGraph], db: &GraphDb) -> BTreeMap<TreeKey, TreeEntry> {
        trees
            .iter()
            .map(|t| {
                let plan = MatchPlan::compile(t);
                let support: BTreeSet<GraphId> = db
                    .csrs()
                    .filter(|(_, g)| plan.is_subgraph_of(g))
                    .map(|(id, _)| id)
                    .collect();
                (tree_key(t), TreeEntry::new(t.clone(), support))
            })
            .collect()
    }

    fn id_of(index: &FctIndex, tree: &LabeledGraph) -> Option<FeatureId> {
        index.trie.lookup(tree_key(tree).tokens())
    }

    /// Features: C-O edge, C-O-N path. Graphs: G0 = C-O-N, G1 = O-C-O.
    fn setup() -> (FctIndex, GraphDb) {
        let db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[1, 0, 1])]);
        let features = entries(&[path(&[0, 1]), path(&[0, 1, 2])], &db);
        (FctIndex::build(&features, &db), db)
    }

    #[test]
    fn build_counts_embeddings() {
        let (index, _) = setup();
        assert_eq!(index.feature_count(), 2);
        let co = id_of(&index, &path(&[0, 1])).unwrap();
        let con = id_of(&index, &path(&[0, 1, 2])).unwrap();
        // G0 = C-O-N: one C-O embedding; G1 = O-C-O: two (C maps one way,
        // O either side).
        assert_eq!(index.count(co, gid(0)), 1);
        assert_eq!(index.count(co, gid(1)), 2);
        assert_eq!(index.count(con, gid(0)), 1);
        assert_eq!(index.count(con, gid(1)), 0);
        assert_eq!(index.row(con), &[(gid(0), 1)], "only the support");
    }

    #[test]
    fn add_and_remove_graph_columns() {
        // A graph joining the supports gets a column (rule 3), and one
        // leaving them loses it (rule 4); other cells are not recounted.
        let (mut index, mut db) = setup();
        let co = id_of(&index, &path(&[0, 1])).unwrap();
        let (inserted, _) = db.apply(midas_graph::BatchUpdate::insert_only(vec![path(&[
            0, 1, 0, 1,
        ])]));
        let features = entries(&[path(&[0, 1]), path(&[0, 1, 2])], &db);
        index.sync(&features, &db);
        assert_eq!(index.count(co, inserted[0]), 3);
        assert_eq!(index.count(co, gid(1)), 2);
        db.apply(midas_graph::BatchUpdate::delete_only(inserted.clone()));
        let features = entries(&[path(&[0, 1]), path(&[0, 1, 2])], &db);
        index.sync(&features, &db);
        assert_eq!(index.count(co, inserted[0]), 0);
        assert_eq!(index.row(co), &[(gid(0), 1), (gid(1), 2)]);
    }

    #[test]
    fn remove_feature_drops_rows() {
        let (mut index, _) = setup();
        let key = tree_key(&path(&[0, 1]));
        let id = id_of(&index, &path(&[0, 1])).unwrap();
        assert_eq!(index.remove_feature(&key), Some(id));
        assert_eq!(index.feature_count(), 1);
        assert!(index.row(id).is_empty());
        assert_eq!(id_of(&index, &path(&[0, 1])), None);
        assert_eq!(index.remove_feature(&key), None);
    }

    #[test]
    fn duplicate_feature_is_ignored() {
        // A repeated key gets one row at build time (rule 1 is a no-op for
        // a present key), and a sync that names it again keeps the row.
        let (_, db) = setup();
        let co = path(&[0, 1]);
        let once = entries(std::slice::from_ref(&co), &db);
        let mut index = FctIndex::build(once.iter().chain(&once), &db);
        assert_eq!(index.feature_count(), 1);
        let id = id_of(&index, &co).unwrap();
        index.sync(&once, &db);
        assert_eq!(index.feature_count(), 1);
        assert_eq!(id_of(&index, &co), Some(id));
        assert_eq!(index.count(id, gid(1)), 2);
    }

    #[test]
    fn sync_diffs_rows() {
        let (mut index, db) = setup();
        // New target set: keep C-O-N, drop C-O, add O-N.
        let con_id = id_of(&index, &path(&[0, 1, 2])).unwrap();
        let features = entries(&[path(&[0, 1, 2]), path(&[1, 2])], &db);
        index.sync(&features, &db);
        assert_eq!(index.feature_count(), 2);
        assert!(id_of(&index, &path(&[0, 1])).is_none());
        assert_eq!(id_of(&index, &path(&[0, 1, 2])), Some(con_id), "kept row");
        let on_id = id_of(&index, &path(&[1, 2])).unwrap();
        assert_eq!(index.count(on_id, gid(0)), 1);
        assert_eq!(index.count(on_id, gid(1)), 0);
        // The kept row keeps its cells.
        assert_eq!(index.count(con_id, gid(0)), 1);
        assert_eq!(index.count(con_id, gid(1)), 0);
    }

    #[test]
    fn rows_share_the_entry_plans() {
        let (_, db) = setup();
        let features = entries(&[path(&[0, 1, 2])], &db);
        let index = FctIndex::build(&features, &db);
        let (_, feature) = index.features().next().unwrap();
        assert!(Arc::ptr_eq(
            &feature.plan,
            features.values().next().unwrap().plan()
        ));
    }

    #[test]
    fn approx_bytes_is_positive_and_grows() {
        let (mut index, mut db) = setup();
        let before = index.approx_bytes();
        assert!(before > 0);
        db.apply(midas_graph::BatchUpdate::insert_only(vec![path(&[
            0, 1, 2, 1, 0,
        ])]));
        let features = entries(&[path(&[0, 1]), path(&[0, 1, 2])], &db);
        index.sync(&features, &db);
        assert!(index.approx_bytes() > before);
    }
}
