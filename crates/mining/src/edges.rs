//! Frequent / infrequent edge extraction (§3.3, §5.1).
//!
//! This module maintains, per edge label, the supporting graphs and
//! per-graph occurrence counts, updated incrementally as the database
//! evolves. It is the one store of per-(edge label, graph) counts: the
//! §6.1 dominance filter (`midas_index::scov`) reads a pattern's edge
//! labels from it, frequent and infrequent alike, where Def. 5.1/5.2 keep
//! the frequent edges' embedding counts in the FCT-Index and the
//! infrequent ones' in the IFE-Index. It also provides the label coverage
//! `lcov(e, X) = |L(e, X)| / |X|` used for CSG edge weights (§2.3).

use midas_graph::{EdgeLabel, GraphId, LabeledGraph};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Support data for one edge label.
#[derive(Debug, Clone, Default)]
pub struct EdgeStats {
    /// Graphs containing at least one edge with this label.
    pub support: BTreeSet<GraphId>,
    /// Number of edges with this label per supporting graph.
    pub occurrences: BTreeMap<GraphId, u32>,
}

impl EdgeStats {
    /// Total occurrences across all graphs.
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences.values().map(|&c| c as u64).sum()
    }
}

/// Per-edge-label statistics for a graph database, with incremental updates.
#[derive(Debug, Clone, Default)]
pub struct EdgeCatalog {
    stats: BTreeMap<EdgeLabel, EdgeStats>,
}

impl EdgeCatalog {
    /// Builds the catalog from scratch.
    pub fn build<'a, I>(graphs: I) -> Self
    where
        I: IntoIterator<Item = (GraphId, &'a LabeledGraph)>,
    {
        let mut catalog = Self::default();
        for (id, g) in graphs {
            catalog.add_graph(id, g);
        }
        catalog
    }

    /// Registers a newly inserted graph.
    pub fn add_graph(&mut self, id: GraphId, graph: &LabeledGraph) {
        for label in graph.edge_labels() {
            let stats = self.stats.entry(label).or_default();
            stats.support.insert(id);
            *stats.occurrences.entry(id).or_insert(0) += 1;
        }
    }

    /// Unregisters a deleted graph. Labels whose support empties are
    /// dropped entirely.
    pub fn remove_graph(&mut self, id: GraphId, graph: &LabeledGraph) {
        for label in graph.edge_labels() {
            if let Some(stats) = self.stats.get_mut(&label) {
                stats.support.remove(&id);
                stats.occurrences.remove(&id);
            }
        }
        self.stats.retain(|_, s| !s.support.is_empty());
    }

    /// All edge labels currently present, in label order.
    pub fn labels(&self) -> impl Iterator<Item = (EdgeLabel, &EdgeStats)> {
        self.stats.iter().map(|(&l, s)| (l, s))
    }

    /// Stats for one edge label.
    pub fn get(&self, label: EdgeLabel) -> Option<&EdgeStats> {
        self.stats.get(&label)
    }

    /// Label coverage `lcov(e, D) = |L(e, D)| / |D|` (§2.2).
    pub fn lcov(&self, label: EdgeLabel, db_len: usize) -> f64 {
        if db_len == 0 {
            return 0.0;
        }
        self.stats
            .get(&label)
            .map_or(0.0, |s| s.support.len() as f64 / db_len as f64)
    }

    /// Edge labels with support ≥ `sup_min` (the `E_freq` of Def. 5.1).
    pub fn frequent(&self, sup_min: f64, db_len: usize) -> Vec<(EdgeLabel, &EdgeStats)> {
        let min_count = min_count(sup_min, db_len);
        self.stats
            .iter()
            .filter(|(_, s)| s.support.len() >= min_count)
            .map(|(&l, s)| (l, s))
            .collect()
    }

    /// Edge labels with positive support below `sup_min` (the `E_inf` of
    /// Def. 5.2).
    pub fn infrequent(&self, sup_min: f64, db_len: usize) -> Vec<(EdgeLabel, &EdgeStats)> {
        let min_count = min_count(sup_min, db_len);
        self.stats
            .iter()
            .filter(|(_, s)| !s.support.is_empty() && s.support.len() < min_count)
            .map(|(&l, s)| (l, s))
            .collect()
    }

    /// Number of distinct edge labels tracked.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// Absolute support count implied by a relative threshold.
pub(crate) fn min_count(sup_min: f64, db_len: usize) -> usize {
    ((sup_min * db_len as f64).ceil() as usize).max(1)
}

/// Catalog bounds over one state of an [`EdgeCatalog`].
///
/// The bound of a tree is the set of graphs that hold, for every edge label
/// of the tree, at least as many edges with that label as the tree does.
/// Every graph that contains the tree is in its bound, and a super-tree's
/// bound is a subset of its subtree's, so the bound's size caps the support
/// of the tree and of every extension of it. Sets are bitsets over a sorted
/// `universe` of graph ids, and each `(label, multiplicity)` row is built
/// from the catalog once.
///
/// The swap step (`midas_core::swap`) reads the `(label, 1)` rows as label
/// coverage: the OR of a pattern's rows is the set of graphs holding one of
/// its edge labels.
pub struct Bounds<'a> {
    catalog: &'a EdgeCatalog,
    universe: Vec<GraphId>,
    rows: HashMap<(EdgeLabel, u32), GraphSet>,
}

/// A set of graphs: a bitset over the universe of a [`Bounds`].
#[derive(Debug, Clone)]
pub struct GraphSet(Vec<u64>);

impl GraphSet {
    /// Number of graphs in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no graph.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The intersection with `other`.
    pub fn and(&self, other: &GraphSet) -> GraphSet {
        GraphSet(self.0.iter().zip(&other.0).map(|(a, b)| a & b).collect())
    }

    /// The union with `other`.
    pub fn or(&self, other: &GraphSet) -> GraphSet {
        GraphSet(self.0.iter().zip(&other.0).map(|(a, b)| a | b).collect())
    }
}

impl<'a> Bounds<'a> {
    /// Bounds over `catalog` for the graphs of `universe`, which must be
    /// sorted and hold every graph of the catalog.
    pub fn new(catalog: &'a EdgeCatalog, universe: Vec<GraphId>) -> Self {
        debug_assert!(
            universe.windows(2).all(|w| w[0] < w[1]),
            "unsorted universe"
        );
        Bounds {
            catalog,
            universe,
            rows: HashMap::new(),
        }
    }

    /// The graphs with at least `count` edges labeled `label`.
    pub fn row(&mut self, label: EdgeLabel, count: u32) -> &GraphSet {
        let (catalog, universe) = (self.catalog, &self.universe);
        self.rows.entry((label, count)).or_insert_with(|| {
            let mut words = vec![0u64; universe.len().div_ceil(64)];
            for (id, &c) in catalog
                .get(label)
                .map(|s| &s.occurrences)
                .into_iter()
                .flatten()
            {
                if c >= count {
                    let slot = universe
                        .binary_search(id)
                        .expect("catalog graph in universe");
                    words[slot / 64] |= 1 << (slot % 64);
                }
            }
            GraphSet(words)
        })
    }

    /// The graphs of `ids` that lie in the universe.
    pub fn set_of(&self, ids: impl IntoIterator<Item = GraphId>) -> GraphSet {
        let mut words = vec![0u64; self.universe.len().div_ceil(64)];
        for id in ids {
            if let Ok(slot) = self.universe.binary_search(&id) {
                words[slot / 64] |= 1 << (slot % 64);
            }
        }
        GraphSet(words)
    }

    /// The bound of `tree`.
    pub(crate) fn of(&mut self, tree: &LabeledGraph) -> GraphSet {
        let n = self.universe.len();
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= 64 * n.div_ceil(64) - n; // clear the slots past `n`
        }
        let mut set = GraphSet(words);
        // Meeting the rows for counts 1..=m of a label is meeting row m.
        let mut seen: Vec<EdgeLabel> = Vec::new();
        for label in tree.edge_labels() {
            seen.push(label);
            let count = seen.iter().filter(|&&l| l == label).count() as u32;
            set = set.and(self.row(label, count));
        }
        set
    }

    /// Whether `set` holds the graph `id`.
    pub(crate) fn contains(&self, set: &GraphSet, id: GraphId) -> bool {
        self.universe
            .binary_search(&id)
            .is_ok_and(|slot| set.0[slot / 64] >> (slot % 64) & 1 == 1)
    }

    /// The graphs of `set`, in id order.
    pub(crate) fn ids<'s>(&'s self, set: &'s GraphSet) -> impl Iterator<Item = GraphId> + 's {
        set.0.iter().enumerate().flat_map(move |(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| self.universe[w * 64 + b])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn gid(i: u64) -> GraphId {
        GraphId(i)
    }

    #[test]
    fn build_counts_occurrences() {
        // G1: C-O-C has two C-O edges; G2: C-O has one.
        let g1 = path(&[0, 1, 0]);
        let g2 = path(&[0, 1]);
        let cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2)]);
        let co = cat.get(EdgeLabel::new(0, 1)).unwrap();
        assert_eq!(co.support.len(), 2);
        assert_eq!(co.occurrences[&gid(1)], 2);
        assert_eq!(co.occurrences[&gid(2)], 1);
        assert_eq!(co.total_occurrences(), 3);
    }

    #[test]
    fn lcov_matches_definition() {
        let g1 = path(&[0, 1, 0]);
        let g2 = path(&[0, 2]);
        let cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2)]);
        assert!((cat.lcov(EdgeLabel::new(0, 1), 2) - 0.5).abs() < 1e-12);
        assert!((cat.lcov(EdgeLabel::new(0, 2), 2) - 0.5).abs() < 1e-12);
        assert_eq!(cat.lcov(EdgeLabel::new(5, 5), 2), 0.0);
        assert_eq!(cat.lcov(EdgeLabel::new(0, 1), 0), 0.0);
    }

    #[test]
    fn frequent_infrequent_partition() {
        let g1 = path(&[0, 1]);
        let g2 = path(&[0, 1]);
        let g3 = path(&[0, 2]);
        let cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2), (gid(3), &g3)]);
        // sup_min = 0.5 over 3 graphs -> min count 2.
        let freq = cat.frequent(0.5, 3);
        assert_eq!(freq.len(), 1);
        assert_eq!(freq[0].0, EdgeLabel::new(0, 1));
        let inf = cat.infrequent(0.5, 3);
        assert_eq!(inf.len(), 1);
        assert_eq!(inf[0].0, EdgeLabel::new(0, 2));
    }

    #[test]
    fn remove_graph_drops_empty_labels() {
        let g1 = path(&[0, 1]);
        let g2 = path(&[0, 2]);
        let mut cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2)]);
        assert_eq!(cat.len(), 2);
        cat.remove_graph(gid(2), &g2);
        assert_eq!(cat.len(), 1);
        assert!(cat.get(EdgeLabel::new(0, 2)).is_none());
    }

    #[test]
    fn incremental_matches_rebuild() {
        let g1 = path(&[0, 1, 2]);
        let g2 = path(&[1, 2, 1]);
        let g3 = path(&[0, 0]);
        let mut cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2)]);
        cat.add_graph(gid(3), &g3);
        cat.remove_graph(gid(1), &g1);
        let rebuilt = EdgeCatalog::build([(gid(2), &g2), (gid(3), &g3)]);
        let lhs: Vec<_> = cat.labels().map(|(l, s)| (l, s.support.clone())).collect();
        let rhs: Vec<_> = rebuilt
            .labels()
            .map(|(l, s)| (l, s.support.clone()))
            .collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bounds_count_label_multiplicity() {
        // G1: C-O-C (two C-O); G2: C-O-N; G3: C-O; G4: S alone, no edge.
        let g1 = path(&[0, 1, 0]);
        let g2 = path(&[0, 1, 2]);
        let g3 = path(&[0, 1]);
        let cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2), (gid(3), &g3)]);
        let mut bounds = Bounds::new(&cat, vec![gid(1), gid(2), gid(3), gid(4)]);
        let mut bound = |tree: LabeledGraph| {
            let set = bounds.of(&tree);
            let ids: Vec<GraphId> = bounds.ids(&set).collect();
            assert_eq!(set.len(), ids.len());
            assert!(ids.iter().all(|&id| bounds.contains(&set, id)));
            ids
        };
        assert_eq!(bound(path(&[3])), vec![gid(1), gid(2), gid(3), gid(4)]);
        assert_eq!(bound(path(&[0, 1])), vec![gid(1), gid(2), gid(3)]);
        assert_eq!(bound(path(&[1, 0, 1])), vec![gid(1)]);
        assert_eq!(bound(path(&[0, 1, 2])), vec![gid(2)]);
        assert_eq!(bound(path(&[0, 1, 0, 1])), vec![]);
        assert_eq!(bound(path(&[5, 6])), vec![]);
    }

    #[test]
    fn bounds_span_several_words() {
        // 130 graphs: the bitset needs three words, the last one partial.
        let graphs: Vec<LabeledGraph> = (0..130)
            .map(|i| {
                if i % 2 == 0 {
                    path(&[0, 1])
                } else {
                    path(&[0, 2])
                }
            })
            .collect();
        let cat = EdgeCatalog::build(graphs.iter().enumerate().map(|(i, g)| (gid(i as u64), g)));
        let mut bounds = Bounds::new(&cat, (0..130).map(gid).collect());
        let co = bounds.of(&path(&[0, 1]));
        assert_eq!(co.len(), 65);
        assert_eq!(bounds.of(&path(&[0])).len(), 130);
        let ids: Vec<GraphId> = bounds.ids(&co).collect();
        assert_eq!(ids, (0..130).step_by(2).map(gid).collect::<Vec<_>>());
        assert!(!bounds.contains(&co, gid(129)) && bounds.contains(&co, gid(128)));
        assert!(!bounds.contains(&co, gid(500)));
    }

    #[test]
    fn label_rows_union_and_id_sets() {
        // G1: C-O; G2: C-N; G3: O-N.
        let g1 = path(&[0, 1]);
        let g2 = path(&[0, 2]);
        let g3 = path(&[1, 2]);
        let cat = EdgeCatalog::build([(gid(1), &g1), (gid(2), &g2), (gid(3), &g3)]);
        let mut bounds = Bounds::new(&cat, vec![gid(1), gid(2), gid(3)]);
        let co = bounds.row(EdgeLabel::new(0, 1), 1).clone();
        let union = co.or(bounds.row(EdgeLabel::new(0, 2), 1));
        assert_eq!(bounds.ids(&union).collect::<Vec<_>>(), vec![gid(1), gid(2)]);
        // Ids outside the universe are dropped.
        let picked = bounds.set_of([gid(2), gid(3), gid(9)]);
        assert_eq!(
            bounds.ids(&picked).collect::<Vec<_>>(),
            vec![gid(2), gid(3)]
        );
        assert_eq!(union.and(&picked).len(), 1);
        assert!(bounds.set_of([]).is_empty() && !picked.is_empty());
    }

    #[test]
    fn min_count_rounds_up_and_floors_at_one() {
        assert_eq!(min_count(0.5, 3), 2);
        assert_eq!(min_count(0.5, 4), 2);
        assert_eq!(min_count(0.0, 10), 1);
        assert_eq!(min_count(0.1, 0), 1);
    }
}
