//! The IFE-Index (Def. 5.2): infrequent-edge embedding counts over data
//! graphs (EG-matrix). The EP-matrix side is computed on demand by
//! [`IfeIndex::pattern_counts`].
//!
//! Edge "embeddings" are occurrences: the number of edges of a graph whose
//! label matches. Graphs and patterns are counted the same way, so
//! dominance comparisons in [`crate::scov`] are consistent.

use crate::sparse::SparseMatrix;
use midas_graph::{EdgeLabel, GraphId, LabeledGraph};
use std::collections::BTreeSet;

/// The IFE-Index.
#[derive(Debug, Clone, Default)]
pub struct IfeIndex {
    tracked: BTreeSet<EdgeLabel>,
    eg: SparseMatrix<EdgeLabel, GraphId>,
}

fn occurrences(graph: &LabeledGraph, label: EdgeLabel) -> u32 {
    graph.edge_labels().filter(|&l| l == label).count() as u32
}

impl IfeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index over the infrequent edge labels `tracked` and `graphs`:
    /// the empty index after one [`Self::refresh_edges`], the rules' own
    /// row path.
    pub fn build<'a, G>(tracked: BTreeSet<EdgeLabel>, graphs: G) -> Self
    where
        G: IntoIterator<Item = (GraphId, &'a LabeledGraph)>,
    {
        let mut index = Self::new();
        index.refresh_edges(tracked, graphs);
        index
    }

    /// The tracked infrequent edge labels.
    pub fn tracked(&self) -> &BTreeSet<EdgeLabel> {
        &self.tracked
    }

    /// The EG-matrix.
    pub fn eg(&self) -> &SparseMatrix<EdgeLabel, GraphId> {
        &self.eg
    }

    /// Adds a data-graph column (rule 3).
    pub fn add_graph(&mut self, id: GraphId, graph: &LabeledGraph) {
        for &label in &self.tracked {
            self.eg.set(label, id, occurrences(graph, label));
        }
    }

    /// Removes a data-graph column (rule 4).
    pub fn remove_graph(&mut self, id: GraphId) {
        self.eg.remove_col(id);
    }

    /// The occurrence count of every tracked edge label in `pattern`:
    /// non-zero entries only, in label order. This is the pattern's
    /// EP-matrix column of Def. 5.2, computed on demand, and the IFE half
    /// of its [`crate::scov::PatternProfile`].
    pub fn pattern_counts(&self, pattern: &LabeledGraph) -> Vec<(EdgeLabel, u32)> {
        self.tracked
            .iter()
            .filter_map(|&label| {
                let count = occurrences(pattern, label);
                (count > 0).then_some((label, count))
            })
            .collect()
    }

    /// Reconciles the tracked edge set (rules 1–2): vanished labels lose
    /// their rows; new labels get rows counted over the supplied graphs.
    pub fn refresh_edges<'a, G>(&mut self, target: BTreeSet<EdgeLabel>, graphs: G)
    where
        G: IntoIterator<Item = (GraphId, &'a LabeledGraph)>,
    {
        for &gone in self.tracked.difference(&target) {
            self.eg.remove_row(gone);
        }
        let fresh: Vec<EdgeLabel> = target.difference(&self.tracked).copied().collect();
        if !fresh.is_empty() {
            for (id, g) in graphs {
                for &label in &fresh {
                    self.eg.set(label, id, occurrences(g, label));
                }
            }
        }
        self.tracked = target;
    }

    /// Approximate heap size in bytes (for the Exp 2 memory report).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(EdgeLabel, GraphId, u32)>() * 2;
        self.eg.nnz() * entry + self.tracked.len() * 16
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
        // Track C-N (paper's f11, Fig. 5(e)).
        let cn = EdgeLabel::new(0, 2);
        let g1 = path(&[0, 2, 0]); // two C-N edges
        let g2 = path(&[0, 1]); // none
        let p1 = path(&[0, 2]); // one
        let index = IfeIndex::build(BTreeSet::from([cn]), [(gid(1), &g1), (gid(2), &g2)]);
        assert_eq!(index.eg().get(cn, gid(1)), 2);
        assert_eq!(index.eg().get(cn, gid(2)), 0);
        assert_eq!(index.pattern_counts(&p1), vec![(cn, 1)]);
    }

    #[test]
    fn untracked_labels_are_ignored() {
        let cn = EdgeLabel::new(0, 2);
        let g = path(&[0, 1, 0]); // C-O edges, untracked
        let index = IfeIndex::build(BTreeSet::from([cn]), [(gid(1), &g)]);
        assert_eq!(index.eg().nnz(), 0);
    }

    #[test]
    fn graph_and_pattern_columns_update() {
        let cn = EdgeLabel::new(0, 2);
        let mut index = IfeIndex::build(BTreeSet::from([cn]), []);
        let g = path(&[2, 0, 2]);
        index.add_graph(gid(5), &g);
        assert_eq!(index.eg().get(cn, gid(5)), 2);
        index.remove_graph(gid(5));
        assert_eq!(index.eg().nnz(), 0);
        // A pattern's side is counted on demand, never stored.
        assert_eq!(index.pattern_counts(&g), vec![(cn, 2)]);
    }

    #[test]
    fn refresh_edges_diffs_rows() {
        let cn = EdgeLabel::new(0, 2);
        let cs = EdgeLabel::new(0, 3);
        let g = path(&[2, 0, 3]); // one C-N, one C-S
        let mut index = IfeIndex::build(BTreeSet::from([cn]), [(gid(1), &g)]);
        assert_eq!(index.eg().get(cn, gid(1)), 1);
        index.refresh_edges(BTreeSet::from([cs]), [(gid(1), &g)]);
        assert_eq!(index.eg().get(cn, gid(1)), 0, "C-N row dropped");
        assert_eq!(index.eg().get(cs, gid(1)), 1, "C-S row added");
        assert_eq!(index.tracked().len(), 1);
    }

    #[test]
    fn approx_bytes_positive() {
        let cn = EdgeLabel::new(0, 2);
        let g = path(&[0, 2]);
        let index = IfeIndex::build(BTreeSet::from([cn]), [(gid(1), &g)]);
        assert!(index.approx_bytes() > 0);
    }
}
