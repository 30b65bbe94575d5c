//! The graph database `D` and batch updates `ΔD` (§2.1, §3.1).
//!
//! A [`GraphDb`] holds a large collection of small/medium data graphs, each
//! with a unique stable [`GraphId`]. Evolution happens through
//! [`BatchUpdate`]s — a set of graph insertions `Δ⁺` and deletions `Δ⁻` —
//! matching the paper's assumption that repositories like PubChem are
//! updated periodically in batches rather than streamed.

use crate::csr::Csr;
use crate::graph::LabeledGraph;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Stable identifier of a data graph within a [`GraphDb`].
///
/// Ids are never reused, so `GraphId`s remain valid across deletions (they
/// simply stop resolving), which is what the CSG edge-support sets and the
/// index matrices of §5.1 rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GraphId(pub u64);

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// A batch update `ΔD`: insertions `Δ⁺` and deletions `Δ⁻`.
#[derive(Debug, Clone, Default)]
pub struct BatchUpdate {
    /// Graphs to insert (`Δ⁺`).
    pub insert: Vec<LabeledGraph>,
    /// Ids of graphs to delete (`Δ⁻`).
    pub delete: Vec<GraphId>,
}

impl BatchUpdate {
    /// An update inserting `graphs` and deleting nothing.
    pub fn insert_only(graphs: Vec<LabeledGraph>) -> Self {
        BatchUpdate {
            insert: graphs,
            delete: Vec::new(),
        }
    }

    /// An update deleting `ids` and inserting nothing.
    pub fn delete_only(ids: Vec<GraphId>) -> Self {
        BatchUpdate {
            insert: Vec::new(),
            delete: ids,
        }
    }

    /// Whether the batch contains no unit updates.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Total number of unit updates `|Δ⁺| + |Δ⁻|`.
    pub fn len(&self) -> usize {
        self.insert.len() + self.delete.len()
    }
}

/// A database of data graphs with stable ids and batch evolution.
///
/// Graphs are stored behind `Arc` so clusters, indices and summaries can
/// share them without copying. Iteration is in ascending id order, keeping
/// all downstream algorithms deterministic.
///
/// Every stored graph also carries a [`Csr`] twin ([`GraphDb::csr`]) built
/// at insertion and dropped at deletion. It is the only CSR of a data
/// graph: the [`crate::MatchKernel`] and its memo borrow it, so the
/// plan-compiled matcher ([`crate::plan`]) always finds an up-to-date
/// label-sliced view — the two maps move through [`GraphDb::insert`] / [`GraphDb::remove`] /
/// [`GraphDb::apply`] together and can never diverge.
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    graphs: BTreeMap<GraphId, Arc<LabeledGraph>>,
    csrs: BTreeMap<GraphId, Arc<Csr>>,
    next_id: u64,
}

impl GraphDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from a collection of graphs, assigning fresh ids.
    pub fn from_graphs<I>(graphs: I) -> Self
    where
        I: IntoIterator<Item = LabeledGraph>,
    {
        let mut db = Self::new();
        for g in graphs {
            db.insert(g);
        }
        db
    }

    /// Inserts a graph, returning its new id. The CSR twin is built here,
    /// once, so readers never observe a graph without one.
    pub fn insert(&mut self, graph: LabeledGraph) -> GraphId {
        let id = GraphId(self.next_id);
        self.next_id += 1;
        self.csrs.insert(id, Arc::new(Csr::from_graph(&graph)));
        self.graphs.insert(id, Arc::new(graph));
        id
    }

    /// Removes the graph `id`, returning it if present. Its CSR twin is
    /// dropped in the same step.
    pub fn remove(&mut self, id: GraphId) -> Option<Arc<LabeledGraph>> {
        self.csrs.remove(&id);
        self.graphs.remove(&id)
    }

    /// Applies a batch update, returning the ids assigned to `Δ⁺` (in input
    /// order) and the subset of `Δ⁻` ids that were actually present.
    ///
    /// Deletions are applied first, then insertions, so a batch can never
    /// delete a graph it just inserted.
    pub fn apply(&mut self, update: BatchUpdate) -> (Vec<GraphId>, Vec<GraphId>) {
        let mut deleted = Vec::with_capacity(update.delete.len());
        for id in update.delete {
            if self.remove(id).is_some() {
                deleted.push(id);
            }
        }
        let inserted = update.insert.into_iter().map(|g| self.insert(g)).collect();
        (inserted, deleted)
    }

    /// Looks up a graph by id.
    pub fn get(&self, id: GraphId) -> Option<&Arc<LabeledGraph>> {
        self.graphs.get(&id)
    }

    /// The CSR twin of graph `id`, if the graph is live. Kept in lockstep
    /// with [`GraphDb::get`] by insert/remove/apply.
    pub fn csr(&self, id: GraphId) -> Option<&Csr> {
        self.csrs.get(&id).map(Arc::as_ref)
    }

    /// Iterates `(id, CSR twin)` in ascending id order — the shape the
    /// [`crate::MatchKernel`] bulk operations take.
    pub fn csrs(&self) -> impl Iterator<Item = (GraphId, &Csr)> {
        self.csrs.iter().map(|(&id, csr)| (id, csr.as_ref()))
    }

    /// Whether `id` resolves to a live graph.
    pub fn contains(&self, id: GraphId) -> bool {
        self.graphs.contains_key(&id)
    }

    /// Number of graphs `|D|`.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Iterates `(id, graph)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, &Arc<LabeledGraph>)> {
        self.graphs.iter().map(|(&id, g)| (id, g))
    }

    /// All live ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = GraphId> + '_ {
        self.graphs.keys().copied()
    }

    /// The largest graph by edge count, if any — `G_max` in the paper's
    /// complexity statements.
    pub fn largest(&self) -> Option<(GraphId, &Arc<LabeledGraph>)> {
        self.iter().max_by_key(|(_, g)| g.edge_count())
    }

    /// Total number of edges across all graphs.
    pub fn total_edges(&self) -> usize {
        self.graphs.values().map(|g| g.edge_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn tiny(label: u32) -> LabeledGraph {
        GraphBuilder::new()
            .vertices(&[label, label])
            .edge(0, 1)
            .build()
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let mut db = GraphDb::new();
        let a = db.insert(tiny(0));
        let b = db.insert(tiny(1));
        assert!(a < b);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut db = GraphDb::new();
        let a = db.insert(tiny(0));
        db.remove(a);
        let b = db.insert(tiny(1));
        assert_ne!(a, b);
        assert!(!db.contains(a));
        assert!(db.contains(b));
    }

    #[test]
    fn apply_deletes_then_inserts() {
        let mut db = GraphDb::from_graphs([tiny(0), tiny(1)]);
        let ids: Vec<_> = db.ids().collect();
        let update = BatchUpdate {
            insert: vec![tiny(2), tiny(3)],
            delete: vec![ids[0], GraphId(999)],
        };
        let (inserted, deleted) = db.apply(update);
        assert_eq!(inserted.len(), 2);
        assert_eq!(deleted, vec![ids[0]]);
        assert_eq!(db.len(), 3);
        // The phantom id 999 was ignored.
        assert!(!db.contains(GraphId(999)));
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut db = GraphDb::new();
        for i in 0..5 {
            db.insert(tiny(i));
        }
        let ids: Vec<_> = db.ids().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn largest_by_edge_count() {
        let mut db = GraphDb::new();
        db.insert(tiny(0));
        let big = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build();
        let big_id = db.insert(big);
        assert_eq!(db.largest().unwrap().0, big_id);
        assert_eq!(db.total_edges(), 4);
    }

    /// The CSR map must mirror the graph map exactly: same ids, and each
    /// CSR agreeing with its graph's adjacency.
    fn assert_csr_in_sync(db: &GraphDb) {
        let graph_ids: Vec<GraphId> = db.ids().collect();
        let csr_ids: Vec<GraphId> = db.csrs.keys().copied().collect();
        assert_eq!(graph_ids, csr_ids, "csr map diverged from graph map");
        for (id, g) in db.iter() {
            let csr = db.csr(id).expect("live graph has a csr twin");
            assert_eq!(csr.vertex_count(), g.vertex_count());
            assert_eq!(csr.edge_count(), g.edge_count());
            for v in g.vertices() {
                assert_eq!(csr.label(v), g.label(v));
                let mut want: Vec<_> = g.neighbors(v).to_vec();
                want.sort_unstable();
                let mut got: Vec<_> = csr.neighbors(v).to_vec();
                got.sort_unstable();
                assert_eq!(got, want, "{id}: neighbor set of {v}");
            }
        }
    }

    #[test]
    fn csr_twins_stay_in_sync_through_batches() {
        let mut db = GraphDb::from_graphs([tiny(0), tiny(1), tiny(2)]);
        assert_csr_in_sync(&db);
        // A few insert/delete batches, including deletes of fresh ids.
        let ids: Vec<GraphId> = db.ids().collect();
        db.apply(BatchUpdate {
            insert: vec![tiny(3), tiny(4)],
            delete: vec![ids[1]],
        });
        assert_csr_in_sync(&db);
        let ids: Vec<GraphId> = db.ids().collect();
        db.apply(BatchUpdate::delete_only(vec![ids[0], ids[2], GraphId(999)]));
        assert_csr_in_sync(&db);
        db.apply(BatchUpdate::insert_only(vec![GraphBuilder::new()
            .vertices(&[0, 1, 0])
            .edge(0, 1)
            .edge(1, 2)
            .build()]));
        assert_csr_in_sync(&db);
        // Direct insert/remove too.
        let id = db.insert(tiny(7));
        assert_csr_in_sync(&db);
        db.remove(id);
        assert_csr_in_sync(&db);
    }

    #[test]
    fn batch_update_helpers() {
        let u = BatchUpdate::insert_only(vec![tiny(0)]);
        assert_eq!(u.len(), 1);
        assert!(!u.is_empty());
        let d = BatchUpdate::delete_only(vec![GraphId(0)]);
        assert_eq!(d.len(), 1);
        assert!(BatchUpdate::default().is_empty());
    }
}
