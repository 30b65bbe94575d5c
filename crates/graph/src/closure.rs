//! Graph closure — the integration operation behind cluster summary graphs
//! (§2.3, Fig. 4).
//!
//! A *closure graph* integrates several data graphs into one labelled graph:
//! conceptually each input graph is padded with `ε`-dummies into an
//! *extended graph*, a mapping `φ` aligns the extended graphs, and each
//! vertex/edge of the closure takes the element-wise union of the aligned
//! attribute values (with `ε` removed). Our [`ClosureGraph`] realizes the
//! result directly: vertices carry label *multisets* (one contribution per
//! member graph), and edges carry the set of member graph ids that contain
//! them — exactly the bookkeeping the CSG maintenance steps of §4.4
//! manipulate.
//!
//! The alignment `φ` is computed greedily (label-first, then maximizing
//! matched edges); optimal alignment is NP-hard and the paper does not
//! require it (see DESIGN.md §5).

use crate::db::GraphId;
use crate::graph::{LabeledGraph, VertexId};
use crate::labels::LabelId;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a vertex within a [`ClosureGraph`].
pub type ClosureVertexId = u32;

/// A closure graph: the integration of a set of member graphs.
#[derive(Debug, Clone, Default)]
pub struct ClosureGraph {
    /// Per-vertex label multiset: label -> number of member graphs that
    /// mapped a vertex with this label here.
    vertex_labels: Vec<BTreeMap<LabelId, u32>>,
    /// Per-vertex supporting member ids.
    vertex_support: Vec<BTreeSet<GraphId>>,
    /// Adjacency with edge supports: `adj[u][v]` = ids of member graphs
    /// containing the edge `(u, v)`. Kept symmetric.
    adj: Vec<BTreeMap<ClosureVertexId, BTreeSet<GraphId>>>,
    /// All member graph ids.
    members: BTreeSet<GraphId>,
}

impl ClosureGraph {
    /// Creates an empty closure graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the closure of `graphs` by iterative insertion, largest graph
    /// first (which gives the greedy alignment the best anchor).
    pub fn from_graphs<'a, I>(graphs: I) -> Self
    where
        I: IntoIterator<Item = (GraphId, &'a LabeledGraph)>,
    {
        let mut items: Vec<(GraphId, &LabeledGraph)> = graphs.into_iter().collect();
        items.sort_by_key(|(id, g)| (std::cmp::Reverse(g.edge_count()), *id));
        let mut closure = Self::new();
        for (id, g) in items {
            closure.insert_graph(id, g);
        }
        closure
    }

    /// Number of (live) closure vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_labels
            .iter()
            .filter(|labels| !labels.is_empty())
            .count()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.adj
            .iter()
            .enumerate()
            .map(|(u, ns)| ns.keys().filter(|&&v| v as usize > u).count())
            .sum()
    }

    /// Member graph ids.
    pub fn members(&self) -> &BTreeSet<GraphId> {
        &self.members
    }

    /// Whether `(u, v)` is a live edge.
    pub fn has_edge(&self, u: ClosureVertexId, v: ClosureVertexId) -> bool {
        self.adj
            .get(u as usize)
            .is_some_and(|ns| ns.contains_key(&v))
    }

    /// Iterates live edges as `(u, v, support)` with `u < v`.
    pub fn edges(
        &self,
    ) -> impl Iterator<Item = (ClosureVertexId, ClosureVertexId, &BTreeSet<GraphId>)> {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            ns.iter()
                .filter(move |(&v, _)| v as usize > u)
                .map(move |(&v, sup)| (u as ClosureVertexId, v, sup))
        })
    }

    /// The label multiset of vertex `v` (empty if the vertex is dead).
    pub fn vertex_label_counts(&self, v: ClosureVertexId) -> &BTreeMap<LabelId, u32> {
        &self.vertex_labels[v as usize]
    }

    /// The representative label of vertex `v`: the most frequent
    /// contribution (ties broken toward the smallest label id). `None` for
    /// dead vertices.
    pub fn representative_label(&self, v: ClosureVertexId) -> Option<LabelId> {
        self.vertex_labels[v as usize]
            .iter()
            .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then(lb.cmp(la)))
            .map(|(&l, _)| l)
    }

    /// Greedy insertion of one member graph (the `φ`-alignment step).
    ///
    /// Vertices of `graph` are visited in descending-degree order. Each is
    /// mapped to the live closure vertex maximizing
    /// `(matched adjacent edges, exact label match)`, provided it either
    /// matches at least one edge or (when the vertex has no mapped neighbor
    /// yet) matches the label; otherwise a fresh closure vertex is created
    /// (the "extended graph" dummy in reverse).
    ///
    /// Returns the mapping `graph vertex -> closure vertex`.
    pub fn insert_graph(&mut self, id: GraphId, graph: &LabeledGraph) -> Vec<ClosureVertexId> {
        assert!(
            self.members.insert(id),
            "graph {id} is already a member of this closure"
        );
        let n = graph.vertex_count();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));

        let mut mapping = vec![u32::MAX; n];
        let mut used = vec![false; self.vertex_labels.len()];
        // Matched adjacent edges per closure vertex, and the vertices
        // counted for the current graph vertex.
        let mut edge_score = vec![0usize; self.vertex_labels.len()];
        let mut touched: Vec<ClosureVertexId> = Vec::new();

        for &v in &order {
            let label = graph.label(v);
            let mut any_mapped = false;
            // Adjacency is symmetric, so walking the images' neighbours
            // counts, for every closure vertex, the mapped neighbours it
            // has an edge to.
            for &w in graph.neighbors(v) {
                let m = mapping[w as usize];
                if m == u32::MAX {
                    continue;
                }
                any_mapped = true;
                for &c in self.adj[m as usize].keys() {
                    if used[c as usize] || self.vertex_labels[c as usize].is_empty() {
                        continue;
                    }
                    if edge_score[c as usize] == 0 {
                        touched.push(c);
                    }
                    edge_score[c as usize] += 1;
                }
            }
            // Accept only alignments that share structure or, for
            // frontier-free vertices, at least the label: the key is
            // `(matched adjacent edges, exact label match, lowest id)`.
            let best_vertex = if any_mapped {
                let best = touched.iter().copied().max_by_key(|&c| {
                    let label_match = self.vertex_labels[c as usize].contains_key(&label);
                    (edge_score[c as usize], label_match, std::cmp::Reverse(c))
                });
                for c in touched.drain(..) {
                    edge_score[c as usize] = 0;
                }
                best
            } else {
                (0..self.vertex_labels.len() as ClosureVertexId).find(|&c| {
                    !used[c as usize] && self.vertex_labels[c as usize].contains_key(&label)
                })
            };
            let target = match best_vertex {
                Some(c) => c,
                None => {
                    self.vertex_labels.push(BTreeMap::new());
                    self.vertex_support.push(BTreeSet::new());
                    self.adj.push(BTreeMap::new());
                    used.push(false);
                    edge_score.push(0);
                    (self.vertex_labels.len() - 1) as ClosureVertexId
                }
            };
            used[target as usize] = true;
            mapping[v as usize] = target;
            *self.vertex_labels[target as usize]
                .entry(label)
                .or_insert(0) += 1;
            self.vertex_support[target as usize].insert(id);
        }

        for &(u, v) in graph.edges() {
            let (cu, cv) = (mapping[u as usize], mapping[v as usize]);
            self.adj[cu as usize].entry(cv).or_default().insert(id);
            self.adj[cv as usize].entry(cu).or_default().insert(id);
        }
        mapping
    }

    /// Removes a member graph (§4.4 step 2): its id is dropped from every
    /// edge and vertex support; edges whose support empties are deleted, and
    /// vertices with no remaining support become dead.
    ///
    /// `graph` must be the same graph that was inserted under `id` — it is
    /// used to decrement the per-vertex label multiset.
    pub fn remove_graph(&mut self, id: GraphId, graph: &LabeledGraph) {
        if !self.members.remove(&id) {
            return;
        }
        // Labels: decrement one contribution per graph vertex label from the
        // closure vertices that `id` supports. We do not know the original
        // mapping, but each supported closure vertex holds exactly one
        // contribution from `id`; removing label counts greedily by matching
        // the graph's label multiset against supported vertices is exact
        // because contributions are per-graph-vertex.
        let mut remaining: BTreeMap<LabelId, u32> = BTreeMap::new();
        for &l in graph.labels() {
            *remaining.entry(l).or_insert(0) += 1;
        }
        for v in 0..self.vertex_labels.len() {
            if !self.vertex_support[v].remove(&id) {
                continue;
            }
            // This closure vertex held exactly one vertex of `id`; find a
            // label of `id` still unaccounted that this vertex carries.
            let candidate = self.vertex_labels[v]
                .keys()
                .copied()
                .find(|l| remaining.get(l).is_some_and(|&c| c > 0));
            if let Some(l) = candidate {
                *remaining.get_mut(&l).expect("checked above") -= 1;
                let count = self.vertex_labels[v].get_mut(&l).expect("candidate key");
                *count -= 1;
                if *count == 0 {
                    self.vertex_labels[v].remove(&l);
                }
            }
        }
        // Edges.
        for u in 0..self.adj.len() {
            let mut dead = Vec::new();
            for (&v, sup) in self.adj[u].iter_mut() {
                if sup.remove(&id) && sup.is_empty() {
                    dead.push(v);
                }
            }
            for v in dead {
                self.adj[u].remove(&v);
            }
        }
    }

    /// Projects the closure onto a plain [`LabeledGraph`] using
    /// representative labels, dropping dead vertices.
    ///
    /// Returns the projected graph together with, for each projected vertex,
    /// the originating closure vertex id.
    pub fn to_labeled_graph(&self) -> (LabeledGraph, Vec<ClosureVertexId>) {
        let mut back = Vec::new();
        let mut fwd = vec![u32::MAX; self.vertex_labels.len()];
        let mut g = LabeledGraph::new();
        for v in 0..self.vertex_labels.len() as ClosureVertexId {
            if let Some(label) = self.representative_label(v) {
                fwd[v as usize] = g.add_vertex(label);
                back.push(v);
            }
        }
        for (u, v, _) in self.edges() {
            let (fu, fv) = (fwd[u as usize], fwd[v as usize]);
            if fu != u32::MAX && fv != u32::MAX {
                g.add_edge(fu, fv);
            }
        }
        (g, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use proptest::prelude::*;

    fn gid(i: u64) -> GraphId {
        GraphId(i)
    }

    fn co_path() -> LabeledGraph {
        // C - O
        GraphBuilder::new().vertices(&[0, 1]).edge(0, 1).build()
    }

    fn con_path() -> LabeledGraph {
        // C - O - N
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .path(&[0, 1, 2])
            .build()
    }

    #[test]
    fn single_graph_closure_mirrors_graph() {
        let g = con_path();
        let c = ClosureGraph::from_graphs([(gid(1), &g)]);
        assert_eq!(c.vertex_count(), 3);
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.members().len(), 1);
        let (proj, _) = c.to_labeled_graph();
        assert_eq!(proj.sorted_labels(), vec![0, 1, 2]);
        assert_eq!(proj.edge_count(), 2);
    }

    #[test]
    fn overlapping_graphs_share_vertices() {
        // C-O and C-O-N should integrate into a 3-vertex closure.
        let a = co_path();
        let b = con_path();
        let c = ClosureGraph::from_graphs([(gid(1), &a), (gid(2), &b)]);
        assert_eq!(c.vertex_count(), 3);
        assert_eq!(c.edge_count(), 2);
        // The C-O edge is supported by both graphs.
        let shared = c
            .edges()
            .find(|(_, _, sup)| sup.len() == 2)
            .expect("shared edge exists");
        assert_eq!(shared.2.iter().count(), 2);
    }

    #[test]
    fn disjoint_labels_stay_separate() {
        let a = co_path(); // C-O
        let b = GraphBuilder::new().vertices(&[3, 4]).edge(0, 1).build(); // S-P
        let c = ClosureGraph::from_graphs([(gid(1), &a), (gid(2), &b)]);
        assert_eq!(c.vertex_count(), 4);
        assert_eq!(c.edge_count(), 2);
    }

    #[test]
    fn removal_restores_prior_structure() {
        let a = co_path();
        let b = con_path();
        let mut c = ClosureGraph::new();
        c.insert_graph(gid(1), &a);
        c.insert_graph(gid(2), &b);
        c.remove_graph(gid(2), &b);
        assert_eq!(c.members().len(), 1);
        // Only the C-O edge survives, supported by graph 1 alone.
        assert_eq!(c.edge_count(), 1);
        let (_, _, sup) = c.edges().next().unwrap();
        assert_eq!(sup.iter().copied().collect::<Vec<_>>(), vec![gid(1)]);
        // N's vertex died with graph 2.
        assert_eq!(c.vertex_count(), 2);
    }

    #[test]
    fn remove_unknown_member_is_noop() {
        let a = co_path();
        let mut c = ClosureGraph::new();
        c.insert_graph(gid(1), &a);
        c.remove_graph(gid(9), &a);
        assert_eq!(c.members().len(), 1);
        assert_eq!(c.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn duplicate_member_rejected() {
        let a = co_path();
        let mut c = ClosureGraph::new();
        c.insert_graph(gid(1), &a);
        c.insert_graph(gid(1), &a);
    }

    #[test]
    fn representative_label_is_majority() {
        // Two C-O graphs and one differing alignment contribute labels.
        let a = co_path();
        let b = co_path();
        let mut c = ClosureGraph::new();
        c.insert_graph(gid(1), &a);
        c.insert_graph(gid(2), &b);
        for v in 0..2 {
            let rep = c.representative_label(v).unwrap();
            assert!(rep == 0 || rep == 1);
            assert_eq!(c.vertex_label_counts(v).values().sum::<u32>(), 2);
        }
    }

    #[test]
    fn projection_skips_dead_vertices() {
        let a = co_path();
        let b = con_path();
        let mut c = ClosureGraph::new();
        c.insert_graph(gid(1), &a);
        c.insert_graph(gid(2), &b);
        c.remove_graph(gid(2), &b);
        let (proj, back) = c.to_labeled_graph();
        assert_eq!(proj.vertex_count(), 2);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn larger_first_ordering_in_from_graphs() {
        // from_graphs must anchor on the larger graph; either way the
        // closure of a graph and its subgraph equals the larger graph.
        let a = co_path();
        let b = con_path();
        let c1 = ClosureGraph::from_graphs([(gid(1), &a), (gid(2), &b)]);
        let c2 = ClosureGraph::from_graphs([(gid(2), &b), (gid(1), &a)]);
        assert_eq!(c1.vertex_count(), c2.vertex_count());
        assert_eq!(c1.edge_count(), c2.edge_count());
    }

    #[test]
    fn fig4_style_closure_of_two_rings() {
        // Two 4-cycles differing in one label integrate into one 4-cycle
        // whose differing vertex carries both labels.
        let r1 = GraphBuilder::new()
            .vertices(&[0, 1, 0, 1])
            .path(&[0, 1, 2, 3])
            .edge(3, 0)
            .build();
        let r2 = GraphBuilder::new()
            .vertices(&[0, 1, 0, 2])
            .path(&[0, 1, 2, 3])
            .edge(3, 0)
            .build();
        let c = ClosureGraph::from_graphs([(gid(1), &r1), (gid(2), &r2)]);
        assert_eq!(c.vertex_count(), 4, "rings align vertex-for-vertex");
        assert_eq!(c.edge_count(), 4);
        let multi = (0..4)
            .filter(|&v| c.vertex_label_counts(v).len() == 2)
            .count();
        assert_eq!(multi, 1, "exactly one vertex carries {{O, N}}");
    }

    /// The alignment loop `insert_graph` replaced, which scans every
    /// closure slot and probes its edges to each mapped neighbour: the
    /// reference the production insert is checked against.
    fn reference_insert(
        closure: &mut ClosureGraph,
        id: GraphId,
        graph: &LabeledGraph,
    ) -> Vec<ClosureVertexId> {
        assert!(closure.members.insert(id));
        let n = graph.vertex_count();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        let mut mapping = vec![u32::MAX; n];
        let mut used = vec![false; closure.vertex_labels.len()];
        for &v in &order {
            let label = graph.label(v);
            let mapped_neighbors: Vec<ClosureVertexId> = graph
                .neighbors(v)
                .iter()
                .filter_map(|&w| {
                    let m = mapping[w as usize];
                    (m != u32::MAX).then_some(m)
                })
                .collect();
            let mut best: Option<(usize, bool, std::cmp::Reverse<u32>)> = None;
            let mut best_vertex = None;
            for c in 0..closure.vertex_labels.len() as ClosureVertexId {
                if used[c as usize] || closure.vertex_labels[c as usize].is_empty() {
                    continue;
                }
                let label_match = closure.vertex_labels[c as usize].contains_key(&label);
                let edge_score = mapped_neighbors
                    .iter()
                    .filter(|&&m| closure.has_edge(c, m))
                    .count();
                if edge_score == 0 && !(mapped_neighbors.is_empty() && label_match) {
                    continue;
                }
                let key = (edge_score, label_match, std::cmp::Reverse(c));
                if best.as_ref().is_none_or(|b| key > *b) {
                    best = Some(key);
                    best_vertex = Some(c);
                }
            }
            let target = match best_vertex {
                Some(c) => c,
                None => {
                    closure.vertex_labels.push(BTreeMap::new());
                    closure.vertex_support.push(BTreeSet::new());
                    closure.adj.push(BTreeMap::new());
                    used.push(false);
                    (closure.vertex_labels.len() - 1) as ClosureVertexId
                }
            };
            used[target as usize] = true;
            mapping[v as usize] = target;
            *closure.vertex_labels[target as usize]
                .entry(label)
                .or_insert(0) += 1;
            closure.vertex_support[target as usize].insert(id);
        }
        for &(u, v) in graph.edges() {
            let (cu, cv) = (mapping[u as usize], mapping[v as usize]);
            closure.adj[cu as usize].entry(cv).or_default().insert(id);
            closure.adj[cv as usize].entry(cu).or_default().insert(id);
        }
        mapping
    }

    /// A labelled graph on up to 7 vertices and 3 labels, possibly
    /// disconnected.
    fn small_graph() -> impl Strategy<Value = LabeledGraph> {
        (
            proptest::collection::vec(0u32..3, 1..8),
            proptest::collection::vec((0u32..7, 0u32..7), 0..14),
        )
            .prop_map(|(labels, pairs)| {
                let mut g = LabeledGraph::new();
                for &l in &labels {
                    g.add_vertex(l);
                }
                let n = labels.len() as u32;
                for (u, v) in pairs {
                    let (u, v) = (u % n, v % n);
                    if u != v && !g.has_edge(u, v) {
                        g.add_edge(u, v);
                    }
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over a stream of inserts and removals, the neighbour-walking
        /// alignment returns the mappings of the slot-scanning one and
        /// leaves an identical closure (labels, supports, adjacency,
        /// members).
        #[test]
        fn neighbour_walk_alignment_matches_slot_scan(
            graphs in proptest::collection::vec(small_graph(), 1..10),
            ops in proptest::collection::vec((0usize..10, 0u32..3), 1..24),
        ) {
            let mut fast = ClosureGraph::new();
            let mut slow = ClosureGraph::new();
            for (step, (pick, action)) in ops.into_iter().enumerate() {
                let i = pick % graphs.len();
                let id = gid(i as u64);
                if fast.members().contains(&id) {
                    if action == 0 {
                        fast.remove_graph(id, &graphs[i]);
                        slow.remove_graph(id, &graphs[i]);
                    }
                } else {
                    let got = fast.insert_graph(id, &graphs[i]);
                    let want = reference_insert(&mut slow, id, &graphs[i]);
                    prop_assert_eq!(got, want, "step {}", step);
                }
                prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "step {}", step);
            }
        }
    }
}
