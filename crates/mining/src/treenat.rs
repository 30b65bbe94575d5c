//! TreeNat-style frequent-tree mining (§4.2, Balcázar et al. \[9\]).
//!
//! Enumerates labeled free trees level-wise: level-1 candidates are the
//! frequent edge labels, and a level-`k` tree is extended by attaching one
//! new labeled vertex to each of its vertices. Duplicate extensions are
//! collapsed through the canonical [`TreeKey`]; supports are counted by
//! subtree-into-graph isomorphism on the database's CSR twins, restricted
//! to the parent's supporting graphs (anti-monotonicity) that lie in the
//! tree's edge-catalog bound ([`crate::edges`]). The result is a
//! [`TreeLattice`] whose closed flags are derived from the exact support
//! sets.

use crate::canonical::{edge_tree, tree_key, TreeKey};
use crate::edges::{min_count, Bounds, EdgeCatalog, GraphSet};
use crate::lattice::{TreeEntry, TreeLattice};
use midas_graph::{EdgeLabel, GraphDb, GraphId, LabeledGraph, MatchPlan, VertexId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Minimum relative support `sup_min` (§3.3). The paper's default
    /// setting is 0.5 (§7.1).
    pub sup_min: f64,
    /// Maximum tree size in edges. CATAPULT's feature trees are small; the
    /// paper notes FCT subgraph-isomorphism checks stay cheap "due to small
    /// size of FCTs" (§5.1). Default 4.
    pub max_edges: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            sup_min: 0.5,
            max_edges: 4,
        }
    }
}

/// Whether the compiled tree `plan` (canonical key `key`) embeds in the
/// database graph `id`, matched on the graph's CSR twin. The search runs
/// under the `(key digest, graph id)` exemplar context, so its
/// `plan.search_ns` tail exemplars are attributed.
pub(crate) fn tree_in_graph(plan: &MatchPlan, key: &TreeKey, db: &GraphDb, id: GraphId) -> bool {
    let _ctx = midas_obs::enabled().then(|| midas_obs::exemplar::with_context(key.digest(), id.0));
    plan.is_subgraph_of(
        db.csr(id)
            .expect("mined graph id must resolve in the database"),
    )
}

/// Mines the frequent-tree lattice of the graphs `ids` of `db` at
/// `config.sup_min`.
///
/// `ids` is any subset of the database. Closed flags are recomputed before
/// returning.
pub fn mine_lattice(db: &GraphDb, ids: &[GraphId], config: &MiningConfig) -> TreeLattice {
    let catalog = catalog_of(db, ids);
    let mut universe = ids.to_vec();
    universe.sort_unstable();
    let mut bounds = Bounds::new(&catalog, universe);
    let need = min_count(config.sup_min, ids.len());
    let mut lattice = mine_supports(db, ids, config, &catalog, &mut bounds, need);
    lattice.recompute_closed_flags();
    lattice
}

/// The edge catalog of the graphs `ids` of `db`.
pub(crate) fn catalog_of(db: &GraphDb, ids: &[GraphId]) -> EdgeCatalog {
    EdgeCatalog::build(ids.iter().map(|&id| {
        let g = db
            .get(id)
            .expect("mined graph id must resolve in the database");
        (id, g.as_ref())
    }))
}

/// One mined tree: key, structure, support within the mined graphs, and
/// catalog bound.
type Mined = (TreeKey, LabeledGraph, BTreeSet<GraphId>, GraphSet);

/// The support miner behind [`mine_lattice`]: the trees of at most
/// `config.max_edges` edges that at least `min_count(config.sup_min,
/// ids.len())` of the graphs `ids` contain, with their exact supports
/// within `ids`. `local` is the edge catalog of `ids`. A tree whose bound
/// under `bounds` holds fewer than `floor` graphs is cut before its key is
/// built, and so is every extension of it. Closed flags are left unset.
pub(crate) fn mine_supports(
    db: &GraphDb,
    ids: &[GraphId],
    config: &MiningConfig,
    local: &EdgeCatalog,
    bounds: &mut Bounds<'_>,
    floor: usize,
) -> TreeLattice {
    let mut lattice = TreeLattice::new();
    let n = ids.len();
    if n == 0 || config.max_edges == 0 {
        return lattice;
    }
    let need = min_count(config.sup_min, n);

    // Level 1: edge labels frequent in `ids` whose bound clears the floor,
    // as 2-vertex trees.
    let mut frontier: Vec<Mined> = Vec::new();
    let mut level_one: Vec<EdgeLabel> = Vec::new();
    for (label, stats) in local.labels() {
        if stats.support.len() < need {
            continue;
        }
        let bound = bounds.row(label, 1).clone();
        if bound.len() < floor {
            continue;
        }
        let tree = edge_tree(label.0, label.1);
        level_one.push(label);
        frontier.push((tree_key(&tree), tree, stats.support.clone(), bound));
    }
    for (key, tree, support, _) in &frontier {
        lattice.insert(
            key.clone(),
            TreeEntry {
                tree: tree.clone(),
                plan: Arc::new(MatchPlan::compile(tree)),
                support: support.clone(),
                closed: false,
            },
        );
    }

    // Extension labels allowed per anchor label, derived from the level-1
    // edges (a tree extension's new edge must itself be frequent).
    let mut extension_labels: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &EdgeLabel(a, b) in &level_one {
        extension_labels.entry(a).or_default().push(b);
        if a != b {
            extension_labels.entry(b).or_default().push(a);
        }
    }

    for _level in 2..=config.max_edges {
        // Generate deduplicated candidates with one parent support each. An
        // extension's bound is its parent's, met with the row of its new
        // edge's label at the label's new multiplicity.
        let mut candidates: BTreeMap<TreeKey, (LabeledGraph, BTreeSet<GraphId>, GraphSet)> =
            BTreeMap::new();
        for (_, tree, support, bound) in &frontier {
            let labels: Vec<EdgeLabel> = tree.edge_labels().collect();
            for v in 0..tree.vertex_count() as VertexId {
                let Some(new_labels) = extension_labels.get(&tree.label(v)) else {
                    continue;
                };
                for &nl in new_labels {
                    let label = EdgeLabel::new(tree.label(v), nl);
                    let count = labels.iter().filter(|&&l| l == label).count() as u32 + 1;
                    let extended_bound = bound.and(bounds.row(label, count));
                    if extended_bound.len() < floor {
                        continue;
                    }
                    let mut extended = tree.clone();
                    let nv = extended.add_vertex(nl);
                    extended.add_edge(v, nv);
                    let key = tree_key(&extended);
                    candidates
                        .entry(key)
                        .and_modify(|(_, sup, _)| {
                            // Intersect parent supports: the candidate's
                            // support is contained in every parent's.
                            *sup = sup.intersection(support).copied().collect();
                        })
                        .or_insert_with(|| (extended, support.clone(), extended_bound));
                }
            }
        }
        // Count exact supports over the parents' graphs inside the bound,
        // and keep the frequent trees.
        let mut next: Vec<Mined> = Vec::new();
        for (key, (tree, parent_support, bound)) in candidates {
            let tests: Vec<GraphId> = parent_support
                .into_iter()
                .filter(|&id| bounds.contains(&bound, id))
                .collect();
            if tests.len() < need {
                continue;
            }
            let plan = Arc::new(MatchPlan::compile(&tree));
            let support: BTreeSet<GraphId> = tests
                .into_iter()
                .filter(|&id| tree_in_graph(&plan, &key, db, id))
                .collect();
            if support.len() >= need {
                lattice.insert(
                    key.clone(),
                    TreeEntry {
                        tree: tree.clone(),
                        plan,
                        support: support.clone(),
                        closed: false,
                    },
                );
                next.push((key, tree, support, bound));
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }

    lattice
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    /// The reference miner: enumerates *all* trees up to `max_edges` by
    /// brute-force expansion from every graph's spanning substructures.
    ///
    /// Exponential and tiny-input-only; used to validate [`mine_lattice`].
    fn mine_lattice_brute_force(
        graphs: &[(GraphId, &LabeledGraph)],
        config: &MiningConfig,
    ) -> TreeLattice {
        let n = graphs.len();
        let mut lattice = TreeLattice::new();
        if n == 0 {
            return lattice;
        }
        let need = min_count(config.sup_min, n);
        // Enumerate all connected subtrees of every graph (by edge-set growth).
        let mut seen: BTreeMap<TreeKey, (LabeledGraph, BTreeSet<GraphId>)> = BTreeMap::new();
        for &(id, g) in graphs {
            let mut subtrees: BTreeSet<TreeKey> = BTreeSet::new();
            // BFS over connected edge subsets that stay acyclic.
            let mut queue: Vec<Vec<(VertexId, VertexId)>> =
                g.edges().iter().map(|&e| vec![e]).collect();
            while let Some(edge_set) = queue.pop() {
                let sub = g.edge_subgraph(&edge_set);
                if !crate::canonical::is_tree(&sub) {
                    continue;
                }
                let key = tree_key(&sub);
                let new = subtrees.insert(key.clone());
                if new {
                    seen.entry(key)
                        .and_modify(|(_, sup)| {
                            sup.insert(id);
                        })
                        .or_insert_with(|| (sub.clone(), [id].into()));
                }
                if edge_set.len() < config.max_edges {
                    for &e in g.edges() {
                        if !edge_set.contains(&e) {
                            let mut bigger = edge_set.clone();
                            bigger.push(e);
                            bigger.sort_unstable();
                            bigger.dedup();
                            queue.push(bigger);
                        }
                    }
                }
            }
        }
        for (key, (tree, support)) in seen {
            if support.len() >= need {
                lattice.insert(
                    key,
                    TreeEntry {
                        plan: Arc::new(MatchPlan::compile(&tree)),
                        tree,
                        support,
                        closed: false,
                    },
                );
            }
        }
        lattice.recompute_closed_flags();
        lattice
    }

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    /// A database of clones of `graphs` plus its ids in insertion order.
    fn db_of(graphs: &[&LabeledGraph]) -> (GraphDb, Vec<GraphId>) {
        let db = GraphDb::from_graphs(graphs.iter().map(|&g| g.clone()));
        let ids = db.ids().collect();
        (db, ids)
    }

    #[test]
    fn mines_frequent_edges_at_level_one() {
        let g1 = path(&[0, 1]);
        let g2 = path(&[0, 1, 2]);
        let g3 = path(&[3, 3]);
        let (db, ids) = db_of(&[&g1, &g2, &g3]);
        let lat = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 0.5,
                max_edges: 1,
            },
        );
        // Only C-O appears in >= 2 of 3 graphs.
        assert_eq!(lat.len(), 1);
        let (_, entry) = lat.iter().next().unwrap();
        assert_eq!(entry.tree.edge_count(), 1);
        assert_eq!(entry.support.len(), 2);
    }

    #[test]
    fn extends_to_larger_trees() {
        let g1 = path(&[0, 1, 2]);
        let g2 = path(&[0, 1, 2, 3]);
        let (db, ids) = db_of(&[&g1, &g2]);
        let lat = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 1.0,
                max_edges: 3,
            },
        );
        // Frequent in both: C-O, O-N, C-O-N. (N-S only in g2.)
        let sizes: Vec<usize> = lat.iter().map(|(_, e)| e.tree.edge_count()).collect();
        assert!(sizes.contains(&2), "C-O-N should be mined: {sizes:?}");
        let con = path(&[0, 1, 2]);
        let entry = lat.get(&tree_key(&con)).expect("C-O-N tracked");
        assert_eq!(entry.support.len(), 2);
        assert!(entry.closed, "no larger tree shares its support");
    }

    #[test]
    fn closedness_of_subsumed_trees() {
        // Every graph containing C-O also contains C-O-N => C-O not closed.
        let g1 = path(&[0, 1, 2]);
        let g2 = path(&[2, 1, 0]);
        let (db, ids) = db_of(&[&g1, &g2]);
        let lat = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 1.0,
                max_edges: 2,
            },
        );
        let co = lat.get(&tree_key(&path(&[0, 1]))).expect("tracked");
        assert!(!co.closed);
        let con = lat.get(&tree_key(&path(&[0, 1, 2]))).expect("tracked");
        assert!(con.closed);
    }

    #[test]
    fn paper_example_3_3_style_closures() {
        // Mirror of Example 3.3: with sup_min = 1/3, an edge tree that
        // always occurs inside a larger frequent tree is not closed.
        let g: Vec<LabeledGraph> = vec![
            path(&[0, 1, 3]), // C-O-S
            path(&[0, 1, 3]),
            path(&[0, 1, 3]),
            path(&[0, 2]), // C-N
        ];
        let (db, ids) = db_of(&g.iter().collect::<Vec<_>>());
        let lat = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 0.5,
                max_edges: 3,
            },
        );
        // O-S and C-O occur exactly in graphs 0..3, as does C-O-S.
        let cos = lat.get(&tree_key(&path(&[0, 1, 3]))).expect("mined");
        assert!(cos.closed);
        assert!(!lat.get(&tree_key(&path(&[0, 1]))).unwrap().closed);
        assert!(!lat.get(&tree_key(&path(&[1, 3]))).unwrap().closed);
    }

    #[test]
    fn matches_brute_force_reference() {
        let g1 = GraphBuilder::new()
            .vertices(&[0, 1, 0, 2])
            .path(&[0, 1, 2])
            .edge(1, 3)
            .build();
        let g2 = path(&[0, 1, 0]);
        let g3 = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build(); // triangle: subtrees only
        let (db, ids) = db_of(&[&g1, &g2, &g3]);
        for sup_min in [0.34, 0.5, 1.0] {
            let cfg = MiningConfig {
                sup_min,
                max_edges: 3,
            };
            let fast = mine_lattice(&db, &ids, &cfg);
            let graphs: Vec<(GraphId, &LabeledGraph)> =
                db.iter().map(|(id, g)| (id, g.as_ref())).collect();
            let slow = mine_lattice_brute_force(&graphs, &cfg);
            let fast_keys: Vec<_> = fast
                .iter()
                .map(|(k, e)| (k.clone(), e.support.clone(), e.closed))
                .collect();
            let slow_keys: Vec<_> = slow
                .iter()
                .map(|(k, e)| (k.clone(), e.support.clone(), e.closed))
                .collect();
            assert_eq!(fast_keys, slow_keys, "sup_min = {sup_min}");
        }
    }

    #[test]
    fn empty_inputs() {
        let (db, ids) = db_of(&[&path(&[0, 1])]);
        let lat = mine_lattice(&db, &[], &MiningConfig::default());
        assert!(lat.is_empty());
        let lat2 = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 0.5,
                max_edges: 0,
            },
        );
        assert!(lat2.is_empty());
    }

    #[test]
    fn max_edges_caps_tree_size() {
        let g1 = path(&[0, 1, 2, 3, 0]);
        let g2 = path(&[0, 1, 2, 3, 0]);
        let (db, ids) = db_of(&[&g1, &g2]);
        let lat = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 1.0,
                max_edges: 2,
            },
        );
        assert!(lat.iter().all(|(_, e)| e.tree.edge_count() <= 2));
        assert!(lat.iter().any(|(_, e)| e.tree.edge_count() == 2));
    }

    #[test]
    fn branching_trees_are_found() {
        // A claw (star) frequent in two graphs.
        let claw = |extra: u32| {
            GraphBuilder::new()
                .vertices(&[0, 1, 2, 3, extra])
                .edge(0, 1)
                .edge(0, 2)
                .edge(0, 3)
                .edge(3, 4)
                .build()
        };
        let g1 = claw(4);
        let g2 = claw(5);
        let (db, ids) = db_of(&[&g1, &g2]);
        let lat = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 1.0,
                max_edges: 3,
            },
        );
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 2, 3])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        assert!(lat.contains(&tree_key(&star)), "claw should be mined");
    }
}
