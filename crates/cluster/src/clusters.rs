//! The [`ClusterSet`]: clusters with centroids and CSGs, built by coarse +
//! fine clustering and maintained incrementally (§4.3–4.4, Algorithm 1
//! lines 1–2 and 6–7).

use crate::features::{FeatureSpace, FeatureVector};
use crate::fine::{fine_cluster, MccsMemo};
use crate::kmeans::{dist2_to_centroid, kmeans};
use midas_graph::{ClosureGraph, GraphDb, GraphId, LabeledGraph};
use midas_mining::TreeLattice;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Stable identifier of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u64);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// One graph cluster: its cluster summary graph, whose member set is the
/// cluster's, and its centroid.
#[derive(Debug, Clone)]
pub struct Cluster {
    centroid: Vec<f64>,
    csg: ClosureGraph,
    dirty: bool,
}

impl Cluster {
    /// Member graph ids: the CSG's member set.
    pub fn members(&self) -> &BTreeSet<GraphId> {
        self.csg.members()
    }

    /// Number of members `|C_i|`.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// The cluster summary graph.
    pub fn csg(&self) -> &ClosureGraph {
        &self.csg
    }

    /// The centroid in feature space.
    pub fn centroid(&self) -> &[f64] {
        &self.centroid
    }

    /// Whether the cluster changed since the last
    /// [`ClusterSet::take_dirty`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// Node budget per pairwise MCCS search in fine clustering.
pub const MCCS_BUDGET: u64 = 2_000;

/// Lloyd-iteration cap for k-means.
const KMEANS_MAX_ITERATIONS: usize = 30;

/// Clustering parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of coarse (k-means) clusters.
    pub coarse_clusters: usize,
    /// Maximum cluster size `N`; larger clusters are fine-clustered.
    pub max_cluster_size: usize,
    /// Seed for k-means++.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            coarse_clusters: 10,
            max_cluster_size: 100,
            seed: 0,
        }
    }
}

/// All clusters of a database, plus the frozen feature space, the cached
/// per-member feature vectors needed for incremental centroid updates, and
/// the MCCS scores fine clustering has already searched.
#[derive(Debug, Clone)]
pub struct ClusterSet {
    config: ClusterConfig,
    feature_space: FeatureSpace,
    clusters: BTreeMap<ClusterId, Cluster>,
    membership: HashMap<GraphId, ClusterId>,
    member_vectors: HashMap<GraphId, FeatureVector>,
    mccs_memo: MccsMemo,
    next_id: u64,
}

impl ClusterSet {
    /// Builds the cluster set from scratch: k-means++ coarse clustering on
    /// feature vectors, fine clustering of oversized clusters, then one CSG
    /// per cluster.
    pub fn build(
        db: &GraphDb,
        lattice: &TreeLattice,
        feature_space: FeatureSpace,
        config: ClusterConfig,
    ) -> Self {
        let ids: Vec<GraphId> = db.ids().collect();
        let vectors: Vec<FeatureVector> = ids
            .iter()
            .map(|&id| feature_space.vector(lattice, id))
            .collect();
        let result = kmeans(
            &vectors,
            feature_space.dims(),
            config.coarse_clusters,
            config.seed,
            KMEANS_MAX_ITERATIONS,
        );
        // Group members per coarse cluster.
        let mut coarse: BTreeMap<usize, Vec<GraphId>> = BTreeMap::new();
        for (i, &id) in ids.iter().enumerate() {
            let slot = result.assignment.get(i).copied().unwrap_or(0);
            coarse.entry(slot).or_default().push(id);
        }
        // Fine-cluster oversized groups.
        let mut mccs_memo = MccsMemo::new(MCCS_BUDGET);
        let mut groups: Vec<Vec<GraphId>> = Vec::new();
        for members in coarse.into_values() {
            if members.len() <= config.max_cluster_size {
                groups.push(members);
            } else {
                let with_graphs: Vec<(GraphId, &LabeledGraph)> = members
                    .iter()
                    .map(|&id| (id, db.get(id).expect("live id").as_ref()))
                    .collect();
                groups.extend(fine_cluster(
                    &with_graphs,
                    config.max_cluster_size,
                    &mut mccs_memo,
                ));
            }
        }
        let mut set = ClusterSet {
            config,
            feature_space,
            clusters: BTreeMap::new(),
            membership: HashMap::new(),
            member_vectors: HashMap::new(),
            mccs_memo,
            next_id: 0,
        };
        for (i, &id) in ids.iter().enumerate() {
            set.member_vectors.insert(id, vectors[i].clone());
        }
        for members in groups {
            let csg = build_csg(db, &members);
            set.install_cluster(members, csg);
        }
        set
    }

    fn install_cluster(&mut self, members: Vec<GraphId>, csg: ClosureGraph) -> ClusterId {
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        let centroid = self.mean_vector(&members);
        for &m in &members {
            self.membership.insert(m, id);
        }
        self.clusters.insert(
            id,
            Cluster {
                centroid,
                csg,
                dirty: true,
            },
        );
        id
    }

    fn mean_vector(&self, members: &[GraphId]) -> Vec<f64> {
        let mut c = vec![0.0; self.feature_space.dims()];
        if members.is_empty() {
            return c;
        }
        for id in members {
            if let Some(v) = self.member_vectors.get(id) {
                for &j in &v.0 {
                    c[j as usize] += 1.0;
                }
            }
        }
        let n = members.len() as f64;
        for x in &mut c {
            *x /= n;
        }
        c
    }

    /// The frozen feature space.
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.feature_space
    }

    /// The configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Iterates `(id, cluster)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> {
        self.clusters.iter().map(|(&id, c)| (id, c))
    }

    /// Looks up a cluster.
    pub fn get(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(&id)
    }

    /// The cluster a graph belongs to.
    pub fn cluster_of(&self, graph: GraphId) -> Option<ClusterId> {
        self.membership.get(&graph).copied()
    }

    /// Total members across clusters.
    pub fn total_members(&self) -> usize {
        self.clusters.values().map(|c| c.len()).sum()
    }

    /// The MCCS scores fine clustering has searched, for pairs of graphs
    /// that are still clustered.
    pub fn mccs_memo(&self) -> &MccsMemo {
        &self.mccs_memo
    }

    /// Forgets every cached MCCS score; later splits search them again.
    /// The groups do not change, only the time they take, which is how
    /// the differential oracle checks the memo.
    pub fn clear_mccs_memo(&mut self) {
        self.mccs_memo = MccsMemo::new(MCCS_BUDGET);
    }

    /// Assigns a newly inserted graph to the nearest cluster by centroid
    /// distance (Algorithm 1 line 1), updates that cluster's CSG (§4.4 step
    /// 1) and centroid, and fine-clusters if the size cap is exceeded.
    ///
    /// Returns the ids of every cluster affected (the receiving cluster, or
    /// the clusters created by a split).
    ///
    /// The lattice must already reflect the insertion (supports include
    /// `id`), which is the order Algorithm 1 establishes.
    pub fn assign(
        &mut self,
        db: &GraphDb,
        lattice: &TreeLattice,
        id: GraphId,
        graph: &Arc<LabeledGraph>,
    ) -> Vec<ClusterId> {
        let v = self.feature_space.vector(lattice, id);
        self.member_vectors.insert(id, v.clone());
        // Nearest centroid.
        let target = self
            .clusters
            .iter()
            .min_by(|(_, a), (_, b)| {
                let da = dist2_to_centroid(&a.centroid, norm2(&a.centroid), &v);
                let db_ = dist2_to_centroid(&b.centroid, norm2(&b.centroid), &v);
                da.partial_cmp(&db_).expect("finite")
            })
            .map(|(&cid, _)| cid);
        let Some(target) = target else {
            // First graph ever: create a singleton cluster.
            let mut csg = ClosureGraph::new();
            csg.insert_graph(id, graph);
            return vec![self.install_cluster(vec![id], csg)];
        };
        {
            let cluster = self.clusters.get_mut(&target).expect("target exists");
            let m = cluster.len() as f64;
            cluster.csg.insert_graph(id, graph);
            cluster.dirty = true;
            // Incremental centroid update: c' = (c·m + x) / (m + 1).
            for cj in cluster.centroid.iter_mut() {
                *cj = *cj * m / (m + 1.0);
            }
            for &j in &v.0 {
                cluster.centroid[j as usize] += 1.0 / (m + 1.0);
            }
        }
        self.membership.insert(id, target);
        if self.clusters[&target].len() > self.config.max_cluster_size {
            self.split(db, target)
        } else {
            vec![target]
        }
    }

    /// Removes a deleted graph from its cluster (Algorithm 1 line 2),
    /// updating the CSG (§4.4 step 2) and centroid, and forgets its MCCS
    /// scores. Returns the affected cluster id, or `None` if the graph was
    /// not clustered. Empty clusters are dropped.
    pub fn remove(&mut self, id: GraphId, graph: &LabeledGraph) -> Option<ClusterId> {
        self.mccs_memo.remove_graph(id);
        let cid = self.membership.remove(&id)?;
        let v = self.member_vectors.remove(&id).unwrap_or_default();
        let cluster = self.clusters.get_mut(&cid).expect("membership consistent");
        cluster.csg.remove_graph(id, graph);
        cluster.dirty = true;
        let m = cluster.len() as f64;
        if m == 0.0 {
            self.clusters.remove(&cid);
        } else {
            // c' = (c·(m+1) − x) / m.
            for cj in cluster.centroid.iter_mut() {
                *cj = *cj * (m + 1.0) / m;
            }
            for &j in &v.0 {
                cluster.centroid[j as usize] -= 1.0 / m;
            }
        }
        Some(cid)
    }

    /// Splits an oversized cluster via fine clustering; the original cluster
    /// is replaced by the resulting groups (fresh ids, fresh CSGs).
    fn split(&mut self, db: &GraphDb, cid: ClusterId) -> Vec<ClusterId> {
        let _span = midas_obs::span!("batch.cluster.split");
        let cluster = self.clusters.remove(&cid).expect("cluster exists");
        let members: Vec<GraphId> = cluster.members().iter().copied().collect();
        for id in &members {
            self.membership.remove(id);
        }
        let with_graphs: Vec<(GraphId, &LabeledGraph)> = members
            .iter()
            .map(|&id| (id, db.get(id).expect("live id").as_ref()))
            .collect();
        let groups = fine_cluster(
            &with_graphs,
            self.config.max_cluster_size,
            &mut self.mccs_memo,
        );
        midas_obs::obs_debug!(
            "cluster::clusters",
            "fine-clustered oversized cluster of {} members into {} groups",
            members.len(),
            groups.len()
        );
        midas_obs::counter_add!("cluster.splits", 1);
        groups
            .into_iter()
            .map(|group| {
                let csg = build_csg(db, &group);
                self.install_cluster(group, csg)
            })
            .collect()
    }

    /// Returns the set of dirty cluster ids and clears the flags. These are
    /// the "newly-generated and modified clusters" whose CSGs feed candidate
    /// generation (§4.3, §5).
    pub fn take_dirty(&mut self) -> Vec<ClusterId> {
        let mut dirty = Vec::new();
        for (&id, cluster) in self.clusters.iter_mut() {
            if cluster.dirty {
                dirty.push(id);
                cluster.dirty = false;
            }
        }
        dirty
    }
}

fn norm2(c: &[f64]) -> f64 {
    c.iter().map(|x| x * x).sum()
}

/// Builds the CSG of one group, on the caller's thread.
fn build_csg(db: &GraphDb, group: &[GraphId]) -> ClosureGraph {
    ClosureGraph::from_graphs(
        group
            .iter()
            .map(|&id| (id, db.get(id).expect("live id").as_ref())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::{Csr, GraphBuilder, MatchPlan};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn mining_config() -> MiningConfig {
        MiningConfig {
            sup_min: 0.2,
            max_edges: 3,
        }
    }

    /// Two chemically distinct families: C-O chains and S-P chains.
    fn two_family_db() -> GraphDb {
        let mut graphs = Vec::new();
        for _ in 0..4 {
            graphs.push(path(&[0, 1, 0, 1]));
            graphs.push(path(&[3, 4, 3, 4]));
        }
        GraphDb::from_graphs(graphs)
    }

    fn build_set(db: &GraphDb, k: usize, max_size: usize) -> (ClusterSet, TreeLattice) {
        let ids: Vec<_> = db.ids().collect();
        let lattice = mine_lattice(db, &ids, &mining_config());
        let space = FeatureSpace::from_frequent(&lattice, 0.2, db.len());
        let set = ClusterSet::build(
            db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: k,
                max_cluster_size: max_size,
                ..ClusterConfig::default()
            },
        );
        (set, lattice)
    }

    #[test]
    fn build_partitions_all_graphs() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 2, 100);
        assert_eq!(set.total_members(), db.len());
        for (id, _) in db.iter() {
            assert!(set.cluster_of(id).is_some(), "graph {id} unclustered");
        }
    }

    #[test]
    fn families_separate_into_clusters() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 2, 100);
        assert_eq!(set.len(), 2);
        // Each cluster is label-pure.
        for (_, cluster) in set.iter() {
            let labels: BTreeSet<u32> = cluster
                .members()
                .iter()
                .flat_map(|&id| db.get(id).unwrap().labels().to_vec())
                .collect();
            assert!(
                labels == BTreeSet::from([0, 1]) || labels == BTreeSet::from([3, 4]),
                "mixed cluster: {labels:?}"
            );
        }
    }

    #[test]
    fn csgs_cover_cluster_members() {
        // Each member's edges are in its cluster's CSG, supported by it.
        let db = two_family_db();
        let (set, _) = build_set(&db, 2, 100);
        for (_, cluster) in set.iter() {
            for &id in cluster.members() {
                let supported = cluster.csg().edges().filter(|(_, _, s)| s.contains(&id));
                assert_eq!(supported.count(), db.get(id).unwrap().edge_count());
            }
        }
    }

    #[test]
    fn max_cluster_size_is_enforced_at_build() {
        let db = two_family_db();
        let (set, _) = build_set(&db, 1, 3);
        assert!(set.iter().all(|(_, c)| c.len() <= 3));
        assert_eq!(set.total_members(), db.len());
    }

    #[test]
    fn assign_routes_to_matching_family() {
        let mut db = two_family_db();
        let (mut set, mut lattice) = build_set(&db, 2, 100);
        set.take_dirty();
        // Insert a new C-O graph.
        let (id, graph) = insert_with_supports(&mut db, &mut lattice, path(&[0, 1, 0]));
        let affected = set.assign(&db, &lattice, id, &graph);
        assert_eq!(affected.len(), 1);
        let cid = set.cluster_of(id).unwrap();
        // Its cluster must be the C-O one.
        let peer = set
            .get(cid)
            .unwrap()
            .members()
            .iter()
            .next()
            .copied()
            .unwrap();
        let peer_labels: BTreeSet<u32> = db.get(peer).unwrap().labels().iter().copied().collect();
        assert!(peer_labels.contains(&0));
        // Dirty flag set.
        assert!(set.get(cid).unwrap().is_dirty());
        // CSG includes the newcomer.
        assert!(set.get(cid).unwrap().csg().members().contains(&id));
    }

    #[test]
    fn assign_splits_oversized_cluster() {
        let mut db = GraphDb::from_graphs((0..3).map(|_| path(&[0, 1])));
        let (mut set, lattice) = build_set(&db, 1, 3);
        assert_eq!(set.len(), 1);
        let id = db.insert(path(&[0, 1]));
        let graph = db.get(id).unwrap().clone();
        let affected = set.assign(&db, &lattice, id, &graph);
        assert!(affected.len() >= 2, "split must create clusters");
        assert!(set.iter().all(|(_, c)| c.len() <= 3));
        assert_eq!(set.total_members(), 4);
    }

    /// Inserts `graph` into `db` and extends the lattice supports first, as
    /// the framework does before [`ClusterSet::assign`].
    fn insert_with_supports(
        db: &mut GraphDb,
        lattice: &mut TreeLattice,
        graph: LabeledGraph,
    ) -> (GraphId, Arc<LabeledGraph>) {
        let id = db.insert(graph);
        let graph = db.get(id).unwrap().clone();
        let keys: Vec<_> = lattice.iter().map(|(k, _)| k.clone()).collect();
        for key in keys {
            let entry = lattice.get(&key).unwrap();
            if MatchPlan::compile(&entry.tree).is_subgraph_of(&Csr::from_graph(&graph)) {
                let mut e = entry.clone();
                e.support.insert(id);
                lattice.insert(key, e);
            }
        }
        (id, graph)
    }

    /// Three identical graphs in one cluster of at most 3, then two
    /// inserts that each split the big cluster 3 + 1 around the same seed.
    fn split_twice() -> (GraphDb, ClusterSet, Vec<usize>) {
        let mut db = GraphDb::from_graphs((0..3).map(|_| path(&[0, 1])));
        let (mut set, mut lattice) = build_set(&db, 1, 3);
        let mut memo_sizes = Vec::new();
        for _ in 0..2 {
            let (id, graph) = insert_with_supports(&mut db, &mut lattice, path(&[0, 1]));
            let affected = set.assign(&db, &lattice, id, &graph);
            let mut sizes: Vec<usize> = affected
                .iter()
                .map(|&c| set.get(c).unwrap().len())
                .collect();
            sizes.sort_unstable();
            assert_eq!(sizes, [1, 3], "each insert splits 3 + 1");
            memo_sizes.push(set.mccs_memo().len());
        }
        (db, set, memo_sizes)
    }

    #[test]
    fn back_to_back_splits_score_no_pair_twice() {
        let (_, set, memo_sizes) = split_twice();
        let memo = set.mccs_memo();
        // First split: the seed against its 3 peers. Second split: the
        // same seed again, 2 pairs served and only the newcomer searched.
        assert_eq!(memo_sizes, [3, 4]);
        assert_eq!(memo.computed(), 4);
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.computed() as usize, memo.len(), "no pair scored twice");
    }

    #[test]
    fn remove_forgets_every_memo_pair_of_the_graph() {
        let (db, mut set, _) = split_twice();
        let seed = set.mccs_memo().entries().next().unwrap().0;
        let member = set.mccs_memo().entries().map(|e| e.1).max().unwrap();
        for id in [member, seed] {
            assert!(set
                .mccs_memo()
                .entries()
                .any(|(s, m, _)| s == id || m == id));
            set.remove(id, db.get(id).unwrap());
            assert!(
                !set.mccs_memo()
                    .entries()
                    .any(|(s, m, _)| s == id || m == id),
                "memo still names {id}"
            );
        }
        assert!(set.mccs_memo().is_empty(), "the seed's row went with it");
    }

    #[test]
    fn remove_updates_membership_and_csg() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 2, 100);
        let victim = db.ids().next().unwrap();
        let graph = db.get(victim).unwrap().clone();
        let cid = set.cluster_of(victim).unwrap();
        let before = set.get(cid).unwrap().len();
        let affected = set.remove(victim, &graph);
        assert_eq!(affected, Some(cid));
        assert_eq!(set.get(cid).unwrap().len(), before - 1);
        assert!(set.cluster_of(victim).is_none());
        assert!(!set.get(cid).unwrap().csg().members().contains(&victim));
    }

    #[test]
    fn removing_last_member_drops_cluster() {
        let db = GraphDb::from_graphs([path(&[0, 1])]);
        let (mut set, _) = build_set(&db, 1, 10);
        let id = db.ids().next().unwrap();
        let graph = db.get(id).unwrap().clone();
        set.remove(id, &graph);
        assert!(set.is_empty());
    }

    #[test]
    fn remove_unknown_graph_is_none() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 2, 100);
        assert_eq!(set.remove(GraphId(999), &path(&[0, 1])), None);
    }

    #[test]
    fn assign_into_empty_set_creates_cluster() {
        let mut db = GraphDb::new();
        let (mut set, lattice) = {
            let empty = GraphDb::new();
            build_set(&empty, 2, 10)
        };
        let id = db.insert(path(&[0, 1]));
        let graph = db.get(id).unwrap().clone();
        let affected = set.assign(&db, &lattice, id, &graph);
        assert_eq!(affected.len(), 1);
        assert_eq!(set.total_members(), 1);
    }

    #[test]
    fn take_dirty_clears_flags() {
        let db = two_family_db();
        let (mut set, _) = build_set(&db, 2, 100);
        let dirty = set.take_dirty();
        assert_eq!(dirty.len(), set.len(), "all fresh clusters are dirty");
        assert!(set.take_dirty().is_empty());
    }

    #[test]
    fn centroid_updates_match_rebuild() {
        let mut db = two_family_db();
        let (mut set, mut lattice) = build_set(&db, 2, 100);
        let (id, graph) = insert_with_supports(&mut db, &mut lattice, path(&[0, 1, 0, 1]));
        set.assign(&db, &lattice, id, &graph);
        let cid = set.cluster_of(id).unwrap();
        let cluster = set.get(cid).unwrap();
        // Recompute mean from scratch and compare.
        let members: Vec<GraphId> = cluster.members().iter().copied().collect();
        let mut expect = vec![0.0; set.feature_space().dims()];
        for m in &members {
            let v = set.feature_space().vector(&lattice, *m);
            for &j in &v.0 {
                expect[j as usize] += 1.0;
            }
        }
        for x in &mut expect {
            *x /= members.len() as f64;
        }
        for (got, want) in cluster.centroid().iter().zip(&expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
