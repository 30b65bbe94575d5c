//! Lazy sampling of `D_s ⊂ D` for subgraph-coverage computation (§6.1).
//!
//! Exact `scov` over a large database is prohibitively expensive, so MIDAS
//! computes it over a sampled database (the lazy sampling technique it
//! inherits from CATAPULT \[23\]). We sample **stratified by cluster** —
//! proportional allocation keeps the sample's structural mix representative
//! — with a deterministic seed.

use midas_cluster::ClusterSet;
use midas_graph::{GraphDb, GraphId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Draws a cluster-stratified sample of about `target` graphs.
///
/// Every cluster contributes `⌈target · |C_i| / |D|⌉` members (so small
/// clusters are never erased from the sample); if `target ≥ |D|` the whole
/// database is returned.
pub fn sample_database(
    db: &GraphDb,
    clusters: &ClusterSet,
    target: usize,
    seed: u64,
) -> BTreeSet<GraphId> {
    let total = db.len();
    if target >= total {
        return db.ids().collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample = BTreeSet::new();
    for (_, cluster) in clusters.iter() {
        let members: Vec<GraphId> = cluster
            .members()
            .iter()
            .copied()
            .filter(|&id| db.contains(id))
            .collect();
        if members.is_empty() {
            continue;
        }
        let quota = ((target as f64) * members.len() as f64 / total as f64).ceil() as usize;
        let quota = quota.clamp(1, members.len());
        let mut pool = members;
        for _ in 0..quota {
            let idx = rng.random_range(0..pool.len());
            sample.insert(pool.swap_remove(idx));
        }
    }
    // Graphs not (yet) clustered — e.g. mid-maintenance — are sampled from
    // uniformly to keep coverage estimates unbiased.
    let unclustered: Vec<GraphId> = db
        .ids()
        .filter(|&id| clusters.cluster_of(id).is_none())
        .collect();
    if !unclustered.is_empty() {
        let quota = ((target as f64) * unclustered.len() as f64 / total as f64).ceil() as usize;
        let mut pool = unclustered;
        for _ in 0..quota.min(pool.len()) {
            let idx = rng.random_range(0..pool.len());
            sample.insert(pool.swap_remove(idx));
        }
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cluster::{ClusterConfig, FeatureSpace};
    use midas_graph::{GraphBuilder, LabeledGraph};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn world(n_a: usize, n_b: usize) -> (GraphDb, ClusterSet) {
        let mut graphs = Vec::new();
        for _ in 0..n_a {
            graphs.push(path(&[0, 1, 0]));
        }
        for _ in 0..n_b {
            graphs.push(path(&[3, 4, 3]));
        }
        let db = GraphDb::from_graphs(graphs);
        let ids: Vec<_> = db.ids().collect();
        let lattice = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 0.2,
                max_edges: 2,
            },
        );
        let space = FeatureSpace::from_frequent(&lattice, 0.2, db.len());
        let clusters = ClusterSet::build(
            &db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: 2,
                ..ClusterConfig::default()
            },
        );
        (db, clusters)
    }

    #[test]
    fn full_sample_when_target_exceeds_db() {
        let (db, clusters) = world(3, 3);
        let sample = sample_database(&db, &clusters, 100, 0);
        assert_eq!(sample.len(), db.len());
    }

    #[test]
    fn stratification_covers_every_cluster() {
        let (db, clusters) = world(20, 4);
        let sample = sample_database(&db, &clusters, 6, 1);
        assert!(sample.len() >= 6);
        assert!(sample.len() < db.len());
        for (_, cluster) in clusters.iter() {
            assert!(
                cluster.members().iter().any(|id| sample.contains(id)),
                "every cluster contributes at least one member"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (db, clusters) = world(12, 12);
        let a = sample_database(&db, &clusters, 8, 5);
        let b = sample_database(&db, &clusters, 8, 5);
        assert_eq!(a, b);
        let c = sample_database(&db, &clusters, 8, 6);
        // Different seeds usually differ (not guaranteed, but with 24
        // graphs the probability of equality is negligible).
        assert!(a != c || a.len() == db.len());
    }

    #[test]
    fn sample_ids_are_live() {
        let (db, clusters) = world(10, 10);
        let sample = sample_database(&db, &clusters, 5, 2);
        assert!(sample.iter().all(|&id| db.contains(id)));
    }
}
