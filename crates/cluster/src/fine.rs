//! Fine clustering (§2.3): splitting oversized coarse clusters by MCCS
//! similarity.
//!
//! A coarse cluster larger than the maximum cluster size `N` is replaced by
//! smaller clusters of at most `N` graphs each, grouping graphs with high
//! `ω_MCCS` similarity to a seed (the cluster's largest graph). This is the
//! greedy realization of the fine-clustering objective: members of a fine
//! cluster are more MCCS-similar to each other than to members of other
//! fine clusters.
//!
//! Algorithm 1 re-runs fine clustering every time a cluster outgrows `N`,
//! and consecutive splits of the same cluster re-pick the same seed and
//! re-score mostly the same members. [`MccsMemo`] keeps every score, so
//! each `(seed, member)` pair is searched once while both graphs live.

use midas_graph::mccs::mccs_similarity;
use midas_graph::{GraphId, LabeledGraph};
use std::collections::HashMap;

/// Memoized `ω_MCCS(seed, member)` scores for one budget.
///
/// Keyed by the **ordered** pair: [`midas_graph::mccs::mccs_edges`] orders
/// its arguments by vertex count only, so on ties a budget-capped search
/// is not symmetric. A cached score cannot go stale as long as the memo
/// only sees graphs of one [`midas_graph::GraphDb`]: ids are never reused
/// and a graph is immutable under its id. The budget is fixed at
/// construction, so scores of different budgets never mix.
///
/// Scores live in one row per seed, so [`MccsMemo::remove_graph`] costs
/// one probe per seed rather than a scan of every pair.
#[derive(Debug, Clone)]
pub struct MccsMemo {
    budget: u64,
    by_seed: HashMap<GraphId, HashMap<GraphId, f64>>,
    computed: u64,
    hits: u64,
}

impl MccsMemo {
    /// An empty memo whose searches are capped at `budget` nodes.
    pub fn new(budget: u64) -> Self {
        MccsMemo {
            budget,
            by_seed: HashMap::new(),
            computed: 0,
            hits: 0,
        }
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.by_seed.values().map(HashMap::len).sum()
    }

    /// Whether no pair is cached.
    pub fn is_empty(&self) -> bool {
        self.by_seed.is_empty()
    }

    /// Scores searched so far (memo misses).
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Scores served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Every cached `(seed, member, score)`, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (GraphId, GraphId, f64)> + '_ {
        self.by_seed.iter().flat_map(|(&seed, row)| {
            row.iter()
                .map(move |(&member, &score)| (seed, member, score))
        })
    }

    /// Drops every pair that names `id`, as seed or as member.
    pub fn remove_graph(&mut self, id: GraphId) {
        self.by_seed.retain(|&seed, row| {
            row.remove(&id);
            seed != id && !row.is_empty()
        });
    }

    /// `ω_MCCS(seed, member)`, searched on the first request only. Each
    /// search's wall time is one `cluster.mccs_ns` sample.
    fn score(&mut self, seed: (GraphId, &LabeledGraph), member: (GraphId, &LabeledGraph)) -> f64 {
        let row = self.by_seed.entry(seed.0).or_default();
        if let Some(&score) = row.get(&member.0) {
            self.hits += 1;
            return score;
        }
        let start = midas_obs::enabled().then(std::time::Instant::now);
        let score = mccs_similarity(seed.1, member.1, self.budget);
        if let Some(start) = start {
            midas_obs::histogram_record!("cluster.mccs_ns", start.elapsed().as_nanos() as u64);
        }
        row.insert(member.0, score);
        self.computed += 1;
        score
    }
}

/// Splits `members` into groups of at most `max_size`, grouping by MCCS
/// similarity to a seed graph. Groups come back in creation order; input
/// order within a group is not preserved.
///
/// Pair scores come from `memo` (see [`MccsMemo`]); whether it starts
/// empty or pre-filled does not change the groups.
pub fn fine_cluster(
    members: &[(GraphId, &LabeledGraph)],
    max_size: usize,
    memo: &mut MccsMemo,
) -> Vec<Vec<GraphId>> {
    assert!(max_size >= 1, "max cluster size must be positive");
    if members.len() <= max_size {
        return vec![members.iter().map(|&(id, _)| id).collect()];
    }
    let (computed, hits) = (memo.computed, memo.hits);
    let mut pool: Vec<(GraphId, &LabeledGraph)> = members.to_vec();
    let mut groups = Vec::new();
    while !pool.is_empty() {
        if pool.len() <= max_size {
            groups.push(pool.drain(..).map(|(id, _)| id).collect());
            break;
        }
        // Seed: the largest remaining graph (ties by id for determinism).
        let seed_idx = pool
            .iter()
            .enumerate()
            .max_by_key(|(_, (id, g))| (g.edge_count(), std::cmp::Reverse(*id)))
            .map(|(i, _)| i)
            .expect("pool non-empty");
        let seed = pool.swap_remove(seed_idx);
        // Rank the rest by similarity to the seed.
        let mut scored: Vec<(f64, usize)> = pool
            .iter()
            .enumerate()
            .map(|(i, &member)| (memo.score(seed, member), i))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        let take = (max_size - 1).min(scored.len());
        let mut chosen_idx: Vec<usize> = scored[..take].iter().map(|&(_, i)| i).collect();
        chosen_idx.sort_unstable_by(|a, b| b.cmp(a)); // remove back-to-front
        let mut group = vec![seed.0];
        for idx in chosen_idx {
            group.push(pool.swap_remove(idx).0);
        }
        groups.push(group);
    }
    midas_obs::counter_add!("cluster.mccs_computed", memo.computed - computed);
    midas_obs::counter_add!("cluster.mccs_memo_hits", memo.hits - hits);
    groups
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
    fn small_input_stays_whole() {
        let a = path(&[0, 1]);
        let b = path(&[0, 2]);
        let members = vec![(gid(1), &a), (gid(2), &b)];
        let groups = fine_cluster(&members, 5, &mut MccsMemo::new(1000));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn oversized_cluster_splits_to_max_size() {
        let graphs: Vec<LabeledGraph> = (0..7).map(|i| path(&[i % 3, (i + 1) % 3])).collect();
        let members: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(i as u64), g))
            .collect();
        let groups = fine_cluster(&members, 3, &mut MccsMemo::new(1000));
        assert!(groups.iter().all(|g| g.len() <= 3));
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 7);
        // No id lost or duplicated.
        let mut all: Vec<GraphId> = groups.concat();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 7);
    }

    #[test]
    fn similar_graphs_group_together() {
        // Two families: C-O-C chains vs S-S-S chains, max size 3.
        let family_a: Vec<LabeledGraph> = (0..3).map(|_| path(&[0, 1, 0, 1])).collect();
        let family_b: Vec<LabeledGraph> = (0..3).map(|_| path(&[3, 3, 3, 3])).collect();
        let mut members: Vec<(GraphId, &LabeledGraph)> = Vec::new();
        for (i, g) in family_a.iter().enumerate() {
            members.push((gid(i as u64), g));
        }
        for (i, g) in family_b.iter().enumerate() {
            members.push((gid(10 + i as u64), g));
        }
        let groups = fine_cluster(&members, 3, &mut MccsMemo::new(2000));
        assert_eq!(groups.len(), 2);
        for group in &groups {
            let in_a = group.iter().filter(|id| id.0 < 10).count();
            assert!(
                in_a == 0 || in_a == group.len(),
                "families must not mix: {groups:?}"
            );
        }
    }

    #[test]
    fn prefilled_memo_returns_the_same_groups() {
        let graphs: Vec<LabeledGraph> = (0..10u32)
            .map(|i| path(&(0..2 + i % 4).map(|j| (i + j) % 3).collect::<Vec<_>>()))
            .collect();
        let members: Vec<(GraphId, &LabeledGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (gid(i as u64), g))
            .collect();
        let fresh = fine_cluster(&members, 3, &mut MccsMemo::new(1000));
        // Fill the memo from splits of other sizes and an overlapping subset.
        let mut memo = MccsMemo::new(1000);
        fine_cluster(&members[2..], 2, &mut memo);
        fine_cluster(&members, 4, &mut memo);
        assert!(!memo.is_empty());
        assert_eq!(fine_cluster(&members, 3, &mut memo), fresh);
        assert!(memo.hits() > 0, "a pre-filled memo must serve scores");
        assert_eq!(memo.computed() as usize, memo.len(), "no pair scored twice");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_size_panics() {
        let a = path(&[0, 1]);
        fine_cluster(&[(gid(1), &a)], 0, &mut MccsMemo::new(100));
    }
}
