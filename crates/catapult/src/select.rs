//! The CATAPULT greedy selection loop (§2.3).
//!
//! Each round: random walks refresh edge-traversal statistics on every
//! weighted CSG; FCPs are proposed per pattern size; the candidate with the
//! highest pattern score (Def. 2.1) joins `P`; the CSG weights are updated
//! multiplicatively \[7\]. Selection stops at `γ` patterns or when no new
//! pattern can be found, honouring the per-size cap
//! `⌈γ / (η_max − η_min + 1)⌉` of Def. 3.1.
//!
//! A candidate's `ccov`, `lcov` and `cog` are invariant under isomorphism
//! and the CSG projections, the catalog and `|D|` are fixed for the call,
//! so each isomorphism class is asked them once per call: a per-call map
//! from the class's canonical code holds its `lcov` and `cog`, and its
//! `ccov` once matched. Only `div` depends on the growing `P`, so it is
//! computed per candidate. The CSG-coverage match, the dearest question,
//! runs only when the class can win: `ccov` sums a subset of the terms of
//! `cover_max`, the coverage with every projection matched, in the same
//! order, so the score with `cover_max` bounds the class's score, and a
//! class whose bound does not beat the round's best is skipped
//! (DESIGN §5). The selected patterns are the ones re-scoring every
//! candidate gives.

use crate::candidates::generate_candidates;
use crate::random_walk::random_walks;
use crate::score::{
    ccov_projected, csg_projections, diversity, lcov_pattern, pattern_score, PatternScoreParts,
};
use crate::weights::WeightedCsg;
use midas_cluster::ClusterSet;
use midas_graph::fasthash::FxHashMap;
use midas_graph::{CanonicalCode, LabeledGraph};
use midas_mining::EdgeCatalog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// The pattern budget `b = (η_min, η_max, γ)` (Def. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternBudget {
    /// Minimum pattern size in edges (> 2 per Def. 3.1).
    pub eta_min: usize,
    /// Maximum pattern size in edges.
    pub eta_max: usize,
    /// Number of patterns displayed on the GUI.
    pub gamma: usize,
}

impl Default for PatternBudget {
    /// The paper's defaults: `η_min = 3`, `η_max = 12`, `γ = 30` (§7.1).
    fn default() -> Self {
        PatternBudget {
            eta_min: 3,
            eta_max: 12,
            gamma: 30,
        }
    }
}

impl PatternBudget {
    /// The per-size cap `⌈γ / (η_max − η_min + 1)⌉`.
    pub fn per_size_cap(&self) -> usize {
        self.gamma.div_ceil(self.eta_max - self.eta_min + 1)
    }
}

/// Multiplicative-weights penalty factor applied to a CSG's edges after
/// each selection from it.
pub const MWU_PENALTY: f64 = 0.5;

/// Selection parameters.
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// The pattern budget.
    pub budget: PatternBudget,
    /// Random walks per CSG per round (`x`; the paper's example uses 100).
    pub walks: usize,
    /// Steps per walk.
    pub walk_length: usize,
    /// Seed ranks tried per (CSG, size) when proposing candidates.
    pub seeds_per_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            budget: PatternBudget::default(),
            walks: 100,
            walk_length: 24,
            seeds_per_size: 3,
            seed: 0,
        }
    }
}

/// The isomorphism-invariant parts of a class's score, asked once per
/// [`select_patterns`] call.
struct ClassScore {
    lcov: f64,
    cog: f64,
    /// `ccov`, once the class has been matched against the projections.
    ccov: Option<f64>,
}

/// What one selection call asked, also added to the `select.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Candidates scored (those not already selected), repeats of a class
    /// included.
    pub candidates: u64,
    /// Distinct isomorphism classes among them.
    pub classes: u64,
    /// Classes matched against the CSG projections; the bound skipped the
    /// rest.
    pub ccov_matched: u64,
}

/// Runs CATAPULT's canned pattern selection over the given clusters.
///
/// Returns at most `γ` patterns, deduplicated up to isomorphism. The same
/// routine backs the CATAPULT++ baseline (the clustering feature basis is
/// decided by the caller).
pub fn select_patterns(
    clusters: &ClusterSet,
    catalog: &EdgeCatalog,
    db_len: usize,
    config: &SelectionConfig,
) -> Vec<LabeledGraph> {
    select_patterns_with_stats(clusters, catalog, db_len, config).0
}

/// [`select_patterns`], also returning what the call asked.
pub fn select_patterns_with_stats(
    clusters: &ClusterSet,
    catalog: &EdgeCatalog,
    db_len: usize,
    config: &SelectionConfig,
) -> (Vec<LabeledGraph>, SelectionStats) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut csgs: Vec<WeightedCsg> = clusters
        .iter()
        .map(|(_, c)| WeightedCsg::build(c.csg(), catalog, db_len))
        .collect();
    // CSG projections are immutable during selection; compute them once
    // for cluster-coverage scoring.
    let projections = csg_projections(clusters);
    // `ccov_projected`'s sum with every projection matched.
    let cover_max: f64 = if db_len == 0 {
        0.0
    } else {
        projections
            .iter()
            .map(|(len, _)| *len as f64 / db_len as f64)
            .sum()
    };
    let mut classes: FxHashMap<CanonicalCode, ClassScore> = FxHashMap::default();
    let mut stats = SelectionStats::default();
    let mut patterns: Vec<LabeledGraph> = Vec::new();
    let mut seen: BTreeSet<CanonicalCode> = BTreeSet::new();
    let mut per_size: BTreeMap<usize, usize> = BTreeMap::new();
    let cap = config.budget.per_size_cap();
    let max_rounds = config.budget.gamma * 4;

    for _ in 0..max_rounds {
        if patterns.len() >= config.budget.gamma {
            break;
        }
        // Propose candidates from every CSG and admissible size.
        let mut best: Option<(f64, LabeledGraph, CanonicalCode, usize)> = None;
        for (ci, csg) in csgs.iter().enumerate() {
            let order =
                random_walks(csg, config.walks, config.walk_length, &mut rng).edges_by_frequency();
            for size in config.budget.eta_min..=config.budget.eta_max {
                if per_size.get(&size).copied().unwrap_or(0) >= cap {
                    continue;
                }
                let mut no_hook = |_: &[(u32, u32)], _: (u32, u32)| true;
                let candidates =
                    generate_candidates(csg, &order, size, config.seeds_per_size, &mut no_hook);
                for (candidate, code) in candidates {
                    if seen.contains(&code) {
                        continue;
                    }
                    stats.candidates += 1;
                    let class = classes.entry(code.clone()).or_insert_with(|| ClassScore {
                        lcov: lcov_pattern(&candidate, catalog, db_len),
                        cog: candidate.cognitive_load(),
                        ccov: None,
                    });
                    let div = diversity(&candidate, &patterns);
                    let score_with = |coverage| {
                        pattern_score(PatternScoreParts {
                            coverage,
                            lcov: class.lcov,
                            div,
                            cog: class.cog,
                        })
                    };
                    let coverage = match class.ccov {
                        Some(ccov) => ccov,
                        None => {
                            if best
                                .as_ref()
                                .is_some_and(|(b, ..)| score_with(cover_max) <= *b)
                            {
                                continue; // cannot beat the best (DESIGN §5)
                            }
                            stats.ccov_matched += 1;
                            let ccov = ccov_projected(&candidate, &projections, db_len);
                            class.ccov = Some(ccov);
                            ccov
                        }
                    };
                    let score = score_with(coverage);
                    if best.as_ref().is_none_or(|(b, ..)| score > *b) {
                        best = Some((score, candidate, code, ci));
                    }
                }
            }
        }
        let Some((_, chosen, code, source)) = best else {
            break; // no new pattern can be found
        };
        seen.insert(code);
        *per_size.entry(chosen.edge_count()).or_insert(0) += 1;
        csgs[source].penalize(&chosen, MWU_PENALTY);
        patterns.push(chosen);
    }
    stats.classes = classes.len() as u64;
    midas_obs::counter_add!("select.candidates", stats.candidates);
    midas_obs::counter_add!("select.classes", stats.classes);
    midas_obs::counter_add!("select.ccov_matched", stats.ccov_matched);
    midas_obs::obs_info!(
        "catapult::select",
        "selected {} of γ = {} patterns from {} clusters",
        patterns.len(),
        config.budget.gamma,
        clusters.len()
    );
    (patterns, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cluster::{ClusterConfig, FeatureSpace};
    use midas_graph::{GraphBuilder, GraphDb};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn build_world(db: &GraphDb) -> (ClusterSet, EdgeCatalog) {
        let ids: Vec<_> = db.ids().collect();
        let lattice = mine_lattice(
            db,
            &ids,
            &MiningConfig {
                sup_min: 0.25,
                max_edges: 3,
            },
        );
        let space = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        let clusters = ClusterSet::build(
            db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: 2,
                ..ClusterConfig::default()
            },
        );
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        (clusters, catalog)
    }

    fn chain_db() -> GraphDb {
        // Long chains so size-3 patterns exist.
        GraphDb::from_graphs((0..8).map(|i| path(&[0, 1, 2, 0, 1, (i % 3) as u32])))
    }

    #[test]
    fn selects_up_to_gamma_patterns() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 4,
                gamma: 3,
            },
            seed: 1,
            ..SelectionConfig::default()
        };
        let patterns = select_patterns(&clusters, &catalog, db.len(), &config);
        assert!(!patterns.is_empty());
        assert!(patterns.len() <= 3);
        for p in &patterns {
            assert!(p.is_connected());
            assert!((3..=4).contains(&p.edge_count()));
        }
    }

    #[test]
    fn patterns_are_pairwise_nonisomorphic() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 5,
                gamma: 6,
            },
            seed: 2,
            ..SelectionConfig::default()
        };
        let patterns = select_patterns(&clusters, &catalog, db.len(), &config);
        for i in 0..patterns.len() {
            for j in i + 1..patterns.len() {
                assert!(
                    !midas_graph::canonical::are_isomorphic(&patterns[i], &patterns[j]),
                    "patterns {i} and {j} are isomorphic"
                );
            }
        }
    }

    #[test]
    fn per_size_cap_is_respected() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let budget = PatternBudget {
            eta_min: 3,
            eta_max: 4,
            gamma: 4,
        };
        assert_eq!(budget.per_size_cap(), 2);
        let config = SelectionConfig {
            budget,
            seed: 3,
            ..SelectionConfig::default()
        };
        let patterns = select_patterns(&clusters, &catalog, db.len(), &config);
        let mut by_size: BTreeMap<usize, usize> = BTreeMap::new();
        for p in &patterns {
            *by_size.entry(p.edge_count()).or_insert(0) += 1;
        }
        assert!(by_size.values().all(|&c| c <= 2), "{by_size:?}");
    }

    #[test]
    fn empty_database_selects_nothing() {
        let db = GraphDb::new();
        let (clusters, catalog) = build_world(&db);
        let patterns = select_patterns(&clusters, &catalog, 0, &SelectionConfig::default());
        assert!(patterns.is_empty());
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let db = chain_db();
        let (clusters, catalog) = build_world(&db);
        let config = SelectionConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 4,
                gamma: 3,
            },
            seed: 7,
            ..SelectionConfig::default()
        };
        let a = select_patterns(&clusters, &catalog, db.len(), &config);
        let b = select_patterns(&clusters, &catalog, db.len(), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_default_matches_paper() {
        let b = PatternBudget::default();
        assert_eq!((b.eta_min, b.eta_max, b.gamma), (3, 12, 30));
        assert_eq!(b.per_size_cap(), 3);
    }
}
