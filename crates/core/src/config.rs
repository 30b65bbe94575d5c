//! MIDAS configuration — the knobs of §7.1's "Parameter settings".

use midas_catapult::PatternBudget;
use midas_mining::MiningConfig;

/// All tunables of the MIDAS framework, defaulting to the paper's settings
/// (§7.1): `η_min = 3`, `η_max = 12`, `γ = 30`, `sup_min = 0.5`, `ε = 0.1`,
/// `κ = λ = 0.1`. The paper sets the score threshold `λ` equal to `κ`, so
/// `λ` is derived from `κ`, not set; the selection penalty and the KS
/// level are the constants [`midas_catapult::MWU_PENALTY`] and
/// [`crate::swap::KS_ALPHA`].
#[derive(Debug, Clone, Copy)]
pub struct MidasConfig {
    /// Pattern budget `b = (η_min, η_max, γ)`.
    pub budget: PatternBudget,
    /// Minimum support for frequent (closed) trees.
    pub sup_min: f64,
    /// Maximum feature-tree size in edges.
    pub max_tree_edges: usize,
    /// Evolution ratio threshold `ε`: graphlet-distribution distance at or
    /// above this marks a *major* modification (§3.4).
    pub epsilon: f64,
    /// Swapping thresholds `κ` (Eq. 2, sw1) and `λ = κ` (sw2).
    pub kappa: f64,
    /// Number of coarse clusters. The paper's `τ = 10 / |D|` translates to
    /// `τ · |D| = 10` coarse clusters.
    pub coarse_clusters: usize,
    /// Maximum cluster size `N` before fine clustering.
    pub max_cluster_size: usize,
    /// Lazy-sample size for `D_s` used in `scov` computations (§6.1).
    pub sample_size: usize,
    /// Random walks per CSG per selection round.
    pub walks: usize,
    /// Steps per random walk.
    pub walk_length: usize,
    /// Seed ranks tried per (CSG, size) during candidate generation.
    pub seeds_per_size: usize,
    /// Has no effect. The isomorphism kernel runs serially on the thread
    /// that maintains the database: concurrency comes from tenants and
    /// requests, not from inside one batch. The field stays only because
    /// the serve benchmark's configuration still sets it.
    pub threads: usize,
    /// Master RNG seed; every stochastic component derives from it.
    pub seed: u64,
}

impl Default for MidasConfig {
    fn default() -> Self {
        MidasConfig {
            budget: PatternBudget::default(),
            sup_min: 0.5,
            max_tree_edges: 4,
            epsilon: 0.1,
            kappa: 0.1,
            coarse_clusters: 10,
            max_cluster_size: 100,
            sample_size: 200,
            walks: 100,
            walk_length: 24,
            seeds_per_size: 3,
            threads: 0,
            seed: 0,
        }
    }
}

impl MidasConfig {
    /// A configuration scaled for unit tests and doctests: tiny budget,
    /// small trees, few clusters.
    pub fn small_defaults() -> Self {
        MidasConfig {
            budget: PatternBudget {
                eta_min: 3,
                eta_max: 4,
                gamma: 4,
            },
            sup_min: 0.4,
            max_tree_edges: 3,
            coarse_clusters: 2,
            max_cluster_size: 50,
            sample_size: 50,
            walks: 40,
            walk_length: 10,
            seeds_per_size: 2,
            ..Self::default()
        }
    }

    /// The mining configuration implied by this config.
    pub fn mining(&self) -> MiningConfig {
        MiningConfig {
            sup_min: self.sup_min,
            max_edges: self.max_tree_edges,
        }
    }

    /// The selection configuration implied by this config.
    pub fn selection(&self) -> midas_catapult::SelectionConfig {
        midas_catapult::SelectionConfig {
            budget: self.budget,
            walks: self.walks,
            walk_length: self.walk_length,
            seeds_per_size: self.seeds_per_size,
            seed: self.seed,
        }
    }

    /// The candidate-generation parameters implied by this config.
    pub fn generation(&self) -> crate::candidate_gen::GenerationParams {
        crate::candidate_gen::GenerationParams {
            budget: self.budget,
            walks: self.walks,
            walk_length: self.walk_length,
            seeds_per_size: self.seeds_per_size,
            kappa: self.kappa,
        }
    }

    /// The swap parameters implied by this config.
    pub fn swap(&self) -> crate::swap::SwapParams {
        crate::swap::SwapParams { kappa: self.kappa }
    }

    /// The clustering configuration implied by this config.
    pub fn clustering(&self) -> midas_cluster::ClusterConfig {
        midas_cluster::ClusterConfig {
            coarse_clusters: self.coarse_clusters,
            max_cluster_size: self.max_cluster_size,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_7_1() {
        let c = MidasConfig::default();
        assert_eq!(c.budget.eta_min, 3);
        assert_eq!(c.budget.eta_max, 12);
        assert_eq!(c.budget.gamma, 30);
        assert!((c.sup_min - 0.5).abs() < 1e-12);
        assert!((c.epsilon - 0.1).abs() < 1e-12);
        assert!((c.kappa - 0.1).abs() < 1e-12);
        assert_eq!(c.coarse_clusters, 10, "τ·|D| = 10");
    }

    #[test]
    fn derived_configs_propagate_values() {
        let c = MidasConfig {
            sup_min: 0.3,
            max_tree_edges: 5,
            seed: 42,
            kappa: 0.2,
            ..MidasConfig::default()
        };
        assert!((c.mining().sup_min - 0.3).abs() < 1e-12);
        assert_eq!(c.mining().max_edges, 5);
        assert_eq!(c.selection().seed, 42);
        assert_eq!(c.clustering().seed, 42);
        assert_eq!(c.swap().kappa, 0.2);
        assert_eq!(c.generation().kappa, 0.2);
    }
}
