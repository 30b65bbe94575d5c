//! Pattern scoring (Def. 2.1 and §6.1).
//!
//! CATAPULT's score: `s_p = ccov(p, cw, C) × lcov(p, D) × div(p, P\p) /
//! cog(p)`. MIDAS's adaptation `s'_p` replaces cluster coverage with
//! subgraph coverage (computed in `midas-core` via the indices) and uses
//! the tightened GED bound for diversity; the multiplicative combination
//! here is shared by both.

use midas_graph::ged::ged_tight_lower_bound;
use midas_graph::{CachedPattern, Csr, LabeledGraph, MatchKernel, MatchPlan};
use midas_mining::EdgeCatalog;
use std::collections::BTreeSet;

/// The four multiplicative components of a pattern score.
#[derive(Debug, Clone, Copy)]
pub struct PatternScoreParts {
    /// Coverage: `ccov` (CATAPULT, Def. 2.1) or `scov` (MIDAS, §6.1).
    pub coverage: f64,
    /// Label coverage `lcov(p, D)`.
    pub lcov: f64,
    /// Diversity `div(p, P \ p)`.
    pub div: f64,
    /// Cognitive load `cog(p)`.
    pub cog: f64,
}

/// Combines the parts into the multiplicative score. A zero cognitive load
/// (impossible for patterns with edges) is clamped to avoid division by
/// zero.
pub fn pattern_score(parts: PatternScoreParts) -> f64 {
    parts.coverage * parts.lcov * parts.div / parts.cog.max(f64::MIN_POSITIVE)
}

/// The `(cluster size, CSR view of the CSG's labeled projection)` pair of
/// every cluster — the targets [`ccov_projected`] matches against.
pub fn csg_projections(clusters: &midas_cluster::ClusterSet) -> Vec<(usize, Csr)> {
    clusters
        .iter()
        .map(|(_, c)| (c.len(), Csr::from_graph(&c.csg().to_labeled_graph().0)))
        .collect()
}

/// Cluster coverage `ccov(p, cw, C) = Σ cw_i · I_i` (Def. 2.1): `cw_i =
/// |C_i| / |D|` and `I_i = 1` iff the CSG of `C_i` contains a subgraph
/// isomorphic to `p`, tested on precomputed [`csg_projections`] — the
/// selection loop scores many candidates against the same CSGs, so the
/// projections are computed once and each candidate is compiled once.
pub fn ccov_projected(pattern: &LabeledGraph, projections: &[(usize, Csr)], db_len: usize) -> f64 {
    if db_len == 0 {
        return 0.0;
    }
    let plan = MatchPlan::compile(pattern);
    projections
        .iter()
        .filter(|(_, projection)| plan.is_subgraph_of(projection))
        .map(|(len, _)| *len as f64 / db_len as f64)
        .sum()
}

/// Label coverage of a pattern: `|⋃_{e ∈ p} L(e, D)| / |D|` — the fraction
/// of data graphs containing at least one edge label of `p` (§2.2).
pub fn lcov_pattern(pattern: &LabeledGraph, catalog: &EdgeCatalog, db_len: usize) -> f64 {
    if db_len == 0 {
        return 0.0;
    }
    let mut union: BTreeSet<midas_graph::GraphId> = BTreeSet::new();
    for label in pattern.edge_labels().collect::<BTreeSet<_>>() {
        if let Some(stats) = catalog.get(label) {
            union.extend(stats.support.iter().copied());
        }
    }
    union.len() as f64 / db_len as f64
}

/// Diversity `div(p, P \ p) = min GED'_l(p, p_i)` (§2.2, §6.1), with the
/// graph-level tightened bound. An empty reference set yields the neutral
/// value 1.0 (first pattern selected).
pub fn diversity(pattern: &LabeledGraph, others: &[LabeledGraph]) -> f64 {
    others
        .iter()
        .map(|p| ged_tight_lower_bound(pattern, p) as f64)
        .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))))
        .unwrap_or(1.0)
}

/// Pattern-set level quality `f` measures (§2.2): used by experiments and
/// by the swap criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetQuality {
    /// `f_scov(P)`: fraction of data graphs covered by at least one pattern.
    pub scov: f64,
    /// `f_lcov(P)`: fraction of data graphs containing at least one pattern
    /// edge label.
    pub lcov: f64,
    /// `f_div(P)`: minimum pairwise diversity.
    pub div: f64,
    /// `f_cog(P)`: maximum cognitive load.
    pub cog: f64,
}

/// Computes the set-level quality over an explicit universe of graphs,
/// with the `f_scov` containment scan run through `kernel`'s memo: cheap
/// when the same patterns are evaluated over overlapping universes batch
/// after batch.
pub fn set_quality(
    kernel: &MatchKernel,
    patterns: &[LabeledGraph],
    db: &midas_graph::GraphDb,
    catalog: &EdgeCatalog,
    universe: &BTreeSet<midas_graph::GraphId>,
) -> SetQuality {
    let graphs: Vec<(midas_graph::GraphId, &Csr)> = universe
        .iter()
        .map(|&id| (id, db.csr(id).expect("live id")))
        .collect();
    let prepared: Vec<CachedPattern> = patterns.iter().map(CachedPattern::new).collect();
    let covered = kernel
        .any_covered_in(&prepared, &graphs)
        .into_iter()
        .filter(|&hit| hit)
        .count();
    let measures = set_measures(patterns, catalog, universe);
    SetQuality {
        scov: covered as f64 / universe.len().max(1) as f64,
        lcov: measures.lcov,
        div: measures.div,
        cog: measures.cog,
    }
}

/// The three set-level measures that need no containment scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetMeasures {
    /// `f_lcov(P)` over the universe.
    pub lcov: f64,
    /// `f_div(P)`: minimum pairwise diversity (0 for an empty set).
    pub div: f64,
    /// `f_cog(P)`: maximum cognitive load.
    pub cog: f64,
}

/// `f_lcov`, `f_div` and `f_cog` of `patterns` over `universe` — the part
/// of [`set_quality`] that the swap criteria sw3–sw5 (§6.2) compare
/// before and after a hypothetical swap.
pub fn set_measures(
    patterns: &[LabeledGraph],
    catalog: &EdgeCatalog,
    universe: &BTreeSet<midas_graph::GraphId>,
) -> SetMeasures {
    let mut label_union: BTreeSet<midas_graph::GraphId> = BTreeSet::new();
    for p in patterns {
        for label in p.edge_labels() {
            if let Some(stats) = catalog.get(label) {
                label_union.extend(stats.support.intersection(universe).copied());
            }
        }
    }
    // The minimum of every pattern's `diversity` against the others: over
    // ordered pairs, since the bound is not symmetric. A lone pattern has
    // the neutral 1.0, and an empty set is not finite, so 0 below.
    let div = match patterns.len() {
        1 => 1.0,
        n => (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| ged_tight_lower_bound(&patterns[i], &patterns[j]) as f64)
            .fold(f64::INFINITY, f64::min),
    };
    let cog = patterns
        .iter()
        .map(|p| p.cognitive_load())
        .fold(0.0, f64::max);
    SetMeasures {
        lcov: label_union.len() as f64 / universe.len().max(1) as f64,
        div: if div.is_finite() { div } else { 0.0 },
        cog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cluster::{ClusterConfig, ClusterSet, FeatureSpace};
    use midas_graph::{GraphBuilder, GraphDb, GraphId};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn sample_db() -> GraphDb {
        GraphDb::from_graphs([
            path(&[0, 1, 2]),
            path(&[0, 1, 2]),
            path(&[0, 1]),
            path(&[3, 4, 3]),
        ])
    }

    fn clusters(db: &GraphDb) -> ClusterSet {
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
        ClusterSet::build(
            db,
            &lattice,
            space,
            ClusterConfig {
                coarse_clusters: 2,
                ..ClusterConfig::default()
            },
        )
    }

    #[test]
    fn ccov_sums_matching_cluster_weights() {
        let db = sample_db();
        let set = clusters(&db);
        // C-O edge appears in the C-O-N cluster's CSG only.
        let projections = csg_projections(&set);
        let ccov = |p: &LabeledGraph| ccov_projected(p, &projections, db.len());
        let got = ccov(&path(&[0, 1]));
        assert!((got - 0.75).abs() < 1e-12, "got {got}");
        // S-P in the other cluster (1 graph).
        assert!((ccov(&path(&[3, 4])) - 0.25).abs() < 1e-12);
        // Absent label: zero.
        assert_eq!(ccov(&path(&[7, 7])), 0.0);
    }

    #[test]
    fn lcov_unions_edge_supports() {
        let db = sample_db();
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        // Pattern with C-O edge: 3 of 4 graphs have the label.
        assert!((lcov_pattern(&path(&[0, 1]), &catalog, db.len()) - 0.75).abs() < 1e-12);
        // Pattern with both C-O and S-P: union is all 4.
        let mixed = GraphBuilder::new()
            .vertices(&[0, 1, 3, 4])
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build();
        assert!((lcov_pattern(&mixed, &catalog, db.len()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diversity_minimum_and_default() {
        let p = path(&[0, 1]);
        assert_eq!(diversity(&p, &[]), 1.0);
        let others = vec![path(&[0, 1]), path(&[3, 4, 3])];
        assert_eq!(diversity(&p, &others), 0.0, "identical pattern in set");
        let others2 = vec![path(&[0, 1, 2])];
        assert!(diversity(&p, &others2) > 0.0);
    }

    #[test]
    fn score_is_multiplicative() {
        let parts = PatternScoreParts {
            coverage: 0.5,
            lcov: 0.8,
            div: 2.0,
            cog: 4.0,
        };
        assert!((pattern_score(parts) - 0.2).abs() < 1e-12);
        let zero_cog = PatternScoreParts { cog: 0.0, ..parts };
        assert!(pattern_score(zero_cog).is_finite() || pattern_score(zero_cog) > 0.0);
    }

    #[test]
    fn set_diversity_is_the_least_ordered_pair_bound() {
        // A star and a path with equal edge counts: the bound differs by
        // direction, and f_div takes the smaller.
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 2, 3, 4])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(0, 4)
            .build();
        let chain = path(&[1, 2, 3, 4, 0]);
        let (there, back) = (
            ged_tight_lower_bound(&star, &chain),
            ged_tight_lower_bound(&chain, &star),
        );
        assert_ne!(there, back);
        let catalog = EdgeCatalog::build(std::iter::empty());
        let universe = BTreeSet::new();
        let div = |set: &[LabeledGraph]| set_measures(set, &catalog, &universe).div;
        assert_eq!(div(&[star.clone(), chain.clone()]), there.min(back) as f64);
        assert_eq!(div(&[chain, star]), there.min(back) as f64);
        assert_eq!(div(&[path(&[0, 1])]), 1.0, "a lone pattern");
        assert_eq!(div(&[]), 0.0, "an empty set");
    }

    #[test]
    fn set_quality_measures() {
        let db = sample_db();
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let patterns = vec![path(&[0, 1]), path(&[3, 4])];
        let kernel = MatchKernel::new();
        let q = set_quality(&kernel, &patterns, &db, &catalog, &universe);
        assert!((q.scov - 1.0).abs() < 1e-12, "all graphs covered");
        assert!((q.lcov - 1.0).abs() < 1e-12);
        assert!(q.div > 0.0);
        assert!(q.cog > 0.0);
        // Empty pattern set: zero coverage, zero div, zero cog.
        let empty = set_quality(&kernel, &[], &db, &catalog, &universe);
        assert_eq!(empty.scov, 0.0);
        assert_eq!(empty.cog, 0.0);
    }
}
