//! Pruning-based candidate generation (§5.2).
//!
//! Candidate FCPs are grown exactly as in CATAPULT (most-traversed-edge
//! extension on weighted CSGs), but MIDAS interposes the coverage-based
//! early-termination test of Eq. 2 before each extension: when the next
//! edge's *marginal* subgraph coverage (graphs it reaches that the current
//! pattern set does not) falls below `(1 + κ)` times the smallest exclusive
//! coverage of any existing pattern, the candidate cannot become a
//! *promising FCP* (Def. 5.5) and generation stops.
//!
//! [`generate_promising_candidates`] asks each question once per call, in
//! two passes. [`new_classes`] runs the walks and the growth; the Eq. 2
//! answer depends only on the next edge's label, so it is kept per label,
//! and each isomorphism class is kept once, as its first grown graph.
//! [`promising_candidates`] then runs the Def. 5.5 test once per class,
//! which depends only on the class. DESIGN §5 has the argument that the
//! output is that of the loop which re-asked both
//! (`reference_promising_candidates` in the `midas-oracle` crate).
//!
//! A [`Candidate`] leaves generation with its dominance-filter survivors
//! over the sample (§6.1), which contain its covered graphs, and is
//! verified only when the §6.2 swap reaches it ([`Coverage`]). At a
//! Def. 5.5 threshold of 0 the test rejects nothing, so no class is
//! verified here; above 0 a class whose survivors alone fall short is
//! rejected unverified, and the rest are verified and leave exact.
//! [`CoverageState`] keeps each pattern's covered count, so the swap
//! scores the patterns without running the coverage filter again.

use crate::metrics::ScovContext;
use crate::patterns::{PatternId, PatternStore};
use midas_catapult::candidates::generate_candidates;
use midas_catapult::random_walk::random_walks;
use midas_catapult::{PatternBudget, WeightedCsg};
use midas_graph::{EdgeLabel, GraphId, LabeledGraph};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// A candidate's coverage of the sample, `G_scov(c) ∩ D_s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coverage {
    /// Verified: how many sampled graphs contain the candidate.
    Covered(usize),
    /// Not verified yet: the sampled graphs the dominance filter keeps,
    /// ascending. They contain the covered graphs, so their number bounds
    /// the covered count from above.
    Survivors(Vec<GraphId>),
}

/// A promising candidate with its coverage of the sample.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate pattern.
    pub graph: LabeledGraph,
    /// Its covered count, or the survivors that bound it.
    pub coverage: Coverage,
}

impl Candidate {
    /// Counts each graph's coverage through `ctx` — for candidates that
    /// did not come out of [`generate_promising_candidates`].
    pub fn scored(ctx: &ScovContext<'_>, graphs: Vec<LabeledGraph>) -> Vec<Candidate> {
        graphs
            .into_iter()
            .map(|graph| Candidate {
                coverage: Coverage::Covered(ctx.covered(&graph).len()),
                graph,
            })
            .collect()
    }

    /// Runs only the dominance filter for each graph: the unverified
    /// candidates [`promising_candidates`] makes at threshold 0.
    pub fn filtered(ctx: &ScovContext<'_>, graphs: Vec<LabeledGraph>) -> Vec<Candidate> {
        graphs
            .into_iter()
            .map(|graph| Candidate {
                coverage: Coverage::Survivors(ctx.survivors(&graph)),
                graph,
            })
            .collect()
    }

    /// Whether the covered count is exact.
    pub fn is_verified(&self) -> bool {
        matches!(self.coverage, Coverage::Covered(_))
    }

    /// The covered count, or its bound while unverified.
    pub fn bound(&self) -> usize {
        match &self.coverage {
            Coverage::Covered(n) => *n,
            Coverage::Survivors(survivors) => survivors.len(),
        }
    }

    /// The covered count, verifying the survivors through `ctx`'s kernel
    /// on the first call.
    pub fn verify(&mut self, ctx: &ScovContext<'_>) -> usize {
        if let Coverage::Survivors(survivors) = &self.coverage {
            self.coverage = Coverage::Covered(ctx.verify(&self.graph, survivors).len());
        }
        self.bound()
    }
}

/// Coverage bookkeeping for the current pattern set over the sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageState {
    /// `⋃_{p ∈ P} G_scov(p)` over the sample.
    pub covered_union: BTreeSet<GraphId>,
    /// Per pattern: `|G_scov(p)|` over the sample.
    pub covered: BTreeMap<PatternId, usize>,
    /// Per pattern: `|G_scov(p) \ ⋃_{p' ≠ p} G_scov(p')|`.
    pub exclusive: BTreeMap<PatternId, usize>,
    /// The minimum exclusive coverage across patterns (0 when `P` is
    /// empty — every candidate is then promising).
    pub min_exclusive: usize,
}

impl CoverageState {
    /// The bar of Eq. 2 and Def. 5.5: a marginal coverage of at least
    /// `⌈(1 + κ) · min_exclusive⌉` graphs.
    pub fn threshold(&self, kappa: f64) -> usize {
        ((1.0 + kappa) * self.min_exclusive as f64).ceil() as usize
    }
}

/// Computes the coverage state of `store` over the sample.
///
/// One pass counts, per graph, how many patterns cover it; a pattern's
/// exclusive graphs are its graphs covered once.
pub fn coverage_state(store: &PatternStore, ctx: &ScovContext<'_>) -> CoverageState {
    let per_pattern: Vec<(PatternId, BTreeSet<GraphId>)> =
        store.iter().map(|(id, p)| (id, ctx.covered(p))).collect();
    let mut multiplicity: BTreeMap<GraphId, usize> = BTreeMap::new();
    for (_, covered) in &per_pattern {
        for &id in covered {
            *multiplicity.entry(id).or_insert(0) += 1;
        }
    }
    let covered = per_pattern.iter().map(|(id, c)| (*id, c.len())).collect();
    let exclusive: BTreeMap<PatternId, usize> = per_pattern
        .iter()
        .map(|(id, c)| (*id, c.iter().filter(|g| multiplicity[g] == 1).count()))
        .collect();
    let min_exclusive = exclusive.values().copied().min().unwrap_or(0);
    CoverageState {
        covered_union: multiplicity.into_keys().collect(),
        covered,
        exclusive,
        min_exclusive,
    }
}

/// Generation parameters (a slice of [`crate::MidasConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct GenerationParams {
    /// Pattern budget.
    pub budget: PatternBudget,
    /// Walks per CSG.
    pub walks: usize,
    /// Steps per walk.
    pub walk_length: usize,
    /// Seed ranks per (CSG, size).
    pub seeds_per_size: usize,
    /// The swapping threshold `κ` of Eq. 2 / Def. 5.5.
    pub kappa: f64,
}

/// Generates promising FCPs from the given weighted CSGs with Eq. 2
/// pruning, deduplicated up to isomorphism and against the current pattern
/// set, each with its survivors or, when its Def. 5.5 test verified it,
/// its covered count: [`new_classes`], then [`promising_candidates`].
pub fn generate_promising_candidates(
    csgs: &[WeightedCsg],
    store: &PatternStore,
    ctx: &ScovContext<'_>,
    state: &CoverageState,
    params: &GenerationParams,
    rng: &mut StdRng,
) -> Vec<Candidate> {
    let classes = new_classes(csgs, store, ctx, state, params, rng);
    promising_candidates(classes, ctx, state, params.kappa)
}

/// The generation pass: walks and Eq. 2-pruned growth on every CSG in
/// order, then every size, keeping the first grown graph of each
/// isomorphism class that `store` does not hold, in first-seen order.
///
/// The Eq. 2 hook's answer for an extension depends only on its edge
/// label (`sample`, `covered_union` and the threshold are fixed for the
/// call), so each label's is computed once.
pub fn new_classes(
    csgs: &[WeightedCsg],
    store: &PatternStore,
    ctx: &ScovContext<'_>,
    state: &CoverageState,
    params: &GenerationParams,
    rng: &mut StdRng,
) -> Vec<LabeledGraph> {
    let threshold = state.threshold(params.kappa);
    let mut eq2: BTreeMap<EdgeLabel, bool> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for csg in csgs {
        let order = random_walks(csg, params.walks, params.walk_length, rng).edges_by_frequency();
        // Eq. 2 hook: veto extensions whose edge has low marginal
        // coverage. The edge's coverage set comes from the edge catalog
        // through the context.
        let mut hook = |_partial: &[(u32, u32)], next: (u32, u32)| {
            let label = csg.graph.edge_label(next.0, next.1);
            *eq2.entry(label).or_insert_with(|| {
                let marginal = ctx.catalog.get(label).map_or(0, |stats| {
                    stats
                        .support
                        .iter()
                        .filter(|id| ctx.sample.contains(id) && !state.covered_union.contains(id))
                        .count()
                });
                marginal >= threshold
            })
        };
        for size in params.budget.eta_min..=params.budget.eta_max {
            for (candidate, code) in
                generate_candidates(csg, &order, size, params.seeds_per_size, &mut hook)
            {
                if !store.contains_code(&code) && seen.insert(code) {
                    out.push(candidate);
                }
            }
        }
    }
    out
}

/// The Def. 5.5 pass: keeps each class whose marginal coverage reaches
/// `(1 + κ)` × the smallest exclusive coverage of an existing pattern, in
/// input order.
///
/// Each class's dominance-filter survivors contain its covered graphs, so
/// the survivors outside `covered_union` bound its marginal coverage.
/// Threshold 0 rejects nothing: every class is kept unverified. Above 0, a
/// class whose bound falls short is rejected unverified, and the rest are
/// verified over their survivors and kept exact when they pass.
pub fn promising_candidates(
    classes: Vec<LabeledGraph>,
    ctx: &ScovContext<'_>,
    state: &CoverageState,
    kappa: f64,
) -> Vec<Candidate> {
    let threshold = state.threshold(kappa);
    let outside = |id: &&GraphId| !state.covered_union.contains(*id);
    classes
        .into_iter()
        .filter_map(|graph| {
            let survivors = ctx.survivors(&graph);
            if threshold == 0 {
                return Some(Candidate {
                    graph,
                    coverage: Coverage::Survivors(survivors),
                });
            }
            if survivors.iter().filter(outside).count() < threshold {
                return None;
            }
            let covered = ctx.verify(&graph, &survivors);
            (covered.iter().filter(outside).count() >= threshold).then_some(Candidate {
                graph,
                coverage: Coverage::Covered(covered.len()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::{ClosureGraph, GraphBuilder, GraphDb, MatchKernel};
    use midas_index::FctIndex;
    use midas_mining::EdgeCatalog;
    use rand::SeedableRng;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    struct World {
        db: GraphDb,
        fct: FctIndex,
        catalog: EdgeCatalog,
        sample: BTreeSet<GraphId>,
        kernel: MatchKernel,
    }

    /// A world with no FCT-Index rows: the dominance filter keeps the
    /// graphs with enough edges of each of a pattern's labels.
    fn world(graphs: Vec<LabeledGraph>) -> World {
        let db = GraphDb::from_graphs(graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let fct = FctIndex::new();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        World {
            db,
            fct,
            catalog,
            sample,
            kernel: MatchKernel::new(),
        }
    }

    fn ctx<'a>(w: &'a World) -> ScovContext<'a> {
        ScovContext {
            fct: &w.fct,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &w.kernel,
        }
    }

    fn csg_of(db: &GraphDb, catalog: &EdgeCatalog) -> WeightedCsg {
        let closure = ClosureGraph::from_graphs(db.iter().map(|(id, g)| (id, g.as_ref())));
        WeightedCsg::build(&closure, catalog, db.len())
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn params(kappa: f64) -> GenerationParams {
        GenerationParams {
            budget: PatternBudget {
                eta_min: 2,
                eta_max: 3,
                gamma: 4,
            },
            walks: 50,
            walk_length: 10,
            seeds_per_size: 2,
            kappa,
        }
    }

    #[test]
    fn coverage_state_exclusive_counts() {
        let w = world(vec![
            path(&[0, 1, 2]), // covered by both P1 and P2
            path(&[0, 1]),    // only P1
            path(&[1, 2]),    // only P2
            path(&[5, 5]),    // uncovered
        ]);
        let mut store = PatternStore::new();
        let p1 = store.insert(path(&[0, 1])).unwrap();
        let p2 = store.insert(path(&[1, 2])).unwrap();
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        assert_eq!(state.covered_union.len(), 3);
        assert_eq!((state.covered[&p1], state.covered[&p2]), (2, 2));
        assert_eq!(state.exclusive[&p1], 1);
        assert_eq!(state.exclusive[&p2], 1);
        assert_eq!(state.min_exclusive, 1);
    }

    #[test]
    fn coverage_state_counts_exclusive_graphs_under_three_overlapping_patterns() {
        let w = world(vec![
            path(&[0, 1, 2, 3]), // P1, P2 and P3
            path(&[0, 1, 2]),    // P1 and P2
            path(&[0, 1]),       // only P1
            path(&[0, 1]),       // only P1
            path(&[2, 3]),       // only P3
            path(&[5, 5]),       // uncovered
        ]);
        let mut store = PatternStore::new();
        let p1 = store.insert(path(&[0, 1])).unwrap();
        let p2 = store.insert(path(&[1, 2])).unwrap();
        let p3 = store.insert(path(&[2, 3])).unwrap();
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        let ids: Vec<GraphId> = w.db.ids().collect();
        assert_eq!(state.covered_union, ids[..5].iter().copied().collect());
        assert_eq!(state.covered, BTreeMap::from([(p1, 4), (p2, 2), (p3, 2)]));
        assert_eq!(state.exclusive, BTreeMap::from([(p1, 2), (p2, 0), (p3, 1)]));
        assert_eq!(state.min_exclusive, 0);
    }

    #[test]
    fn a_class_grown_by_two_csgs_is_scored_once() {
        // Two clusters of the same S-S-S family grow the same classes; a
        // C-O pattern (exclusive coverage 3, bar ⌈1.1 · 3⌉ = 4) leaves
        // the 12 S-chains promising.
        let mut graphs = vec![path(&[0, 1]); 3];
        graphs.extend(vec![path(&[3, 3, 3, 3]); 12]);
        let w = world(graphs);
        let ids: Vec<GraphId> = w.db.ids().collect();
        let csg = |part: &[GraphId]| {
            let closure = ClosureGraph::from_graphs(
                part.iter().map(|&id| (id, w.db.get(id).unwrap().as_ref())),
            );
            WeightedCsg::build(&closure, &w.catalog, w.db.len())
        };
        let csgs = [csg(&ids[3..9]), csg(&ids[9..])];
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1])).unwrap();
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        let before = w.kernel.cache().stats();
        let got =
            generate_promising_candidates(&csgs, &store, &c, &state, &params(0.1), &mut rng(5));
        let after = w.kernel.cache().stats();
        assert!(!got.is_empty(), "S-chain candidates expected");
        // Distinct classes never share a memo entry, so a hit means a
        // class was tested twice.
        assert_eq!(after.hits, before.hits, "every class tested once");
        assert!(after.misses > before.misses);
    }

    #[test]
    fn empty_pattern_set_makes_everything_promising() {
        let w = world(vec![path(&[0, 1, 2, 0]), path(&[0, 1, 2, 0])]);
        let store = PatternStore::new();
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        assert_eq!(state.min_exclusive, 0);
        let csg = csg_of(&w.db, &w.catalog);
        let mut rng = StdRng::seed_from_u64(1);
        let candidates =
            generate_promising_candidates(&[csg], &store, &c, &state, &params(0.1), &mut rng);
        assert!(!candidates.is_empty());
        for mut cand in candidates {
            assert!(!cand.is_verified(), "threshold 0 verifies nothing");
            assert_eq!(cand.verify(&c), c.covered(&cand.graph).len());
        }
    }

    #[test]
    fn candidates_isomorphic_to_existing_patterns_are_dropped() {
        let w = world(vec![path(&[0, 1, 2]), path(&[0, 1, 2])]);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap(); // the only size-2 FCP
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        let csg = csg_of(&w.db, &w.catalog);
        let mut rng = StdRng::seed_from_u64(2);
        let candidates =
            generate_promising_candidates(&[csg], &store, &c, &state, &params(0.0), &mut rng);
        assert!(
            candidates.iter().all(|c| c.graph.edge_count() != 2
                || !midas_graph::canonical::are_isomorphic(&c.graph, &path(&[0, 1, 2]))),
            "existing pattern must not reappear"
        );
    }

    #[test]
    fn low_marginal_coverage_prunes_candidates() {
        // Pattern already covers every graph: no candidate can be promising.
        let w = world(vec![path(&[0, 1, 2]), path(&[0, 1, 2, 0])]);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1])).unwrap(); // C-O covers everything
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        assert_eq!(state.covered_union.len(), 2);
        assert!(state.min_exclusive >= 1);
        let csg = csg_of(&w.db, &w.catalog);
        let mut rng = StdRng::seed_from_u64(3);
        let candidates =
            generate_promising_candidates(&[csg], &store, &c, &state, &params(0.1), &mut rng);
        assert!(
            candidates.is_empty(),
            "no marginal coverage left: {candidates:?}"
        );
    }

    #[test]
    fn uncovered_region_yields_promising_candidates() {
        // P covers the C-O family (3 graphs, so min exclusive coverage is 3
        // and the Def. 5.5 bar is ⌈1.1 · 3⌉ = 4); the S family is uncovered
        // and large enough (6 graphs) for an S-chain candidate to clear it.
        let mut graphs = vec![path(&[0, 1]); 3];
        graphs.extend(vec![path(&[3, 3, 3]); 6]);
        let w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1])).unwrap();
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        let csg = csg_of(&w.db, &w.catalog);
        let mut rng = StdRng::seed_from_u64(4);
        let candidates =
            generate_promising_candidates(&[csg], &store, &c, &state, &params(0.1), &mut rng);
        assert!(
            candidates
                .iter()
                .any(|c| c.graph.sorted_labels().contains(&3)),
            "S-family candidate expected: {candidates:?}"
        );
    }

    #[test]
    fn a_class_short_on_survivors_is_rejected_unverified() {
        // C-O covers three graphs alone, so the bar is ⌈1.1 · 3⌉ = 4. The
        // two S-S-S chains are all an S-S-S class's survivors, so it fails
        // unverified; the six N-N-N chains pass and are verified.
        let mut graphs = vec![path(&[0, 1]); 3];
        graphs.extend(vec![path(&[3, 3, 3]); 2]);
        graphs.extend(vec![path(&[5, 5, 5]); 6]);
        let w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1])).unwrap();
        let c = ctx(&w);
        let state = coverage_state(&store, &c);
        assert_eq!(state.threshold(0.1), 4);
        let misses = || w.kernel.cache().stats().misses;
        let before = misses();
        let classes = vec![path(&[3, 3, 3]), path(&[5, 5, 5])];
        let got = promising_candidates(classes, &c, &state, 0.1);
        assert_eq!(misses() - before, 6, "only N-N-N's survivors were verified");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].coverage, Coverage::Covered(6));
    }
}
