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
//! The Def. 5.5 test needs each candidate's covered graphs anyway, so every
//! [`Candidate`] leaves generation with its covered count, and
//! [`CoverageState`] keeps each pattern's: the §6.2 swap scores both sides
//! from these counts without running the coverage filter again.

use crate::metrics::ScovContext;
use crate::patterns::{PatternId, PatternStore};
use midas_catapult::candidates::generate_candidates;
use midas_catapult::random_walk::random_walks;
use midas_catapult::{PatternBudget, WeightedCsg};
use midas_graph::canonical::canonical_code;
use midas_graph::{GraphId, LabeledGraph};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// A promising candidate with its covered count over the sample,
/// `|G_scov(c) ∩ D_s|`.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate pattern.
    pub graph: LabeledGraph,
    /// How many sampled graphs contain it.
    pub covered: usize,
}

impl Candidate {
    /// Counts each graph's coverage through `ctx` — for candidates that
    /// did not come out of [`generate_promising_candidates`].
    pub fn scored(ctx: &ScovContext<'_>, graphs: Vec<LabeledGraph>) -> Vec<Candidate> {
        graphs
            .into_iter()
            .map(|graph| Candidate {
                covered: ctx.covered(&graph).len(),
                graph,
            })
            .collect()
    }
}

/// Coverage bookkeeping for the current pattern set over the sample.
#[derive(Debug, Clone, Default)]
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

/// Computes the coverage state of `store` over the sample.
pub fn coverage_state(store: &PatternStore, ctx: &ScovContext<'_>) -> CoverageState {
    let per_pattern: Vec<(PatternId, BTreeSet<GraphId>)> =
        store.iter().map(|(id, p)| (id, ctx.covered(p))).collect();
    let mut covered_union = BTreeSet::new();
    for (_, covered) in &per_pattern {
        covered_union.extend(covered.iter().copied());
    }
    let covered = per_pattern.iter().map(|(id, c)| (*id, c.len())).collect();
    let mut exclusive = BTreeMap::new();
    for (id, covered) in &per_pattern {
        let others: BTreeSet<GraphId> = per_pattern
            .iter()
            .filter(|(other, _)| other != id)
            .flat_map(|(_, c)| c.iter().copied())
            .collect();
        exclusive.insert(*id, covered.difference(&others).count());
    }
    let min_exclusive = exclusive.values().copied().min().unwrap_or(0);
    CoverageState {
        covered_union,
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
/// set, each with the covered count its Def. 5.5 test computed.
pub fn generate_promising_candidates(
    csgs: &[WeightedCsg],
    store: &PatternStore,
    ctx: &ScovContext<'_>,
    state: &CoverageState,
    params: &GenerationParams,
    rng: &mut StdRng,
) -> Vec<Candidate> {
    let threshold = ((1.0 + params.kappa) * state.min_exclusive as f64).ceil() as usize;
    let mut out = Vec::new();
    let mut codes = BTreeSet::new();
    for csg in csgs {
        let stats = random_walks(csg, params.walks, params.walk_length, rng);
        for size in params.budget.eta_min..=params.budget.eta_max {
            // Eq. 2 hook: veto extensions whose edge has low marginal
            // coverage. The edge's coverage set comes from the edge
            // catalog through the context.
            let mut hook = |_partial: &[(u32, u32)], next: (u32, u32)| {
                let label = csg.graph.edge_label(next.0, next.1);
                let marginal = ctx.catalog.get(label).map_or(0, |stats| {
                    stats
                        .support
                        .iter()
                        .filter(|id| ctx.sample.contains(id) && !state.covered_union.contains(id))
                        .count()
                });
                marginal >= threshold
            };
            for candidate in
                generate_candidates(csg, &stats, size, params.seeds_per_size, &mut hook)
            {
                if store.contains_isomorphic(&candidate) {
                    continue;
                }
                // Promising-FCP test (Def. 5.5): the candidate's marginal
                // coverage must reach (1 + κ) × the smallest exclusive
                // coverage of an existing pattern.
                let covered = ctx.covered(&candidate);
                if covered.difference(&state.covered_union).count() < threshold {
                    continue;
                }
                let code = canonical_code(&candidate);
                if codes.insert(code) {
                    out.push(Candidate {
                        graph: candidate,
                        covered: covered.len(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::{ClosureGraph, GraphBuilder, GraphDb, MatchKernel};
    use midas_index::{FctIndex, IfeIndex};
    use midas_mining::EdgeCatalog;
    use rand::SeedableRng;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    struct World {
        db: GraphDb,
        fct: FctIndex,
        ife: IfeIndex,
        catalog: EdgeCatalog,
        sample: BTreeSet<GraphId>,
        kernel: MatchKernel,
    }

    fn world(graphs: Vec<LabeledGraph>) -> World {
        let db = GraphDb::from_graphs(graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
        );
        let ife = IfeIndex::build(BTreeSet::new(), refs.iter().copied());
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        World {
            db,
            fct,
            ife,
            catalog,
            sample,
            kernel: MatchKernel::new(),
        }
    }

    fn ctx<'a>(w: &'a World) -> ScovContext<'a> {
        ScovContext {
            fct: &w.fct,
            ife: &w.ife,
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
        for cand in &candidates {
            assert_eq!(cand.covered, c.covered(&cand.graph).len());
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
}
