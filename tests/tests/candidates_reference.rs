//! Candidate generation vs the oracle's reference loop on two hand-built
//! worlds: one whose CSGs grow the same class twice, and one whose
//! dominance filter rejects a class unverified. Oracle check 12
//! (`candidates_vs_reference`) runs the same comparison on generated
//! worlds.

use midas_catapult::{PatternBudget, WeightedCsg};
use midas_core::candidate_gen::{coverage_state, generate_promising_candidates, GenerationParams};
use midas_core::metrics::ScovContext;
use midas_core::PatternStore;
use midas_graph::{ClosureGraph, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::FctIndex;
use midas_mining::EdgeCatalog;
use midas_oracle::reference_promising_candidates;
use midas_tests::path;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Generates from one CSG per part of the database's ids (as `split`
/// cuts them) with a C-O pattern in the store, in production and in the
/// reference, each through its own cold kernel. The FCT-Index has no
/// rows, so the dominance filter keeps the graphs with enough edges of
/// each of a pattern's labels. Asserts equal candidates and coverage, and
/// returns how many there are and the reference kernel's memo hits.
fn compare(
    graphs: Vec<LabeledGraph>,
    split: fn(&[GraphId]) -> Vec<&[GraphId]>,
    seed: u64,
) -> (usize, u64) {
    let db = GraphDb::from_graphs(graphs);
    let refs: Vec<(GraphId, &LabeledGraph)> = db.iter().map(|(id, g)| (id, g.as_ref())).collect();
    let catalog = EdgeCatalog::build(refs.iter().copied());
    let fct = FctIndex::new();
    let sample: BTreeSet<GraphId> = db.ids().collect();
    let ids: Vec<GraphId> = db.ids().collect();
    let csgs: Vec<WeightedCsg> = split(&ids)
        .into_iter()
        .map(|part| {
            let closure = ClosureGraph::from_graphs(
                part.iter().map(|&id| (id, db.get(id).unwrap().as_ref())),
            );
            WeightedCsg::build(&closure, &catalog, db.len())
        })
        .collect();
    let params = GenerationParams {
        budget: PatternBudget {
            eta_min: 2,
            eta_max: 3,
            gamma: 4,
        },
        walks: 50,
        walk_length: 10,
        seeds_per_size: 2,
        kappa: 0.1,
    };
    let store = PatternStore::from_patterns([path(&[0, 1])]);
    let (fast, slow) = (MatchKernel::new(), MatchKernel::new());
    let ctx = ScovContext {
        fct: &fct,
        db: &db,
        sample: &sample,
        catalog: &catalog,
        kernel: &fast,
    };
    let reference_ctx = ScovContext {
        kernel: &slow,
        ..ctx
    };
    let state = coverage_state(&store, &ctx);
    let rng = || StdRng::seed_from_u64(seed);
    let got = generate_promising_candidates(&csgs, &store, &ctx, &state, &params, &mut rng());
    let want =
        reference_promising_candidates(&csgs, &store, &reference_ctx, &state, &params, &mut rng());
    let outcome = |cs: &[midas_core::candidate_gen::Candidate]| -> Vec<_> {
        cs.iter()
            .map(|c| (c.graph.clone(), c.coverage.clone()))
            .collect()
    };
    assert_eq!(outcome(&got), outcome(&want));
    (got.len(), slow.cache().stats().hits)
}

#[test]
fn a_class_grown_by_two_csgs_matches_the_reference() {
    // Two clusters of the same S-S-S family grow the same classes; the C-O
    // pattern (exclusive coverage 3, bar ⌈1.1 · 3⌉ = 4) leaves the 12
    // S-chains promising. The reference re-tests the repeats, so its memo
    // hits.
    let mut graphs = vec![path(&[0, 1]); 3];
    graphs.extend(vec![path(&[3, 3, 3, 3]); 12]);
    let (candidates, reference_hits) = compare(graphs, |ids| vec![&ids[3..9], &ids[9..]], 5);
    assert!(candidates > 0, "S-chain candidates expected");
    assert!(reference_hits > 0, "the world repeats a class");
}

#[test]
fn a_class_short_on_survivors_matches_the_reference() {
    // The two S-S-S chains are all an S-S-S class's survivors, so it fails
    // unverified; the six N-N-N chains pass and are verified.
    let mut graphs = vec![path(&[0, 1]); 3];
    graphs.extend(vec![path(&[3, 3, 3]); 2]);
    graphs.extend(vec![path(&[5, 5, 5]); 6]);
    let (candidates, _) = compare(graphs, |ids| vec![ids], 6);
    assert!(candidates > 0, "N-N-N candidates expected");
}
