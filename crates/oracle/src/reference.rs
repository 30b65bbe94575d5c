//! Reference twins of production paths, for the checks, the tests and
//! the benches; no production crate depends on `midas-oracle`, so none
//! can call them.

use midas_catapult::candidates::generate_candidates;
use midas_catapult::random_walk::random_walks;
use midas_catapult::score::{diversity, lcov_pattern, pattern_score, PatternScoreParts};
use midas_catapult::WeightedCsg;
use midas_core::candidate_gen::{Candidate, Coverage, CoverageState, GenerationParams};
use midas_core::metrics::ScovContext;
use midas_core::PatternStore;
use midas_graph::canonical::canonical_code;
use midas_graph::isomorphism::count_embeddings;
use midas_graph::mccs::MccsResult;
use midas_graph::{GraphId, LabeledGraph, VertexId};
use midas_index::EMBED_CAP;
use midas_mining::TreeKey;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// The TG matrix of an FCT-Index over `features` and `graphs`, counted by
/// VF2 ([`count_embeddings`] at [`EMBED_CAP`]): the non-zero cells,
/// keyed by `(feature key, graph)`. A repeated key counts once.
pub fn reference_tg_cells<'a>(
    features: &[(TreeKey, LabeledGraph)],
    graphs: impl IntoIterator<Item = (GraphId, &'a LabeledGraph)>,
) -> BTreeMap<(TreeKey, GraphId), u32> {
    let mut cells = BTreeMap::new();
    for (gid, g) in graphs {
        for (key, tree) in features {
            let count = count_embeddings(tree, g, EMBED_CAP) as u32;
            if count > 0 {
                cells.insert((key.clone(), gid), count);
            }
        }
    }
    cells
}

/// `scov(p, D_s)` recomputed through the dominance filter and the
/// kernel: the value the swap's carried covered counts must give.
pub(crate) fn reference_scov(ctx: &ScovContext<'_>, pattern: &LabeledGraph) -> f64 {
    ctx.scov_of(ctx.covered(pattern).len())
}

/// The MIDAS pattern score `s'_p = scov × lcov × div / cog` (§6.1), with
/// diversity measured against `others` and every part recomputed,
/// coverage included: the score the swap's tables must reproduce.
pub(crate) fn reference_pattern_score(
    ctx: &ScovContext<'_>,
    pattern: &LabeledGraph,
    others: &[LabeledGraph],
) -> f64 {
    pattern_score(PatternScoreParts {
        coverage: reference_scov(ctx, pattern),
        lcov: lcov_pattern(pattern, ctx.catalog, ctx.db.len()),
        div: diversity(pattern, others),
        cog: pattern.cognitive_load(),
    })
}

struct ReferenceSearch<'a> {
    g1: &'a LabeledGraph,
    g2: &'a LabeledGraph,
    map1: Vec<u32>,
    used2: Vec<bool>,
    matched: usize,
    best: usize,
    budget: u64,
    exhausted: bool,
}

const UNMAPPED: u32 = u32::MAX;

impl ReferenceSearch<'_> {
    /// Upper bound on the total matched edges attainable from this state:
    /// currently matched edges plus every G1 edge with at least one
    /// unmapped endpoint (edges with both endpoints mapped are decided —
    /// either counted in `matched` or lost).
    fn upper_bound(&self) -> usize {
        let mut potential = 0;
        for &(u, v) in self.g1.edges() {
            let (mu, mv) = (self.map1[u as usize], self.map1[v as usize]);
            if mu == UNMAPPED || mv == UNMAPPED {
                potential += 1;
            }
        }
        self.matched + potential
    }

    /// Branches over every `(frontier vertex, image)` pair with positive
    /// edge gain (any label-compatible pair for the seed). Recording at
    /// node entry makes "stop here" implicit, so every connected common
    /// subgraph — which always admits a connected build order — is
    /// reachable; no vertex choice is ever committed permanently.
    fn run(&mut self) {
        if self.budget == 0 {
            self.exhausted = true;
            return;
        }
        self.budget -= 1;
        self.best = self.best.max(self.matched);
        if self.upper_bound() <= self.best {
            return;
        }
        let any_mapped = self.map1.iter().any(|&m| m != UNMAPPED);
        for u in 0..self.g1.vertex_count() as VertexId {
            if self.map1[u as usize] != UNMAPPED {
                continue;
            }
            if any_mapped
                && !self
                    .g1
                    .neighbors(u)
                    .iter()
                    .any(|&w| self.map1[w as usize] != UNMAPPED)
            {
                continue; // not on the frontier
            }
            for v in 0..self.g2.vertex_count() as VertexId {
                if self.used2[v as usize] || self.g2.label(v) != self.g1.label(u) {
                    continue;
                }
                let gain = self
                    .g1
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| {
                        let img = self.map1[w as usize];
                        img != UNMAPPED && self.g2.has_edge(img, v)
                    })
                    .count();
                // Connected growth: after the seed, a new pair must attach
                // by at least one matched edge.
                if any_mapped && gain == 0 {
                    continue;
                }
                self.map1[u as usize] = v;
                self.used2[v as usize] = true;
                self.matched += gain;
                self.run();
                self.matched -= gain;
                self.used2[v as usize] = false;
                self.map1[u as usize] = UNMAPPED;
                if self.exhausted {
                    return;
                }
            }
        }
    }
}

/// The reference twin of [`midas_graph::mccs::mccs_edges`]: the same
/// search tree, with every node rescanning the graphs for its bound,
/// frontier, candidates and gains (check 11, `mccs_vs_reference`).
pub fn reference_mccs_edges(a: &LabeledGraph, b: &LabeledGraph, budget: u64) -> MccsResult {
    if a.edge_count() == 0 || b.edge_count() == 0 {
        return MccsResult {
            edges: 0,
            exact: true,
        };
    }
    // Search from the smaller-vertex-count side for a smaller branching tree.
    let (g1, g2) = if a.vertex_count() <= b.vertex_count() {
        (a, b)
    } else {
        (b, a)
    };
    let mut search = ReferenceSearch {
        g1,
        g2,
        map1: vec![UNMAPPED; g1.vertex_count()],
        used2: vec![false; g2.vertex_count()],
        matched: 0,
        best: 0,
        budget,
        exhausted: false,
    };
    search.run();
    MccsResult {
        edges: search.best,
        exact: !search.exhausted,
    }
}

/// `midas_core::candidate_gen::generate_promising_candidates` as it ran
/// before each question was asked once per call: the Eq. 2 hook walks the
/// label's support on every extension, and every grown FCP is looked up in
/// the store and scored by Def. 5.5, repeats of a class included (check
/// 12, `candidates_vs_reference`).
pub fn reference_promising_candidates(
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
            let order = stats.edges_by_frequency();
            for (candidate, _) in
                generate_candidates(csg, &order, size, params.seeds_per_size, &mut hook)
            {
                let code = canonical_code(&candidate);
                if store.contains_code(&code) {
                    continue;
                }
                let covered = ctx.covered(&candidate);
                if covered.difference(&state.covered_union).count() < threshold {
                    continue;
                }
                if codes.insert(code) {
                    out.push(Candidate {
                        graph: candidate,
                        coverage: Coverage::Covered(covered.len()),
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
    use midas_graph::{Csr, GraphBuilder, GraphDb, MatchKernel};
    use midas_index::FctIndex;
    use midas_mining::{tree_key, EdgeCatalog};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    #[test]
    fn midas_score_is_positive_for_covered_patterns() {
        let db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[0, 1]), path(&[3, 4])]);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let feature = path(&[0, 1, 2]);
        let csrs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let kernel = MatchKernel::new();
        let fct = FctIndex::build(&kernel, [(tree_key(&feature), feature)], &csrs);
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let ctx = ScovContext {
            fct: &fct,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &kernel,
        };
        let s = reference_pattern_score(&ctx, &path(&[0, 1]), &[path(&[3, 4])]);
        assert!(s > 0.0);
        // Uncovered pattern scores zero via the coverage factor.
        assert_eq!(reference_pattern_score(&ctx, &path(&[7, 7]), &[]), 0.0);
    }
}
