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
use midas_graph::mccs::MccsResult;
use midas_graph::{GraphDb, GraphId, LabeledGraph, VertexId};
use midas_index::EMBED_CAP;
use midas_mining::{TreeEntry, TreeKey};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};

use crate::vf2::{count_embeddings, is_subgraph_of};

/// `features` as lattice entries over `db`, each tree's support found by
/// VF2 ([`is_subgraph_of`]): what `FctIndex::sync` takes, for a feature
/// set no lattice mined. A repeated key gets one entry.
pub fn reference_entries(
    features: impl IntoIterator<Item = (TreeKey, LabeledGraph)>,
    db: &GraphDb,
) -> BTreeMap<TreeKey, TreeEntry> {
    features
        .into_iter()
        .map(|(key, tree)| {
            let support = db
                .iter()
                .filter(|(_, g)| is_subgraph_of(&tree, g))
                .map(|(id, _)| id)
                .collect();
            (key, TreeEntry::new(tree, support))
        })
        .collect()
}

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

/// Multiset intersection size of two sorted slices.
fn sorted_multiset_intersection<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Exact GED by branch-and-bound over vertex assignments.
///
/// Returns `None` if the distance exceeds `limit` (use `u32::MAX` for an
/// unbounded search). Exponential in `|V_A|`; intended for validation and
/// property tests on graphs with ≤ ~8 vertices, exactly the role exact GED
/// plays in the paper (it is never computed at scale there either). The
/// cost model is `midas_graph::ged`'s: vertex insert / delete / relabel
/// and edge insert / delete cost 1 each.
pub fn ged_exact_bounded(a: &LabeledGraph, b: &LabeledGraph, limit: u32) -> Option<u32> {
    // Map vertices of A in order; each maps to an unused B vertex or ε.
    let na = a.vertex_count();
    let nb = b.vertex_count();
    let mut best = limit.saturating_add(1);
    let mut mapping: Vec<u32> = vec![u32::MAX; na]; // u32::MAX - 1 encodes ε
    let mut used = vec![false; nb];

    // Admissible heuristic on remaining vertex costs: label-multiset deficit.
    fn vertex_heuristic(a: &LabeledGraph, b: &LabeledGraph, depth: usize, used: &[bool]) -> u32 {
        let mut ra: Vec<u32> = (depth..a.vertex_count())
            .map(|v| a.label(v as VertexId))
            .collect();
        let mut rb: Vec<u32> = (0..b.vertex_count())
            .filter(|&v| !used[v])
            .map(|v| b.label(v as VertexId))
            .collect();
        ra.sort_unstable();
        rb.sort_unstable();
        let common = sorted_multiset_intersection(&ra, &rb);
        (ra.len().abs_diff(rb.len()) + ra.len().min(rb.len()) - common) as u32
    }

    #[allow(clippy::too_many_arguments)]
    fn rec(
        a: &LabeledGraph,
        b: &LabeledGraph,
        depth: usize,
        cost: u32,
        mapping: &mut [u32],
        used: &mut [bool],
        best: &mut u32,
    ) {
        const EPS: u32 = u32::MAX - 1;
        if cost >= *best {
            return;
        }
        let na = a.vertex_count();
        if depth == na {
            // Remaining B vertices are insertions; B edges not yet accounted
            // for (incident to an unused vertex) are insertions too.
            let mut total = cost;
            total += used.iter().filter(|&&u| !u).count() as u32;
            for &(x, y) in b.edges() {
                if !used[x as usize] || !used[y as usize] {
                    total += 1;
                }
            }
            if total < *best {
                *best = total;
            }
            return;
        }
        if cost + vertex_heuristic(a, b, depth, used) >= *best {
            return;
        }
        let av = depth as VertexId;
        // Try mapping av to each unused B vertex.
        for bv in 0..b.vertex_count() as VertexId {
            if used[bv as usize] {
                continue;
            }
            let mut step = u32::from(a.label(av) != b.label(bv));
            // Edge deletions: A edges (w, av) with w already decided.
            for &w in a.neighbors(av) {
                if (w as usize) < depth {
                    let img = mapping[w as usize];
                    if img == EPS || !b.has_edge(img, bv) {
                        step += 1;
                    }
                }
            }
            // Edge insertions: B edges (x, bv) with x an image of a decided A
            // vertex w such that (w, av) is not an A edge.
            for &x in b.neighbors(bv) {
                if used[x as usize] {
                    let w = mapping[..depth]
                        .iter()
                        .position(|&m| m == x)
                        .expect("used image must have a preimage");
                    if !a.has_edge(w as VertexId, av) {
                        step += 1;
                    }
                }
            }
            mapping[depth] = bv;
            used[bv as usize] = true;
            rec(a, b, depth + 1, cost + step, mapping, used, best);
            used[bv as usize] = false;
            mapping[depth] = u32::MAX;
        }
        // Try deleting av: the vertex plus every edge to a decided vertex.
        let mut step = 1;
        for &w in a.neighbors(av) {
            if (w as usize) < depth {
                step += 1;
            }
        }
        mapping[depth] = EPS;
        rec(a, b, depth + 1, cost + step, mapping, used, best);
        mapping[depth] = u32::MAX;
    }

    rec(a, b, 0, 0, &mut mapping, &mut used, &mut best);
    (best <= limit).then_some(best)
}

/// Exact GED with no limit. See [`ged_exact_bounded`].
pub fn ged_exact(a: &LabeledGraph, b: &LabeledGraph) -> u32 {
    ged_exact_bounded(a, b, u32::MAX - 2).expect("unbounded search always returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::{GraphBuilder, GraphDb, MatchKernel};
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
        let kernel = MatchKernel::new();
        let entries = reference_entries([(tree_key(&feature), feature)], &db);
        let fct = FctIndex::build(&entries, &db);
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

    fn triangle(l: u32) -> LabeledGraph {
        GraphBuilder::new()
            .vertices(&[l, l, l])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
    }

    #[test]
    fn single_relabel_costs_one() {
        let a = path(&[0, 1, 0]);
        let b = path(&[0, 2, 0]);
        assert_eq!(ged_exact(&a, &b), 1);
    }

    #[test]
    fn vertex_insertion_with_edge() {
        let a = path(&[0, 0]);
        let b = path(&[0, 0, 0]);
        // Insert one vertex and one edge.
        assert_eq!(ged_exact(&a, &b), 2);
    }

    #[test]
    fn distance_is_symmetric_on_samples() {
        let gs = [
            path(&[0, 1, 0]),
            triangle(0),
            path(&[1, 1]),
            path(&[0, 1, 2, 0]),
        ];
        for x in &gs {
            for y in &gs {
                assert_eq!(ged_exact(x, y), ged_exact(y, x), "x={x:?} y={y:?}");
            }
        }
    }

    #[test]
    fn bounded_search_gives_none_beyond_limit() {
        let a = path(&[0, 0]);
        let b = triangle(1);
        let exact = ged_exact(&a, &b);
        assert!(exact > 1);
        assert_eq!(ged_exact_bounded(&a, &b, 1), None);
        assert_eq!(ged_exact_bounded(&a, &b, exact), Some(exact));
    }

    #[test]
    fn edge_insertion_and_build_cost() {
        // One edge closes a 3-path into a triangle; building a triangle
        // from nothing is 3 vertex plus 3 edge insertions.
        assert_eq!(ged_exact(&path(&[0, 0, 0]), &triangle(0)), 1);
        assert_eq!(ged_exact(&LabeledGraph::new(), &triangle(0)), 6);
    }
}
