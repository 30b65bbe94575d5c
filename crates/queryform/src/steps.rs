//! The formulation step model (§7.1).
//!
//! Edge-at-a-time: every vertex and every edge is one atomic action.
//! Pattern-at-a-time: a canned pattern embeds with a single click-and-drag;
//! the remaining vertices/edges are added atomically. Following §7.1's
//! automated assumptions, (1) a pattern `p` is usable for query `Q` iff
//! `p ⊆ Q`, and (2) used embeddings do not overlap (vertex-disjoint).
//!
//! Minimizing steps is a set-packing problem, so we use the natural greedy:
//! largest patterns first, packing as many vertex-disjoint embeddings as
//! fit.
//!
//! Matching runs on the plan-compiled matcher over one CSR view of the
//! query. Each pattern is compiled privately ([`MatchPlan::compile`], not
//! the shared plan cache): a cached plan may come from another
//! representative of the pattern's isomorphism class and would enumerate
//! embeddings in that representative's numbering. The plan matcher
//! enumerates in the same order as the VF2 reference, so the greedy's
//! first-fit choices — and hence every step count — are the reference's.

use midas_graph::plan::Control;
use midas_graph::{Csr, LabeledGraph, MatchPlan, VertexId};

/// Result of formulating one query against a pattern set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormulationResult {
    /// Steps in pattern-at-a-time mode (patterns + residual actions).
    pub steps: usize,
    /// Steps in pure edge-at-a-time mode (`|V| + |E|`).
    pub edge_steps: usize,
    /// Number of pattern placements used.
    pub patterns_used: usize,
    /// Vertices covered by pattern placements.
    pub covered_vertices: usize,
    /// Edges covered by pattern placements.
    pub covered_edges: usize,
}

impl FormulationResult {
    /// Whether at least one canned pattern was usable.
    pub fn used_any_pattern(&self) -> bool {
        self.patterns_used > 0
    }
}

/// Formulates `query` with the given canned patterns.
///
/// Pattern packing is NP-hard, so the "minimum number of steps" is
/// approximated by multi-start greedy: one pass with patterns in
/// descending size, plus one pass per usable pattern promoted to the
/// front (the user may recognize a specialized pattern before a generic
/// big one); the best packing wins.
///
/// Patterns that do not embed in `query` are dropped up front, so no pass
/// searches for them. The result is the same: such a pattern places
/// nothing in any pass, so promoting it only repeats the size-ordered
/// pass, which never wins under the strict `<`; the stable sort keeps the
/// other patterns' relative order.
pub fn formulate(query: &LabeledGraph, patterns: &[LabeledGraph]) -> FormulationResult {
    let target = Csr::from_graph(query);
    let mut by_size: Vec<MatchPlan> = patterns
        .iter()
        .filter(|p| p.edge_count() > 0 && p.edge_count() <= query.edge_count())
        .map(MatchPlan::compile)
        .filter(|plan| plan.is_subgraph_of(&target))
        .collect();
    by_size.sort_by_key(|plan| std::cmp::Reverse(plan.edge_count()));
    best_packing(query, &target, &by_size)
}

/// The multi-start greedy of [`formulate`] over compiled, size-ordered
/// patterns: the size-ordered pass plus one pass per promoted pattern.
fn best_packing(query: &LabeledGraph, target: &Csr, by_size: &[MatchPlan]) -> FormulationResult {
    let size_order: Vec<&MatchPlan> = by_size.iter().collect();
    let mut best = pack(query, target, &size_order);
    for promoted in 0..size_order.len() {
        let mut order = size_order.clone();
        let front = order.remove(promoted);
        order.insert(0, front);
        let attempt = pack(query, target, &order);
        if attempt.steps < best.steps {
            best = attempt;
        }
    }
    best
}

/// One greedy packing pass over a fixed pattern order; `target` is the
/// CSR view of `query`.
fn pack(query: &LabeledGraph, target: &Csr, order: &[&MatchPlan]) -> FormulationResult {
    let n = query.vertex_count();
    let edge_steps = n + query.edge_count();
    let mut used_vertex = vec![false; n];
    let mut patterns_used = 0usize;
    let mut covered_edges = 0usize;

    for pattern in order {
        loop {
            // Find one embedding avoiding used vertices.
            let mut found: Option<Vec<VertexId>> = None;
            pattern.for_each_embedding(target, &mut |mapping| {
                if mapping.iter().all(|&tv| !used_vertex[tv as usize]) {
                    found = Some(mapping.to_vec());
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            let Some(mapping) = found else { break };
            for &tv in &mapping {
                used_vertex[tv as usize] = true;
            }
            patterns_used += 1;
            covered_edges += pattern.edge_count();
        }
    }

    let covered_vertices = used_vertex.iter().filter(|&&u| u).count();
    let residual_vertices = n - covered_vertices;
    let residual_edges = query.edge_count() - covered_edges;
    FormulationResult {
        steps: patterns_used + residual_vertices + residual_edges,
        edge_steps,
        patterns_used,
        covered_vertices,
        covered_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::isomorphism::{for_each_embedding, is_subgraph_of};
    use midas_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// [`formulate`] without the embedding prefilter: every size-eligible
    /// pattern gets its own promoted pass.
    fn formulate_unfiltered(query: &LabeledGraph, patterns: &[LabeledGraph]) -> FormulationResult {
        let mut by_size: Vec<MatchPlan> = patterns
            .iter()
            .filter(|p| p.edge_count() > 0 && p.edge_count() <= query.edge_count())
            .map(MatchPlan::compile)
            .collect();
        by_size.sort_by_key(|plan| std::cmp::Reverse(plan.edge_count()));
        best_packing(query, &Csr::from_graph(query), &by_size)
    }

    /// [`pack`] on the VF2 reference: keeps the first vertex-disjoint
    /// embedding VF2 enumerates.
    fn pack_vf2(query: &LabeledGraph, order: &[&LabeledGraph]) -> FormulationResult {
        let n = query.vertex_count();
        let mut used_vertex = vec![false; n];
        let (mut patterns_used, mut covered_edges) = (0, 0);
        for pattern in order {
            loop {
                let mut found: Option<Vec<VertexId>> = None;
                for_each_embedding(pattern, query, &mut |mapping| {
                    if mapping.iter().all(|&tv| !used_vertex[tv as usize]) {
                        found = Some(mapping.to_vec());
                        Control::Stop
                    } else {
                        Control::Continue
                    }
                });
                let Some(mapping) = found else { break };
                for &tv in &mapping {
                    used_vertex[tv as usize] = true;
                }
                patterns_used += 1;
                covered_edges += pattern.edge_count();
            }
        }
        let covered_vertices = used_vertex.iter().filter(|&&u| u).count();
        FormulationResult {
            steps: patterns_used + (n - covered_vertices) + (query.edge_count() - covered_edges),
            edge_steps: n + query.edge_count(),
            patterns_used,
            covered_vertices,
            covered_edges,
        }
    }

    fn random_graph(rng: &mut StdRng, vertices: usize, labels: &[u32], p: f64) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..vertices {
            g.add_vertex(labels[rng.random_range(0..labels.len())]);
        }
        for u in 0..vertices as u32 {
            for v in (u + 1)..vertices as u32 {
                if rng.random_bool(p) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    #[test]
    fn no_patterns_falls_back_to_edge_mode() {
        let q = path(&[0, 1, 2, 0]);
        let r = formulate(&q, &[]);
        assert_eq!(r.edge_steps, 4 + 3);
        assert_eq!(r.steps, r.edge_steps);
        assert_eq!(r.patterns_used, 0);
    }

    #[test]
    fn exact_pattern_takes_one_step() {
        let q = path(&[0, 1, 2]);
        let r = formulate(&q, &[path(&[0, 1, 2])]);
        assert_eq!(r.steps, 1);
        assert_eq!(r.patterns_used, 1);
        assert_eq!(r.covered_vertices, 3);
        assert_eq!(r.covered_edges, 2);
    }

    #[test]
    fn pattern_plus_residual() {
        // Query C-O-N-S; pattern C-O-N covers 3 vertices/2 edges; residual:
        // S vertex + N-S edge.
        let q = path(&[0, 1, 2, 3]);
        let r = formulate(&q, &[path(&[0, 1, 2])]);
        assert_eq!(r.steps, 1 + 1 + 1);
        assert!(r.steps < r.edge_steps);
    }

    #[test]
    fn disjoint_double_placement() {
        // Query: two C-O wings around an N hub — pattern C-O used twice
        // would overlap at nothing? Build C-O ... O-C with distinct
        // vertices: C-O-N-O-C uses C-O twice (vertex-disjoint).
        let q = path(&[0, 1, 2, 1, 0]);
        let r = formulate(&q, &[path(&[0, 1])]);
        assert_eq!(r.patterns_used, 2);
        // 2 placements + N vertex + 2 connecting edges.
        assert_eq!(r.steps, 2 + 1 + 2);
    }

    #[test]
    fn larger_patterns_preferred() {
        let q = path(&[0, 1, 2, 3]);
        let small = path(&[0, 1]);
        let large = path(&[0, 1, 2]);
        let r = formulate(&q, &[small, large]);
        // Large first: 1 placement, then C-O cannot re-place (vertices
        // used), residual S + edge.
        assert_eq!(r.patterns_used, 1);
        assert_eq!(r.covered_edges, 2);
        assert_eq!(r.steps, 3);
    }

    #[test]
    fn oversized_patterns_are_ignored() {
        let q = path(&[0, 1]);
        let r = formulate(&q, &[path(&[0, 1, 2, 3])]);
        assert_eq!(r.patterns_used, 0);
        assert_eq!(r.steps, r.edge_steps);
    }

    #[test]
    fn non_embedding_patterns_are_ignored() {
        let q = path(&[0, 1, 0]);
        let r = formulate(&q, &[path(&[3, 3])]);
        assert_eq!(r.patterns_used, 0);
    }

    /// The random-round harness: 300 `(query, patterns)` rounds mixing
    /// patterns that embed, patterns that usually do not, and patterns
    /// that are often larger than the query.
    fn random_rounds() -> Vec<(LabeledGraph, Vec<LabeledGraph>)> {
        let mut rng = StdRng::seed_from_u64(0x51ed);
        (0..300)
            .map(|_| {
                let n = rng.random_range(3..=9);
                let query = random_graph(&mut rng, n, &[0, 1, 2], 0.4);
                let mut patterns = Vec::new();
                for _ in 0..rng.random_range(0..=8) {
                    patterns.push(match rng.random_range(0..4) {
                        // Embeds: an induced subgraph of the query.
                        0 | 1 => {
                            let keep: Vec<u32> =
                                (0..n as u32).filter(|_| rng.random_bool(0.5)).collect();
                            query.induced_subgraph(&keep)
                        }
                        // Usually does not embed: query labels plus one it lacks.
                        2 => {
                            let size = rng.random_range(2..=4);
                            random_graph(&mut rng, size, &[0, 1, 2, 9], 0.6)
                        }
                        // Often larger than the query.
                        _ => {
                            let size = rng.random_range(n..=n + 3);
                            random_graph(&mut rng, size, &[0, 1, 2], 0.6)
                        }
                    });
                }
                (query, patterns)
            })
            .collect()
    }

    #[test]
    fn embedding_prefilter_matches_unfiltered_formulation() {
        let (mut skipped, mut placed) = (0, 0);
        for (round, (query, patterns)) in random_rounds().iter().enumerate() {
            for pattern in patterns {
                let embeds = is_subgraph_of(pattern, query);
                let fits = pattern.edge_count() > 0 && pattern.edge_count() <= query.edge_count();
                skipped += usize::from(fits && !embeds);
            }
            let result = formulate(query, patterns);
            assert_eq!(
                result,
                formulate_unfiltered(query, patterns),
                "round {round}: {query:?} with {patterns:?}"
            );
            placed += usize::from(result.used_any_pattern());
        }
        assert!(
            skipped > 50,
            "too few size-eligible non-embedding patterns: {skipped}"
        );
        assert!(
            placed > 100,
            "too few formulations used a pattern: {placed}"
        );
    }

    /// The greedy keeps the *first* vertex-disjoint embedding it finds, so
    /// placements depend on enumeration order. Every pass [`formulate`]
    /// may try — size order, then each pattern promoted — must pack
    /// exactly as on the VF2 reference, and the best pass must be
    /// `formulate`'s answer.
    #[test]
    fn formulation_matches_vf2_packing() {
        for (round, (query, patterns)) in random_rounds().iter().enumerate() {
            let target = Csr::from_graph(query);
            let mut by_size: Vec<&LabeledGraph> = patterns
                .iter()
                .filter(|p| p.edge_count() > 0 && p.edge_count() <= query.edge_count())
                .collect();
            by_size.sort_by_key(|p| std::cmp::Reverse(p.edge_count()));
            let plans: Vec<MatchPlan> = by_size.iter().map(|p| MatchPlan::compile(p)).collect();
            let mut best: Option<FormulationResult> = None;
            for promoted in std::iter::once(None).chain((0..by_size.len()).map(Some)) {
                let mut order: Vec<usize> = (0..by_size.len()).collect();
                if let Some(front) = promoted {
                    order.remove(front);
                    order.insert(0, front);
                }
                let reference = pack_vf2(
                    query,
                    &order.iter().map(|&i| by_size[i]).collect::<Vec<_>>(),
                );
                let plan_order: Vec<&MatchPlan> = order.iter().map(|&i| &plans[i]).collect();
                assert_eq!(
                    pack(query, &target, &plan_order),
                    reference,
                    "round {round}, promoted {promoted:?}: {query:?} with {patterns:?}"
                );
                if best.is_none_or(|b| reference.steps < b.steps) {
                    best = Some(reference);
                }
            }
            assert_eq!(Some(formulate(query, patterns)), best, "round {round}");
        }
    }

    #[test]
    fn pattern_mode_never_exceeds_edge_mode() {
        // Greedy packing replaces k vertices + (k-1)+ edges by one step, so
        // steps <= edge_steps always.
        let queries = [
            path(&[0, 1, 2, 0, 1]),
            path(&[0, 0, 0, 0]),
            GraphBuilder::new()
                .vertices(&[0, 1, 2, 0])
                .path(&[0, 1, 2, 3])
                .edge(3, 0)
                .build(),
        ];
        let patterns = [path(&[0, 1]), path(&[0, 1, 2]), path(&[0, 0])];
        for q in &queries {
            let r = formulate(q, &patterns);
            assert!(r.steps <= r.edge_steps, "query {q:?}");
        }
    }
}
