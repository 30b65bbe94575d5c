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
//! query. Each pattern is compiled from its own graph
//! ([`MatchPlan::compile`]), because the greedy places embeddings in that
//! pattern's own vertex numbering. The plan matcher enumerates in the
//! same order as the VF2 reference in `midas-oracle`, so the greedy's
//! first-fit choices — and hence every step count — are the reference's;
//! the workspace's `formulation_matches_vf2_packing` test pins that.

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
    use midas_graph::GraphBuilder;

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
