//! The automated performance measures of §7.1.
//!
//! * **Missed percentage** `MP = |Q_M| / |Q| × 100%` — the share of queries
//!   containing no canned pattern at all.
//! * **Reduction ratio** `μ = (step_X − step_MIDAS) / step_X` — positive
//!   when the pattern set `X` needs more steps than MIDAS's.

use crate::steps::formulate;
use midas_graph::{Csr, LabeledGraph, MatchPlan};

/// Missed percentage over a query set (in percent, 0–100). Each pattern is
/// compiled once; each query gets one CSR view.
pub fn missed_percentage(queries: &[LabeledGraph], patterns: &[LabeledGraph]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let plans: Vec<MatchPlan> = patterns.iter().map(MatchPlan::compile).collect();
    let missed = queries
        .iter()
        .filter(|q| {
            let target = Csr::from_graph(q);
            !plans.iter().any(|plan| plan.is_subgraph_of(&target))
        })
        .count();
    missed as f64 / queries.len() as f64 * 100.0
}

/// Mean reduction ratio `μ` of `reference` (the MIDAS set) against
/// `baseline` (the set `X`), averaged over the query set. Queries where
/// the baseline needs zero steps (impossible for non-empty queries) are
/// skipped.
pub fn reduction_ratio(
    queries: &[LabeledGraph],
    baseline: &[LabeledGraph],
    reference: &[LabeledGraph],
) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for q in queries {
        let bx = formulate(q, baseline).steps;
        let bm = formulate(q, reference).steps;
        if bx > 0 {
            total += (bx as f64 - bm as f64) / bx as f64;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Mean number of formulation steps over a query set.
pub fn mean_steps(queries: &[LabeledGraph], patterns: &[LabeledGraph]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    queries
        .iter()
        .map(|q| formulate(q, patterns).steps as f64)
        .sum::<f64>()
        / queries.len() as f64
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
    fn missed_percentage_counts_uncovered_queries() {
        let queries = vec![path(&[0, 1, 2]), path(&[3, 3, 3]), path(&[0, 1])];
        let patterns = vec![path(&[0, 1])];
        // Covered: q0 and q2; missed: the S-chain.
        let mp = missed_percentage(&queries, &patterns);
        assert!((mp - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(missed_percentage(&[], &patterns), 0.0);
        assert_eq!(missed_percentage(&queries, &[]), 100.0);
    }

    #[test]
    fn reduction_ratio_positive_when_reference_is_better() {
        let queries = vec![path(&[0, 1, 2, 3]), path(&[0, 1, 2])];
        let good = vec![path(&[0, 1, 2])];
        let bad: Vec<LabeledGraph> = vec![];
        let mu = reduction_ratio(&queries, &bad, &good);
        assert!(mu > 0.0);
        // Symmetric direction is negative.
        let rev = reduction_ratio(&queries, &good, &bad);
        assert!(rev < 0.0);
        // Equal sets: zero.
        assert_eq!(reduction_ratio(&queries, &good, &good), 0.0);
    }

    // --- Edge cases: the NaN/panic-prone shapes -------------------------
    // Every division in this module has a guard (empty query list, empty
    // pattern set, zero-step baselines); these tests pin each one to a
    // finite value so a refactor cannot quietly reintroduce `0/0`.

    #[test]
    fn empty_query_list_yields_finite_zeroes_everywhere() {
        let patterns = vec![path(&[0, 1])];
        assert_eq!(missed_percentage(&[], &patterns), 0.0);
        assert_eq!(reduction_ratio(&[], &patterns, &patterns), 0.0);
        assert_eq!(mean_steps(&[], &patterns), 0.0);
        // And with the pattern set empty too: still finite.
        assert_eq!(reduction_ratio(&[], &[], &[]), 0.0);
    }

    #[test]
    fn empty_pattern_set_misses_everything_but_never_divides_by_zero() {
        let queries = vec![path(&[0, 1, 2]), path(&[3, 3])];
        assert_eq!(missed_percentage(&queries, &[]), 100.0);
        // Baseline == reference == ∅: identical step counts, ratio 0.
        let mu = reduction_ratio(&queries, &[], &[]);
        assert!(mu.is_finite());
        assert_eq!(mu, 0.0);
        // Mean steps falls back to pure edge-at-a-time counts.
        let ms = mean_steps(&queries, &[]);
        assert!(ms.is_finite() && ms > 0.0);
    }

    #[test]
    fn queries_smaller_than_every_pattern_fall_back_cleanly() {
        // Each query has fewer edges than the smallest pattern, so no
        // pattern is ever usable: MP is 100%, both formulations are pure
        // edge-at-a-time, and μ is exactly 0 — no NaN, no panic.
        let queries = vec![path(&[0, 1]), path(&[2, 2])];
        let patterns = vec![path(&[0, 1, 2, 3]), path(&[1, 2, 3, 1, 0])];
        assert_eq!(missed_percentage(&queries, &patterns), 100.0);
        let mu = reduction_ratio(&queries, &patterns, &patterns);
        assert!(mu.is_finite());
        assert_eq!(mu, 0.0);
        let ms = mean_steps(&queries, &patterns);
        assert!((ms - 3.0).abs() < 1e-12, "2 vertices + 1 edge each");
    }

    #[test]
    fn zero_step_queries_are_skipped_not_divided_by() {
        // An empty query graph formulates in 0 steps for any pattern set;
        // reduction_ratio must skip it (bx == 0) instead of computing 0/0,
        // and a query set of only such graphs yields 0.0.
        let empty = GraphBuilder::new().build();
        assert_eq!(formulate(&empty, &[path(&[0, 1])]).steps, 0);
        let queries = vec![empty.clone(), empty];
        let mu = reduction_ratio(&queries, &[path(&[0, 1])], &[]);
        assert!(mu.is_finite());
        assert_eq!(mu, 0.0);
        // Mixed with one real query, only the real one counts.
        let queries = vec![GraphBuilder::new().build(), path(&[0, 1, 2])];
        let mu = reduction_ratio(&queries, &[], &[path(&[0, 1, 2])]);
        // Real query: baseline 5 steps, reference 1 step → (5−1)/5.
        assert!((mu - 0.8).abs() < 1e-12, "mu = {mu}");
    }

    #[test]
    fn single_vertex_queries_cost_one_step_and_stay_finite() {
        let dot = GraphBuilder::new().vertices(&[0]).build();
        let r = formulate(&dot, &[path(&[0, 1])]);
        assert_eq!(r.steps, 1, "one vertex, no edges, no usable pattern");
        let queries = vec![dot];
        assert_eq!(missed_percentage(&queries, &[path(&[0, 1])]), 100.0);
        let mu = reduction_ratio(&queries, &[path(&[0, 1])], &[]);
        assert!(mu.is_finite());
        assert_eq!(mu, 0.0, "identical 1-step formulations");
    }

    #[test]
    fn mean_steps_averages() {
        let queries = vec![path(&[0, 1]), path(&[0, 1, 2])];
        // No patterns: (2+1) and (3+2) steps.
        assert!((mean_steps(&queries, &[]) - 4.0).abs() < 1e-12);
        assert_eq!(mean_steps(&[], &[]), 0.0);
    }
}
