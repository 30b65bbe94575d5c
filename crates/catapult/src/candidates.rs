//! Candidate pattern generation: PCP → FCP (§2.3), with MIDAS's
//! early-termination hook (§5.2).
//!
//! A final candidate pattern (FCP) of size `η` is a connected subgraph of
//! the CSG built from the most frequently traversed edges: construction
//! starts at a seed edge and repeatedly adds the most-traversed edge
//! adjacent to the partial pattern. MIDAS interposes a [`CandidateHook`]
//! before each extension — when the hook vetoes the next edge (Eq. 2's low
//! marginal-coverage test), generation terminates early and the candidate
//! is abandoned.
//!
//! Growth reads the CSG's *walk order* — its edge indices by descending
//! traversal, [`WalkStats::edges_by_frequency`] — which one batch of walks
//! fixes for every size and seed rank, so callers compute it once per CSG
//! and pass it in.
//!
//! [`WalkStats::edges_by_frequency`]: crate::random_walk::WalkStats::edges_by_frequency

use crate::weights::WeightedCsg;
use midas_graph::canonical::canonical_code;
use midas_graph::{CanonicalCode, LabeledGraph, VertexId};
use std::collections::BTreeSet;

/// Decision hook consulted before each edge extension.
///
/// Arguments: the partial pattern so far (as an edge list into the CSG
/// projection) and the candidate next edge. Return `false` to veto (which
/// aborts this candidate), `true` to continue.
pub type CandidateHook<'a> = dyn FnMut(&[(VertexId, VertexId)], (VertexId, VertexId)) -> bool + 'a;

/// Grows one FCP of exactly `size` edges from the `seed_rank`-th edge of
/// `order`, the CSG's walk order. Returns `None` when the CSG is too small,
/// the pattern cannot grow connected to the target size, or the hook
/// vetoes an extension.
pub fn generate_fcp(
    csg: &WeightedCsg,
    order: &[usize],
    size: usize,
    seed_rank: usize,
    hook: &mut CandidateHook<'_>,
) -> Option<LabeledGraph> {
    let graph = &csg.graph;
    if size == 0 || graph.edge_count() < size {
        return None;
    }
    let &seed = order.get(seed_rank)?;
    let edges = graph.edges();
    let mut taken = vec![false; edges.len()];
    let mut touched = vec![false; graph.vertex_count()];
    let mut chosen: Vec<(VertexId, VertexId)> = Vec::with_capacity(size);
    let mut next = seed;
    loop {
        let edge = edges[next];
        chosen.push(edge);
        taken[next] = true;
        touched[edge.0 as usize] = true;
        touched[edge.1 as usize] = true;
        if chosen.len() == size {
            break;
        }
        // Most-traversed unchosen edge adjacent to the partial pattern:
        // the first such edge in walk order.
        next = *order.iter().find(|&&i| {
            let (u, v) = edges[i];
            !taken[i] && (touched[u as usize] || touched[v as usize])
        })?;
        if !hook(&chosen, edges[next]) {
            return None; // early termination (Eq. 2)
        }
    }
    Some(graph.edge_subgraph(&chosen))
}

/// Generates the PCP library for one size: FCP attempts from the top
/// `seeds` seed ranks **plus** the best-ranked edge of every distinct edge
/// label (so rare labels — e.g. a newly arrived functional group — still
/// seed candidates, giving the "variety of potential candidate patterns"
/// of §2.3). Results are deduplicated by canonical code and returned with
/// it, in seed-rank order.
pub fn generate_candidates(
    csg: &WeightedCsg,
    order: &[usize],
    size: usize,
    seeds: usize,
    hook: &mut CandidateHook<'_>,
) -> Vec<(LabeledGraph, CanonicalCode)> {
    let mut seed_ranks: Vec<usize> = (0..seeds.min(order.len())).collect();
    // Label-diverse extras are capped at `seeds` so candidate volume stays
    // bounded on label-rich CSGs.
    let mut seen_labels = BTreeSet::new();
    let mut extras = 0usize;
    for (rank, &edge_idx) in order.iter().enumerate() {
        if extras >= seeds {
            break;
        }
        let (u, v) = csg.graph.edges()[edge_idx];
        if seen_labels.insert(csg.graph.edge_label(u, v)) && !seed_ranks.contains(&rank) {
            seed_ranks.push(rank);
            extras += 1;
        }
    }
    let mut out: Vec<(LabeledGraph, CanonicalCode)> = Vec::new();
    for rank in seed_ranks {
        if let Some(candidate) = generate_fcp(csg, order, size, rank, hook) {
            let code = canonical_code(&candidate);
            if out.iter().all(|(_, c)| *c != code) {
                out.push((candidate, code));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_walk::{random_walks, WalkStats};
    use midas_graph::{ClosureGraph, GraphBuilder, GraphId};
    use midas_mining::EdgeCatalog;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weighted(graph: &LabeledGraph) -> WeightedCsg {
        let csg = ClosureGraph::from_graphs([(GraphId(1), graph)]);
        let catalog = EdgeCatalog::build([(GraphId(1), graph)]);
        WeightedCsg::build(&csg, &catalog, 1)
    }

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn no_hook() -> Box<CandidateHook<'static>> {
        Box::new(|_, _| true)
    }

    #[test]
    fn fcp_is_connected_with_exact_size() {
        let graph = GraphBuilder::new()
            .vertices(&[0, 1, 2, 0, 1])
            .path(&[0, 1, 2, 3, 4])
            .edge(4, 0)
            .build();
        let csg = weighted(&graph);
        let mut rng = StdRng::seed_from_u64(5);
        let stats = random_walks(&csg, 100, 8, &mut rng);
        for size in 1..=4 {
            let fcp = generate_fcp(&csg, &stats.edges_by_frequency(), size, 0, &mut *no_hook())
                .expect("csg big enough");
            assert_eq!(fcp.edge_count(), size);
            assert!(fcp.is_connected());
        }
    }

    #[test]
    fn oversized_requests_fail() {
        let csg = weighted(&path(&[0, 1, 2]));
        let mut rng = StdRng::seed_from_u64(5);
        let stats = random_walks(&csg, 10, 4, &mut rng);
        assert!(generate_fcp(&csg, &stats.edges_by_frequency(), 5, 0, &mut *no_hook()).is_none());
        assert!(generate_fcp(&csg, &stats.edges_by_frequency(), 0, 0, &mut *no_hook()).is_none());
    }

    #[test]
    fn hook_veto_aborts_generation() {
        let csg = weighted(&path(&[0, 1, 2, 3]));
        let mut rng = StdRng::seed_from_u64(6);
        let stats = random_walks(&csg, 50, 6, &mut rng);
        let mut always_veto: Box<CandidateHook<'_>> = Box::new(|_, _| false);
        // Size 1 needs no extension, so it survives; size 2 needs one.
        assert!(generate_fcp(&csg, &stats.edges_by_frequency(), 1, 0, &mut *always_veto).is_some());
        assert!(generate_fcp(&csg, &stats.edges_by_frequency(), 2, 0, &mut *always_veto).is_none());
    }

    #[test]
    fn hook_sees_partial_pattern_growth() {
        let csg = weighted(&path(&[0, 1, 2, 3]));
        let mut rng = StdRng::seed_from_u64(7);
        let stats = random_walks(&csg, 50, 6, &mut rng);
        let mut sizes_seen = Vec::new();
        let mut hook: Box<CandidateHook<'_>> = Box::new(|partial, _| {
            sizes_seen.push(partial.len());
            true
        });
        generate_fcp(&csg, &stats.edges_by_frequency(), 3, 0, &mut *hook).expect("fits");
        drop(hook);
        assert_eq!(sizes_seen, vec![1, 2]);
    }

    #[test]
    fn different_seeds_can_differ_and_dedup_works() {
        // A star: seeds from different spokes give isomorphic patterns,
        // which dedup to one.
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        let csg = weighted(&star);
        let mut rng = StdRng::seed_from_u64(8);
        let stats = random_walks(&csg, 60, 6, &mut rng);
        let candidates =
            generate_candidates(&csg, &stats.edges_by_frequency(), 1, 3, &mut *no_hook());
        assert_eq!(candidates.len(), 1, "isomorphic seeds deduplicate");
        let bigger = generate_candidates(&csg, &stats.edges_by_frequency(), 2, 3, &mut *no_hook());
        assert_eq!(bigger.len(), 1);
        assert_eq!(bigger[0].0.edge_count(), 2);
    }

    #[test]
    fn candidates_inherit_csg_labels() {
        let graph = path(&[0, 1, 2]);
        let csg = weighted(&graph);
        let mut rng = StdRng::seed_from_u64(9);
        let stats = random_walks(&csg, 40, 4, &mut rng);
        let fcp = generate_fcp(&csg, &stats.edges_by_frequency(), 2, 0, &mut *no_hook()).unwrap();
        assert_eq!(fcp.sorted_labels(), vec![0, 1, 2]);
    }

    /// FCP growth as it ran before the walk order was hoisted: the order
    /// and its rank table rebuilt per call, the next edge picked by an
    /// `O(E)` minimum over rank among the unchosen edges adjacent to the
    /// pattern.
    fn fcp_rebuilding_order(
        csg: &WeightedCsg,
        stats: &WalkStats,
        size: usize,
        seed_rank: usize,
        hook: &mut CandidateHook<'_>,
    ) -> Option<LabeledGraph> {
        let graph = &csg.graph;
        if size == 0 || graph.edge_count() < size {
            return None;
        }
        let order = stats.edges_by_frequency();
        let &seed = order.get(seed_rank)?;
        let rank_of = {
            let mut r = vec![usize::MAX; graph.edge_count()];
            for (rank, &e) in order.iter().enumerate() {
                r[e] = rank;
            }
            r
        };
        let seed_edge = graph.edges()[seed];
        let mut chosen: Vec<(VertexId, VertexId)> = vec![seed_edge];
        let mut chosen_set: BTreeSet<usize> = BTreeSet::from([seed]);
        let mut vertices: BTreeSet<VertexId> = BTreeSet::from([seed_edge.0, seed_edge.1]);
        while chosen.len() < size {
            let next = (0..graph.edge_count())
                .filter(|i| !chosen_set.contains(i))
                .filter(|&i| {
                    let (u, v) = graph.edges()[i];
                    vertices.contains(&u) || vertices.contains(&v)
                })
                .min_by_key(|&i| rank_of[i])?;
            let edge = graph.edges()[next];
            if !hook(&chosen, edge) {
                return None;
            }
            chosen.push(edge);
            chosen_set.insert(next);
            vertices.insert(edge.0);
            vertices.insert(edge.1);
        }
        Some(graph.edge_subgraph(&chosen))
    }

    /// A random simple graph on up to 9 vertices and 4 labels (possibly
    /// disconnected, so growth can run out of adjacent edges) with random
    /// traversal counts from a small range (so the order has ties).
    fn random_walked_csg() -> impl Strategy<Value = (WeightedCsg, WalkStats)> {
        (
            proptest::collection::vec(0u32..4, 2..10),
            proptest::collection::vec((0u32..10, 0u32..10), 1..24),
            proptest::collection::vec(0u64..4, 24),
        )
            .prop_map(|(labels, pairs, counts)| {
                let mut g = LabeledGraph::new();
                for &l in &labels {
                    g.add_vertex(l);
                }
                let n = labels.len() as u32;
                for (u, v) in pairs {
                    let (u, v) = (u % n, v % n);
                    if u != v && !g.has_edge(u, v) {
                        g.add_edge(u, v);
                    }
                }
                let csg = weighted(&g);
                let traversals = counts[..csg.graph.edge_count()].to_vec();
                (csg, WalkStats { traversals })
            })
    }

    /// Grows from `order` and from the per-call order at every size, seed
    /// rank and veto setting; both must agree on the result and on every
    /// question asked of the hook.
    fn growth_agrees(
        csg: &WeightedCsg,
        stats: &WalkStats,
        veto_mod: u32,
    ) -> Result<(), TestCaseError> {
        let order = stats.edges_by_frequency();
        let edges = csg.graph.edge_count();
        for size in 0..=edges + 1 {
            for seed_rank in 0..=edges {
                for veto in [false, true] {
                    let mut asked = (Vec::new(), Vec::new());
                    let hook = |log: &mut Vec<(usize, (VertexId, VertexId))>,
                                partial: &[(VertexId, VertexId)],
                                next: (VertexId, VertexId)| {
                        log.push((partial.len(), next));
                        !veto || !(next.0 + next.1 + partial.len() as u32).is_multiple_of(veto_mod)
                    };
                    let got = generate_fcp(csg, &order, size, seed_rank, &mut |p, n| {
                        hook(&mut asked.0, p, n)
                    });
                    let want = fcp_rebuilding_order(csg, stats, size, seed_rank, &mut |p, n| {
                        hook(&mut asked.1, p, n)
                    });
                    prop_assert_eq!(
                        &got,
                        &want,
                        "size {} seed rank {} veto {}",
                        size,
                        seed_rank,
                        veto
                    );
                    prop_assert_eq!(&asked.0, &asked.1);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Growth from the hoisted walk order picks the same edges, asks
        /// the hook the same questions and honours the same vetoes as the
        /// per-call order, for every size and seed rank.
        #[test]
        fn hoisted_order_growth_matches_per_call_order(
            world in random_walked_csg(),
            veto_mod in 2u32..7,
        ) {
            growth_agrees(&world.0, &world.1, veto_mod)?;
        }
    }
}
