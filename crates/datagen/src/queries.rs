//! Query-set generation (§7.1).
//!
//! > "The query set is generated by randomly selecting connected subgraphs
//! > from the dataset. [...] for each dataset, 1000 subgraph queries with
//! > sizes in the range [4–40] are generated. We balance the query set such
//! > that queries from Δ⁺ are represented."
//!
//! A query is drawn by picking a data graph and growing a random connected
//! edge subset of the requested size.

use midas_graph::{GraphDb, GraphId, LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Grows a random connected subgraph of `graph` with `target_edges` edges.
///
/// Returns `None` if the graph has fewer edges than requested (the caller
/// then retries with another data graph). The subgraph keeps the original
/// labels; vertices are renumbered compactly.
pub fn random_connected_subgraph(
    graph: &LabeledGraph,
    target_edges: usize,
    rng: &mut StdRng,
) -> Option<LabeledGraph> {
    if target_edges == 0 || graph.edge_count() < target_edges {
        return None;
    }
    let edges = graph.edges();
    let seed_idx = rng.random_range(0..edges.len());
    let mut chosen: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    let mut vertices: BTreeSet<VertexId> = BTreeSet::new();
    let (su, sv) = edges[seed_idx];
    chosen.insert((su, sv));
    vertices.insert(su);
    vertices.insert(sv);
    while chosen.len() < target_edges {
        // Frontier: edges incident to the current vertex set, not chosen.
        let mut frontier: Vec<(VertexId, VertexId)> = Vec::new();
        for &v in &vertices {
            for &w in graph.neighbors(v) {
                let key = if v < w { (v, w) } else { (w, v) };
                if !chosen.contains(&key) {
                    frontier.push(key);
                }
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        if frontier.is_empty() {
            return None; // component exhausted before reaching the target
        }
        let pick = frontier[rng.random_range(0..frontier.len())];
        chosen.insert(pick);
        vertices.insert(pick.0);
        vertices.insert(pick.1);
    }
    let edge_vec: Vec<(VertexId, VertexId)> = chosen.into_iter().collect();
    Some(graph.edge_subgraph(&edge_vec))
}

/// Draws `count` queries from `db`, sizes uniform in `size_range`
/// (inclusive, in edges). Data graphs too small for a drawn size are
/// skipped and redrawn.
pub fn query_set(
    db: &GraphDb,
    count: usize,
    size_range: (usize, usize),
    seed: u64,
) -> Vec<LabeledGraph> {
    let ids: Vec<GraphId> = db.ids().collect();
    draw_from(
        db,
        &ids,
        count,
        size_range,
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Draws a balanced query set (§7.1): when `delta_plus` is non-empty, half
/// the queries come from `Δ⁺` graphs and half from the remainder; otherwise
/// all come from the whole database.
pub fn balanced_query_set(
    db: &GraphDb,
    delta_plus: &[GraphId],
    count: usize,
    size_range: (usize, usize),
    seed: u64,
) -> Vec<LabeledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let delta: Vec<GraphId> = delta_plus
        .iter()
        .copied()
        .filter(|&id| db.contains(id))
        .collect();
    if delta.is_empty() {
        let ids: Vec<GraphId> = db.ids().collect();
        return draw_from(db, &ids, count, size_range, &mut rng);
    }
    let rest: Vec<GraphId> = db.ids().filter(|id| !delta.contains(id)).collect();
    let half = count / 2;
    let mut queries = draw_from(db, &delta, count - half, size_range, &mut rng);
    queries.extend(draw_from(db, &rest, half, size_range, &mut rng));
    queries
}

fn draw_from(
    db: &GraphDb,
    pool: &[GraphId],
    count: usize,
    size_range: (usize, usize),
    rng: &mut StdRng,
) -> Vec<LabeledGraph> {
    let mut queries = Vec::with_capacity(count);
    if pool.is_empty() {
        return queries;
    }
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(50).max(1000);
    while queries.len() < count && attempts < max_attempts {
        attempts += 1;
        let id = pool[rng.random_range(0..pool.len())];
        let graph = db.get(id).expect("pool ids are live");
        let size = rng.random_range(size_range.0..=size_range.1);
        // Clamp to what this graph can offer; §7.1 queries never exceed the
        // source graph.
        let size = size.min(graph.edge_count());
        if size == 0 {
            continue;
        }
        if let Some(q) = random_connected_subgraph(graph, size, rng) {
            queries.push(q);
        }
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, DatasetSpec};
    use midas_graph::{Csr, MatchPlan};

    #[test]
    fn subgraph_is_connected_and_contained() {
        let ds = DatasetSpec::new(DatasetKind::PubchemLike, 5, 11).generate();
        let mut rng = StdRng::seed_from_u64(4);
        for (_, g) in ds.db.iter() {
            if g.edge_count() < 4 {
                continue;
            }
            let q = random_connected_subgraph(g, 4, &mut rng).expect("big enough");
            assert!(q.is_connected());
            assert_eq!(q.edge_count(), 4);
            assert!(
                MatchPlan::compile(&q).is_subgraph_of(&Csr::from_graph(g)),
                "query must embed in its source"
            );
        }
    }

    #[test]
    fn size_zero_or_oversized_requests_fail() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 1, 1).generate();
        let (_, g) = ds.db.iter().next().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_connected_subgraph(g, 0, &mut rng).is_none());
        assert!(random_connected_subgraph(g, g.edge_count() + 1, &mut rng).is_none());
    }

    #[test]
    fn query_set_has_requested_count() {
        let ds = DatasetSpec::new(DatasetKind::PubchemLike, 30, 2).generate();
        let qs = query_set(&ds.db, 40, (3, 8), 7);
        assert_eq!(qs.len(), 40);
        assert!(qs.iter().all(|q| q.is_connected()));
        assert!(qs.iter().all(|q| (1..=8).contains(&q.edge_count())));
    }

    #[test]
    fn balanced_set_draws_from_delta() {
        let ds = DatasetSpec::new(DatasetKind::PubchemLike, 20, 2).generate();
        let mut db = ds.db;
        let batch =
            crate::updates::novel_family_batch(crate::motifs::MotifKind::BoronicEster, 10, 3);
        let (inserted, _) = db.apply(batch);
        let qs = balanced_query_set(&db, &inserted, 20, (3, 5), 5);
        assert_eq!(qs.len(), 20);
        // At least the Δ⁺ half must embed in some inserted graph.
        let delta_hits = qs
            .iter()
            .filter(|q| {
                let plan = MatchPlan::compile(q);
                inserted
                    .iter()
                    .any(|&id| plan.is_subgraph_of(db.csr(id).unwrap()))
            })
            .count();
        assert!(delta_hits >= 10, "got {delta_hits} delta-embedded queries");
    }

    #[test]
    fn balanced_set_without_delta_uses_whole_db() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 10, 2).generate();
        let qs = balanced_query_set(&ds.db, &[], 10, (2, 4), 5);
        assert_eq!(qs.len(), 10);
    }

    #[test]
    fn deterministic_by_seed() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 10, 2).generate();
        let a = query_set(&ds.db, 10, (2, 5), 1);
        let b = query_set(&ds.db, 10, (2, 5), 1);
        assert_eq!(a, b);
    }
}
