//! Shared helpers for the cross-crate integration and property tests.

use midas_catapult::PatternBudget;
use midas_core::MidasConfig;
use midas_graph::{CachedPattern, Csr, GraphBuilder, GraphDb, GraphId, LabeledGraph, MatchKernel};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of one binary that touch process-global state
/// (the telemetry switches, the flight recorder, the fault injector).
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Switches the process-global metrics on (tracing stays off), as a host
/// does before it bootstraps; a test calling it holds [`exclusive`] and
/// restores the default before releasing it.
pub fn metrics_on() {
    midas_obs::TelemetryConfig {
        enabled: true,
        ..midas_obs::TelemetryConfig::default()
    }
    .activate();
}

/// A 24-graph database of five-vertex paths over three label patterns.
pub fn seed_db() -> GraphDb {
    GraphDb::from_graphs((0..24).map(|i| path(&[0, 1, 2, 0, (i % 3) as u32])))
}

/// A four-graph insertion wave that varies with `seed`.
pub fn wave(seed: u32) -> Vec<LabeledGraph> {
    (0..4)
        .map(|i| path(&[seed % 5, (i + seed) % 5, 2]))
        .collect()
}

/// One GET against a serving daemon: (status, body).
pub fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let reply = midas_serve::ServeClient::new(addr.to_string())
        .request("GET", target, None)
        .expect("GET");
    (reply.status, reply.body)
}

/// A small MIDAS configuration for integration tests.
pub fn test_config(seed: u64) -> MidasConfig {
    MidasConfig {
        budget: PatternBudget {
            eta_min: 3,
            eta_max: 5,
            gamma: 6,
        },
        sup_min: 0.4,
        max_tree_edges: 3,
        coarse_clusters: 3,
        max_cluster_size: 50,
        sample_size: 60,
        walks: 40,
        walk_length: 12,
        seeds_per_size: 2,
        epsilon: 0.01,
        seed,
        ..MidasConfig::default()
    }
}

/// `pattern`'s count, capped at `cap`, in each of `graphs` through
/// `kernel`: the one-pattern [`MatchKernel::count_grid`].
pub fn count_row(
    kernel: &MatchKernel,
    pattern: &LabeledGraph,
    graphs: &[(GraphId, &Csr)],
    cap: u64,
) -> Vec<u64> {
    let prepared = CachedPattern::new(pattern);
    let grid = kernel.count_grid(&[&prepared], graphs, cap);
    grid.into_iter().map(|row| row[0]).collect()
}

/// Builds a labeled path graph.
pub fn path(labels: &[u32]) -> LabeledGraph {
    let vs: Vec<u32> = (0..labels.len() as u32).collect();
    GraphBuilder::new().vertices(labels).path(&vs).build()
}

/// Builds a triangle whose three vertices carry `label`.
pub fn triangle(label: u32) -> LabeledGraph {
    GraphBuilder::new()
        .vertices(&[label; 3])
        .edge(0, 1)
        .edge(1, 2)
        .edge(0, 2)
        .build()
}

/// Proptest strategy: a small connected labeled graph with up to
/// `max_vertices` vertices and `max_label` distinct labels.
///
/// Construction: a random labeled spanning path (guaranteeing
/// connectivity) plus a random subset of extra edges.
pub fn connected_graph_strategy(
    max_vertices: usize,
    max_label: u32,
) -> impl Strategy<Value = LabeledGraph> {
    connected_graph_sized(2, max_vertices, max_label)
}

/// [`connected_graph_strategy`] with `min_vertices..=max_vertices`
/// vertices (`min_vertices ≥ 1`).
pub fn connected_graph_sized(
    min_vertices: usize,
    max_vertices: usize,
    max_label: u32,
) -> impl Strategy<Value = LabeledGraph> {
    (min_vertices..=max_vertices)
        .prop_flat_map(move |n| {
            let labels = proptest::collection::vec(0..max_label, n);
            let extra_edges = proptest::collection::vec((0..n, 0..n), 0..=n);
            (labels, extra_edges)
        })
        .prop_map(|(labels, extra)| {
            let n = labels.len();
            let mut g = LabeledGraph::new();
            for &l in &labels {
                g.add_vertex(l);
            }
            for i in 1..n as u32 {
                g.add_edge(i - 1, i);
            }
            for (a, b) in extra {
                let (a, b) = (a as u32, b as u32);
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b);
                }
            }
            g
        })
}

/// Proptest strategy: a small labeled *tree*.
pub fn tree_strategy(max_vertices: usize, max_label: u32) -> impl Strategy<Value = LabeledGraph> {
    (1..=max_vertices)
        .prop_flat_map(move |n| {
            let labels = proptest::collection::vec(0..max_label, n);
            // parent[i] ∈ [0, i) attaches vertex i to an earlier vertex.
            let parents = proptest::collection::vec(proptest::num::usize::ANY, n.saturating_sub(1));
            (labels, parents)
        })
        .prop_map(|(labels, parents)| {
            let mut g = LabeledGraph::new();
            for &l in &labels {
                g.add_vertex(l);
            }
            for (i, &p) in parents.iter().enumerate() {
                let child = (i + 1) as u32;
                let parent = (p % (i + 1)) as u32;
                g.add_edge(parent, child);
            }
            g
        })
}

/// Applies a random vertex permutation, returning an isomorphic copy.
pub fn permute(g: &LabeledGraph, perm: &[usize]) -> LabeledGraph {
    let n = g.vertex_count();
    assert_eq!(perm.len(), n);
    // perm[i] = new index of old vertex i.
    let labels: Vec<u32> = {
        let mut out = vec![0; n];
        for v in 0..n {
            out[perm[v]] = g.label(v as u32);
        }
        out
    };
    let mut h = LabeledGraph::new();
    for &l in &labels {
        h.add_vertex(l);
    }
    for &(u, v) in g.edges() {
        h.add_edge(perm[u as usize] as u32, perm[v as usize] as u32);
    }
    h
}

/// Proptest strategy for a permutation of `0..n`.
pub fn permutation_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
}
