//! The memoized subgraph-containment kernel.
//!
//! [`MatchKernel`] owns an [`EmbeddingCache`] and puts it behind bulk
//! operations shaped like the coverage scans the MIDAS pipeline runs:
//!
//! * [`MatchKernel::covered_in`] — coverage verification after the
//!   dominance filter (§6.1);
//! * [`MatchKernel::any_covered_in`] — the `f_scov` set-coverage scan.
//!
//! Embedding counts do not go through the kernel: the FCT-Index counts
//! its own TG cells with each feature's plan (`midas-index`).
//!
//! Every operation is one [`exec::map_tasks`] call, one task per data
//! graph, and returns plain values: a task panic unwinds to the caller's
//! phase backstop.
//!
//! Data graphs arrive as `(GraphId, &Csr)` pairs borrowed from
//! [`crate::GraphDb::csr`] / [`crate::GraphDb::csrs`]; the kernel never
//! builds a CSR of a data graph itself. Every operation runs the
//! plan-compiled matcher ([`crate::plan`]) and is semantically identical
//! to the serial loop over the VF2 reference in `midas-oracle`; the
//! property tests in the workspace's `tests` crate and the differential
//! oracle (check 1, `kernel_vs_serial`) pin that equivalence.

use crate::cache::{CachedPattern, EmbeddingCache};
use crate::csr::Csr;
use crate::db::GraphId;
use crate::exec;
use crate::graph::LabeledGraph;

/// Memoized bulk isomorphism operations over the kernel's own memo. Like
/// the memo, a kernel belongs to one thread at a time:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<midas_graph::MatchKernel>();
/// ```
#[derive(Debug, Default)]
pub struct MatchKernel {
    cache: EmbeddingCache,
}

impl MatchKernel {
    /// A kernel with a fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kernel's containment memo.
    pub fn cache(&self) -> &EmbeddingCache {
        &self.cache
    }

    /// Invalidates every memoized answer about `id` — call for each graph a
    /// batch inserts or deletes, before the indices are refreshed.
    pub fn invalidate_graph(&self, id: GraphId) {
        self.cache.invalidate_graph(id);
    }

    /// Whether `pattern` is contained in each graph, in input order —
    /// the verification step of coverage.
    pub fn covered_in(&self, pattern: &LabeledGraph, graphs: &[(GraphId, &Csr)]) -> Vec<bool> {
        let prepared = CachedPattern::new(pattern);
        exec::map_tasks(graphs, |&(id, g)| self.cache.is_subgraph(&prepared, id, g))
    }

    /// Whether any of `patterns` is contained in each graph — the
    /// `f_scov` set-coverage scan. Patterns must be pre-prepared (they are
    /// matched against every graph).
    pub fn any_covered_in(
        &self,
        patterns: &[CachedPattern],
        graphs: &[(GraphId, &Csr)],
    ) -> Vec<bool> {
        exec::map_tasks(graphs, |&(id, g)| {
            patterns.iter().any(|p| self.cache.is_subgraph(p, id, g))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GraphDb;
    use crate::graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn mini_db() -> GraphDb {
        GraphDb::from_graphs((0..40u64).map(|i| {
            match i % 4 {
                0 => path(&[0, 1, 2]),
                1 => path(&[0, 1, 0, 1]),
                2 => path(&[2, 2]),
                _ => GraphBuilder::new()
                    .vertices(&[0, 0, 0])
                    .edge(0, 1)
                    .edge(1, 2)
                    .edge(0, 2)
                    .build(),
            }
        }))
    }

    #[test]
    fn repeated_scans_hit_the_cache() {
        let db = mini_db();
        let refs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let kernel = MatchKernel::new();
        let p = path(&[0, 1]);
        kernel.covered_in(&p, &refs);
        let misses_after_first = kernel.cache().stats().misses;
        kernel.covered_in(&p, &refs);
        assert_eq!(kernel.cache().stats().misses, misses_after_first);
        // Invalidation forces exactly the touched graph to recompute.
        kernel.invalidate_graph(GraphId(0));
        kernel.covered_in(&p, &refs);
        assert_eq!(kernel.cache().stats().misses, misses_after_first + 1);
    }
}
