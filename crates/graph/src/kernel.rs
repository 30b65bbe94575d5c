//! The parallel + memoized subgraph-isomorphism kernel.
//!
//! [`MatchKernel`] bundles the two ingredients every hot `(graph × pattern)`
//! scan needs — a thread count for [`crate::exec`] and a shared
//! [`EmbeddingCache`] — behind bulk operations shaped like the scans the
//! MIDAS pipeline actually runs:
//!
//! * [`MatchKernel::try_count_in_graphs`] — one pattern against many data
//!   graphs (a TG-matrix row, Def. 5.1);
//! * [`MatchKernel::try_count_grid`] — many patterns against many data
//!   graphs (TG-matrix columns for a batch of inserted graphs);
//! * [`MatchKernel::covered_in`] — coverage verification after the
//!   dominance filter (§6.1);
//! * [`MatchKernel::try_count_plain_many`] — one pattern against targets
//!   that have no stable [`GraphId`] (a new feature's TP-matrix row),
//!   parallel but uncached.
//!
//! The counting operations are fallible: a contained worker panic comes
//! back as a [`KernelError`]. The boolean scans re-raise it as a panic
//! (see [`exec::par_map`]).
//!
//! Data graphs arrive as `(GraphId, &Csr)` pairs borrowed from
//! [`crate::GraphDb::csr`] / [`crate::GraphDb::csrs`]; the kernel never
//! builds a CSR of a data graph itself. Every operation runs the
//! plan-compiled matcher ([`crate::plan`]) and is semantically identical
//! to the serial loop over the VF2 reference
//! ([`crate::isomorphism::count_embeddings`] /
//! [`crate::isomorphism::is_subgraph_of`]); the property tests in the
//! workspace's `tests` crate and the differential oracle pin that
//! equivalence.

use crate::cache::{CachedPattern, EmbeddingCache};
use crate::csr::Csr;
use crate::db::GraphId;
use crate::exec::{self, KernelError};
use crate::graph::LabeledGraph;
use std::sync::Arc;

/// Parallel, memoized bulk isomorphism operations.
#[derive(Debug, Clone)]
pub struct MatchKernel {
    threads: usize,
    cache: Arc<EmbeddingCache>,
}

impl Default for MatchKernel {
    fn default() -> Self {
        Self::new(0)
    }
}

impl MatchKernel {
    /// A kernel with a fresh cache. `threads = 0` means auto (see
    /// [`exec::thread_count`]).
    pub fn new(threads: usize) -> Self {
        MatchKernel {
            threads,
            cache: Arc::new(EmbeddingCache::new()),
        }
    }

    /// The configured thread override (0 = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared embedding memo.
    pub fn cache(&self) -> &Arc<EmbeddingCache> {
        &self.cache
    }

    /// Invalidates every memoized answer about `id` — call for each graph a
    /// batch inserts or deletes, before the indices are refreshed.
    pub fn invalidate_graph(&self, id: GraphId) {
        self.cache.invalidate_graph(id);
    }

    /// Prepares a pattern for repeated cached matching.
    pub fn prepare(&self, pattern: &LabeledGraph) -> CachedPattern {
        CachedPattern::new(pattern)
    }

    /// Whether `pattern` is contained in each graph, in input order —
    /// the verification step of coverage.
    pub fn covered_in(&self, pattern: &LabeledGraph, graphs: &[(GraphId, &Csr)]) -> Vec<bool> {
        let prepared = self.prepare(pattern);
        exec::par_map(self.threads, graphs, |&(id, g)| {
            self.cache.is_subgraph(&prepared, id, g)
        })
    }

    /// Whether any of `patterns` is contained in each graph — the
    /// `f_scov` set-coverage scan. Patterns must be pre-prepared (they are
    /// matched against every graph).
    pub fn any_covered_in(
        &self,
        patterns: &[CachedPattern],
        graphs: &[(GraphId, &Csr)],
    ) -> Vec<bool> {
        exec::par_map(self.threads, graphs, |&(id, g)| {
            patterns.iter().any(|p| self.cache.is_subgraph(p, id, g))
        })
    }

    /// Counts embeddings of `pattern` in each graph (saturating at `cap`),
    /// in input order — one TG-matrix row. A panic in any per-graph task
    /// (including an injected `MIDAS_FAULT` one) is contained and surfaced
    /// as a [`KernelError`] instead of aborting; the same holds for every
    /// `try_` operation below.
    pub fn try_count_in_graphs(
        &self,
        pattern: &LabeledGraph,
        graphs: &[(GraphId, &Csr)],
        cap: u64,
    ) -> Result<Vec<u64>, KernelError> {
        let prepared = self.prepare(pattern);
        exec::try_par_map(self.threads, graphs, |&(id, g)| {
            self.cache.count_embeddings(&prepared, id, g, cap)
        })
    }

    /// Counts embeddings of every pattern in every graph: result `[i][j]`
    /// is the count of `patterns[j]` in `graphs[i]`, saturating at `cap`.
    /// Parallel over graphs (the long axis in matrix maintenance).
    pub fn try_count_grid(
        &self,
        patterns: &[CachedPattern],
        graphs: &[(GraphId, &Csr)],
        cap: u64,
    ) -> Result<Vec<Vec<u64>>, KernelError> {
        exec::try_par_map(self.threads, graphs, |&(id, g)| {
            self.cache.count_embeddings_many(patterns, id, g, cap)
        })
    }

    /// Counts embeddings of `pattern` in targets without stable ids
    /// (canned patterns): parallel, uncached, in input order. The plan is
    /// compiled once (memoized per canonical class); the targets have no
    /// [`GraphId`], so their CSR views are built per call.
    pub fn try_count_plain_many(
        &self,
        pattern: &LabeledGraph,
        targets: &[&LabeledGraph],
        cap: u64,
    ) -> Result<Vec<u64>, KernelError> {
        let plan = self.prepare(pattern).plan();
        exec::try_par_map(self.threads, targets, |t| {
            plan.count_embeddings(&Csr::from_graph(t), cap)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GraphDb;
    use crate::graph::GraphBuilder;
    use crate::isomorphism::{count_embeddings, is_subgraph_of};

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
    fn bulk_ops_match_serial_loops() {
        let db = mini_db();
        let refs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let kernel = MatchKernel::new(4);
        for pattern in [path(&[0, 1]), path(&[0, 0]), path(&[9, 9])] {
            let counts = kernel.try_count_in_graphs(&pattern, &refs, 64).unwrap();
            let covered = kernel.covered_in(&pattern, &refs);
            for (i, (_, g)) in db.iter().enumerate() {
                assert_eq!(counts[i], count_embeddings(&pattern, g, 64));
                assert_eq!(covered[i], is_subgraph_of(&pattern, g));
            }
        }
    }

    #[test]
    fn grid_matches_nested_loops() {
        let db = mini_db();
        let refs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let kernel = MatchKernel::new(3);
        let patterns: Vec<CachedPattern> = [path(&[0, 1]), path(&[0, 0, 0])]
            .iter()
            .map(|p| kernel.prepare(p))
            .collect();
        let grid = kernel.try_count_grid(&patterns, &refs, 64).unwrap();
        for (i, (_, g)) in db.iter().enumerate() {
            for (j, p) in patterns.iter().enumerate() {
                assert_eq!(grid[i][j], count_embeddings(p.graph(), g, 64));
            }
        }
    }

    #[test]
    fn repeated_scans_hit_the_cache() {
        let db = mini_db();
        let refs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let kernel = MatchKernel::new(2);
        let p = path(&[0, 1]);
        kernel.try_count_in_graphs(&p, &refs, 64).unwrap();
        let misses_after_first = kernel.cache().stats().misses;
        kernel.try_count_in_graphs(&p, &refs, 64).unwrap();
        assert_eq!(kernel.cache().stats().misses, misses_after_first);
        // Invalidation forces exactly the touched graph to recompute.
        kernel.invalidate_graph(GraphId(0));
        kernel.try_count_in_graphs(&p, &refs, 64).unwrap();
        assert_eq!(kernel.cache().stats().misses, misses_after_first + 1);
    }
}
