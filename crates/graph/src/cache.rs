//! Memoized subgraph-containment answers keyed by `(pattern, data graph)`.
//!
//! Coverage (§2.2, §6.1) and the swap/quality machinery keep asking the
//! same question — "is pattern `p` contained in graph `G`?" — against a
//! database that changes only at batch boundaries. [`EmbeddingCache`]
//! memoizes those answers so that a batch touching 1% of the database
//! re-verifies ~1% of a pattern's coverage. Embedding counts are not
//! memoized here: the FCT-Index's TG rows are their one store, filled by
//! each feature's own plan (`midas-index`).
//!
//! # Keying
//!
//! Entries are keyed **graph-first**: a map `GraphId → (pattern-key
//! → contained)`. The inner key is the pattern's [`CanonicalCode`],
//! so isomorphic patterns — common, since candidates are generated from
//! random walks on many CSGs — share one entry per graph. Graph-first
//! nesting makes invalidation O(1) per touched graph:
//! [`EmbeddingCache::invalidate_graph`] simply drops the graph's inner map.
//! A containment answer holds at every cap, so an entry is one bit and is
//! never upgraded.
//!
//! # Ownership
//!
//! Each [`crate::MatchKernel`] owns its memo by value, and the memo takes
//! no lock: a `Midas` instance runs Algorithm 1 serially on one thread
//! (the daemon serialises each tenant's batches behind its `Midas` mutex),
//! so the map sits in a `RefCell` and the accounting in a `Cell`. That
//! makes the memo `!Sync`; a future fan-out over one memo must redesign
//! it rather than share it by accident.
//!
//! # Invalidation contract
//!
//! The cache never observes the database; callers must call
//! [`EmbeddingCache::invalidate_graph`] for every inserted *and* deleted
//! graph id when applying a batch (inserted ids are fresh and can't collide
//! with stale entries because [`crate::db::GraphDb`] never reuses ids, but
//! invalidating both keeps the contract independent of that detail).
//!
//! Misses run the pattern's compiled plan over the CSR view the caller
//! borrows from [`crate::db::GraphDb::csr`], so the database owns the only
//! CSR of each graph. The plan belongs to the [`CachedPattern`]: compiled
//! on its first miss and dropped with it, never shared through
//! process-wide state.

use crate::canonical::{canonical_code, CanonicalCode};
use crate::csr::Csr;
use crate::db::GraphId;
use crate::fasthash::FxHashMap;
use crate::graph::LabeledGraph;
use crate::plan::MatchPlan;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};

/// A pattern prepared for cached matching: the graph plus its canonical
/// key, computed once, and its match plan, compiled on the first memo
/// miss.
#[derive(Debug, Clone)]
pub struct CachedPattern {
    graph: Arc<LabeledGraph>,
    key: CanonicalCode,
    fingerprint: u64,
    plan: OnceLock<MatchPlan>,
}

impl CachedPattern {
    /// Prepares `pattern` (canonical code + fingerprint).
    pub fn new(pattern: &LabeledGraph) -> Self {
        let key = canonical_code(pattern);
        let fingerprint = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        CachedPattern {
            graph: Arc::new(pattern.clone()),
            key,
            fingerprint,
            plan: OnceLock::new(),
        }
    }

    /// A stable 64-bit digest of the canonical key — equal for isomorphic
    /// patterns, compact enough to tag telemetry exemplars with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying pattern graph.
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// The canonical key shared by all patterns isomorphic to this one.
    pub fn key(&self) -> &CanonicalCode {
        &self.key
    }

    /// The pattern's match plan, compiled from this pattern on first use
    /// and kept for the instance's lifetime.
    pub fn plan(&self) -> &MatchPlan {
        self.plan.get_or_init(|| MatchPlan::compile(&self.graph))
    }
}

/// One memo miss: runs `pattern`'s compiled plan over the target's CSR
/// view, stopping at the first embedding, tagged so tail exemplars
/// attribute to this (pattern, graph); the guard unwinds the thread-local
/// tag.
fn compute_miss(pattern: &CachedPattern, id: GraphId, target: &Csr) -> bool {
    let _ctx =
        midas_obs::enabled().then(|| midas_obs::exemplar::with_context(pattern.fingerprint, id.0));
    pattern.plan().is_subgraph_of(target)
}

/// Everything memoized about one data graph.
#[derive(Debug, Default)]
struct GraphEntry {
    /// Containment answers per pattern, as `(fingerprint, key, contained)`
    /// rows. A flat vector beats a per-graph hash map here: the patterns
    /// probed against one graph are few (a pattern set and its
    /// candidates), a probe sweep touches a couple of contiguous cache
    /// lines instead of scattered buckets, and the 64-bit fingerprint
    /// prescreen makes full key compares rare.
    answers: Vec<(u64, CanonicalCode, bool)>,
}

impl GraphEntry {
    /// The stored answer for `pattern`, if any.
    fn find(&self, pattern: &CachedPattern) -> Option<bool> {
        self.answers
            .iter()
            .find(|(fp, k, _)| *fp == pattern.fingerprint && *k == pattern.key)
            .map(|&(_, _, contained)| contained)
    }
}

/// Cache accounting, for tests, bench reporting and telemetry snapshots.
///
/// The same four event streams also feed the global `midas-obs` counters
/// `cache.hits` / `cache.misses` / `cache.insertions` /
/// `cache.invalidations` when telemetry is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a stored entry.
    pub hits: u64,
    /// Requests that ran the compiled plan.
    pub misses: u64,
    /// Fresh `(pattern, graph)` entries stored: one per miss.
    pub insertions: u64,
    /// Graphs whose memoized entries were dropped by
    /// [`EmbeddingCache::invalidate_graph`] (only graphs that actually had
    /// an entry count).
    pub invalidations: u64,
}

impl CacheStats {
    /// Fraction of requests served from the memo, in `[0, 1]` (0 when no
    /// requests were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A single-owner memo of containment answers (see the module's
/// *Ownership* section). Sharing one across threads does not compile:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<midas_graph::EmbeddingCache>();
/// ```
///
/// Moving it to another thread does:
///
/// ```
/// fn moved<T: Send>() {}
/// moved::<midas_graph::EmbeddingCache>();
/// ```
#[derive(Debug, Default)]
pub struct EmbeddingCache {
    map: RefCell<FxHashMap<GraphId, GraphEntry>>,
    stats: Cell<CacheStats>,
}

impl EmbeddingCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `bump` to the accounting.
    fn record(&self, bump: impl FnOnce(&mut CacheStats)) {
        let mut stats = self.stats.get();
        bump(&mut stats);
        self.stats.set(stats);
    }

    /// Whether `pattern ⊆ target`, for graph `id` whose CSR view is
    /// `target` (borrowed from [`crate::db::GraphDb::csr`]), consulting
    /// and updating the memo. A miss runs the plan with no borrow of the
    /// map held, so a panicking search leaves the map untouched.
    pub fn is_subgraph(&self, pattern: &CachedPattern, id: GraphId, target: &Csr) -> bool {
        let stored = self.map.borrow().get(&id).and_then(|e| e.find(pattern));
        if let Some(contained) = stored {
            self.record(|s| s.hits += 1);
            midas_obs::counter_add!("cache.hits", 1);
            return contained;
        }
        let contained = compute_miss(pattern, id, target);
        self.map.borrow_mut().entry(id).or_default().answers.push((
            pattern.fingerprint,
            pattern.key.clone(),
            contained,
        ));
        self.record(|s| {
            s.misses += 1;
            s.insertions += 1;
        });
        midas_obs::counter_add!("cache.misses", 1);
        midas_obs::counter_add!("cache.insertions", 1);
        contained
    }

    /// Drops everything memoized about `id`. Call for every graph a batch
    /// inserts or deletes; counts an invalidation only when an entry was
    /// actually dropped.
    pub fn invalidate_graph(&self, id: GraphId) {
        if self.map.borrow_mut().remove(&id).is_some() {
            self.record(|s| s.invalidations += 1);
            midas_obs::counter_add!("cache.invalidations", 1);
        }
    }

    /// Accounting since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::kernel::MatchKernel;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn triangle() -> LabeledGraph {
        GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
    }

    /// `after - before`, field by field.
    fn delta(before: CacheStats, after: CacheStats) -> CacheStats {
        CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            insertions: after.insertions - before.insertions,
            invalidations: after.invalidations - before.invalidations,
        }
    }

    // Named for the count memo it replaced: a containment answer is the
    // cap-1 count.
    #[test]
    fn memoizes_counts() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(7);
        let before = cache.stats();
        assert!(cache.is_subgraph(&p, id, &t));
        assert_eq!(delta(before, cache.stats()).misses, 1);
        assert!(cache.is_subgraph(&p, id, &t));
        assert_eq!(
            delta(before, cache.stats()),
            CacheStats {
                hits: 1,
                misses: 1,
                insertions: 1,
                invalidations: 0,
            }
        );
    }

    #[test]
    fn isomorphic_patterns_share_entries() {
        let cache = EmbeddingCache::new();
        // Same path, two vertex orderings.
        let a = CachedPattern::new(&path(&[0, 1, 0]));
        let b = CachedPattern::new(
            &GraphBuilder::new()
                .vertices(&[0, 0, 1])
                .edge(0, 2)
                .edge(1, 2)
                .build(),
        );
        assert_eq!(a.key(), b.key());
        let t = Csr::from_graph(&path(&[0, 1, 0, 1, 0]));
        let id = GraphId(0);
        assert!(cache.is_subgraph(&a, id, &t));
        assert!(cache.is_subgraph(&b, id, &t));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn prefilter_zero_is_exact() {
        // The plan's label-demand prefilter proves absence; the stored
        // `false` serves the repeat.
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 9]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(2);
        assert!(!cache.is_subgraph(&p, id, &t));
        assert!(!cache.is_subgraph(&p, id, &t));
        // Second query hits the stored answer.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn invalidation_drops_one_graph_only() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        cache.is_subgraph(&p, GraphId(0), &t);
        cache.is_subgraph(&p, GraphId(1), &t);
        let before = cache.stats();
        cache.invalidate_graph(GraphId(0));
        assert_eq!(delta(before, cache.stats()).invalidations, 1);
        // Graph 1 still served from memo; graph 0 recomputed.
        cache.is_subgraph(&p, GraphId(1), &t);
        let d = delta(before, cache.stats());
        assert_eq!((d.hits, d.misses), (1, 0));
        cache.is_subgraph(&p, GraphId(0), &t);
        let d = delta(before, cache.stats());
        assert_eq!((d.hits, d.misses, d.insertions), (1, 1, 1));
    }

    #[test]
    fn hit_rate_is_zero_not_nan_on_zero_lookups() {
        // Regression guard: 0/0 must read as 0.0, never NaN — the value
        // flows straight into snapshot JSON and the Prometheus exposition,
        // where NaN is either invalid or poisons downstream aggregation.
        let empty = CacheStats::default();
        assert_eq!(empty.hits + empty.misses, 0);
        let rate = empty.hit_rate();
        assert!(rate.is_finite(), "hit_rate on zero lookups must be finite");
        assert_eq!(rate, 0.0);
        // Same through a live cache that has never been queried.
        let rate = EmbeddingCache::new().stats().hit_rate();
        assert!(rate.is_finite() && rate == 0.0);
    }

    #[test]
    fn hit_rate_accounting_across_insert_delete_cycle() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let start = cache.stats();
        assert_eq!(start.hit_rate(), 0.0);

        // Warm two graphs (2 misses, 2 insertions), re-query both (2 hits).
        for id in [GraphId(0), GraphId(1)] {
            cache.is_subgraph(&p, id, &t);
        }
        for id in [GraphId(0), GraphId(1)] {
            cache.is_subgraph(&p, id, &t);
        }
        let warm = delta(start, cache.stats());
        assert_eq!((warm.hits, warm.misses, warm.insertions), (2, 2, 2));
        assert_eq!(warm.hit_rate(), 0.5);

        // "Delete" graph 0 and "insert" graph 2: the batch contract calls
        // invalidate_graph for both ids. Only graph 0 had an entry, so one
        // invalidation counts.
        cache.invalidate_graph(GraphId(0));
        cache.invalidate_graph(GraphId(2));
        assert_eq!(delta(start, cache.stats()).invalidations, 1);

        // Post-cycle queries: graph 1 survives (hit), graphs 0 and 2 are
        // recomputed and re-inserted (misses + insertions).
        for id in [GraphId(0), GraphId(1), GraphId(2)] {
            cache.is_subgraph(&p, id, &t);
        }
        let end = delta(start, cache.stats());
        assert_eq!((end.hits, end.misses, end.insertions), (3, 4, 4));
        assert_eq!(end.hit_rate(), 3.0 / 7.0);
    }

    // Named for the count memo it replaced: the batched route is now the
    // kernel's `any_covered_in`.
    #[test]
    fn batched_counts_match_single_queries() {
        let kernel = MatchKernel::new();
        let patterns: Vec<CachedPattern> = [path(&[0, 9]), path(&[0, 0]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        let views = [path(&[0, 9]), triangle(), path(&[1, 1])].map(|g| Csr::from_graph(&g));
        let graphs: Vec<(GraphId, &Csr)> = views
            .iter()
            .enumerate()
            .map(|(i, c)| (GraphId(i as u64), c))
            .collect();
        // Partially warm the memo, then batch over everything: each answer
        // is the OR of the single queries on a cold memo.
        kernel
            .cache()
            .is_subgraph(&patterns[0], graphs[1].0, graphs[1].1);
        let batch = kernel.any_covered_in(&patterns, &graphs);
        let single: Vec<bool> = graphs
            .iter()
            .map(|&(id, g)| {
                patterns
                    .iter()
                    .any(|p| EmbeddingCache::new().is_subgraph(p, id, g))
            })
            .collect();
        assert_eq!(batch, vec![true, true, false]);
        assert_eq!(batch, single);
        // Second batch: all hits, no new misses.
        let misses = kernel.cache().stats().misses;
        assert_eq!(kernel.any_covered_in(&patterns, &graphs), batch);
        assert_eq!(kernel.cache().stats().misses, misses);
    }

    #[test]
    fn single_batched_and_boolean_routes_share_the_memo() {
        // Entries are keyed by canonical code and graph id only, so an
        // answer stored through one kernel route serves the others.
        let kernel = MatchKernel::new();
        let pattern = path(&[0, 0]);
        let p = CachedPattern::new(&pattern);
        let t = Csr::from_graph(&triangle());
        let id = GraphId(11);
        assert_eq!(kernel.covered_in(&pattern, &[(id, &t)]), vec![true]);
        assert_eq!(kernel.cache().stats().misses, 1);
        assert_eq!(
            kernel.any_covered_in(std::slice::from_ref(&p), &[(id, &t)]),
            vec![true]
        );
        assert!(kernel.cache().is_subgraph(&p, id, &t));
        assert_eq!(kernel.cache().stats().hits, 2);
        // After invalidation the entry is recomputed, not served.
        kernel.invalidate_graph(id);
        let misses = kernel.cache().stats().misses;
        assert_eq!(kernel.covered_in(&pattern, &[(id, &t)]), vec![true]);
        assert_eq!(kernel.cache().stats().misses, misses + 1);
    }

    #[test]
    fn reused_id_after_invalidation_is_recomputed_by_every_entry_point() {
        // After invalidate_graph, a different graph stored under the same
        // GraphId must be recomputed, never served the old graph's answer,
        // whichever kernel route asks.
        let kernel = MatchKernel::new();
        let id = GraphId(6);
        let old = Csr::from_graph(&triangle()); // contains both
        let new = Csr::from_graph(&path(&[9, 9])); // contains neither
        let graphs = [path(&[0, 0]), triangle()];
        let patterns: Vec<CachedPattern> = graphs.iter().map(CachedPattern::new).collect();
        let answers = |entry_point: &str, target: &Csr| -> Vec<bool> {
            match entry_point {
                "covered_in" => graphs
                    .iter()
                    .map(|g| kernel.covered_in(g, &[(id, target)])[0])
                    .collect(),
                "any_covered_in" => patterns
                    .iter()
                    .map(|p| kernel.any_covered_in(std::slice::from_ref(p), &[(id, target)])[0])
                    .collect(),
                _ => patterns
                    .iter()
                    .map(|p| kernel.cache().is_subgraph(p, id, target))
                    .collect(),
            }
        };
        for entry_point in ["covered_in", "any_covered_in", "is_subgraph"] {
            assert_eq!(answers("is_subgraph", &old), vec![true, true]);
            kernel.invalidate_graph(id);
            let before = kernel.cache().stats();
            assert_eq!(
                answers(entry_point, &new),
                vec![false, false],
                "{entry_point} served a stale answer"
            );
            let d = delta(before, kernel.cache().stats());
            assert_eq!((d.hits, d.misses, d.insertions), (0, 2, 2), "{entry_point}");
            // The rows stored now are the new graph's answers, served on
            // repeat.
            assert_eq!(answers(entry_point, &new), vec![false, false]);
            assert_eq!(
                delta(before, kernel.cache().stats()).hits,
                2,
                "{entry_point}"
            );
            kernel.invalidate_graph(id);
        }
    }
}
