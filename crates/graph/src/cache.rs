//! Memoized subgraph-isomorphism counts keyed by `(pattern, data graph)`.
//!
//! The TG/TP matrices (§5.1), scov coverage (§2.2) and the swap/quality
//! machinery all keep asking the same question — "how many embeddings of
//! pattern `p` does graph `G` contain (capped)?" — against a database that
//! changes only at batch boundaries. [`EmbeddingCache`] memoizes those
//! answers so that a batch touching 1% of the database recomputes ~1% of a
//! matrix, and a rebuilt index reuses every surviving cell.
//!
//! # Keying
//!
//! Entries are keyed **graph-first**: a map `GraphId → (pattern-key
//! → count)`. The inner key is the pattern's [`CanonicalCode`],
//! so isomorphic patterns — common, since candidates are generated from
//! random walks on many CSGs — share one entry per graph. Graph-first
//! nesting makes invalidation O(1) per touched graph:
//! [`EmbeddingCache::invalidate_graph`] simply drops the graph's inner map.
//!
//! # Cap soundness
//!
//! Counts are saturating ([`crate::plan::MatchPlan::count_embeddings`]'s
//! `cap`). Each entry stores
//! the cap it was computed at. A stored value serves a request when it is
//! *exact* (`count < stored_cap`, so `min(count, cap)` is the true answer)
//! or *saturated at or above the requested cap* (`cap ≤ stored_cap ≤ count`
//! implies the answer is exactly `cap`). Otherwise the entry is recomputed
//! at the larger cap and upgraded in place.
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
//! The memo stores counts only. Misses run the pattern's compiled plan
//! over the CSR view the caller borrows from [`crate::db::GraphDb::csr`],
//! so the database owns the only CSR of each graph. The plan belongs to
//! the [`CachedPattern`]: compiled on its first miss and dropped with it,
//! never shared through process-wide state.

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

/// One stored answer: the cap it was computed at and the (saturating) count.
#[derive(Debug, Clone, Copy)]
struct StoredCount {
    cap: u64,
    count: u64,
}

impl StoredCount {
    /// The answer for a request at `cap`, when this entry can serve it.
    fn serve(&self, cap: u64) -> Option<u64> {
        if self.count < self.cap {
            // Exact count: valid at any cap.
            Some(self.count.min(cap))
        } else if cap <= self.cap {
            // Saturated at stored cap ≥ requested cap: true count ≥ cap.
            Some(cap)
        } else {
            None
        }
    }
}

/// One memo miss: runs `pattern`'s compiled plan over the target's CSR
/// view, tagged so tail exemplars attribute to this (pattern, graph); the
/// guard unwinds the thread-local tag.
fn compute_miss(pattern: &CachedPattern, id: GraphId, target: &Csr, cap: u64) -> u64 {
    let _ctx =
        midas_obs::enabled().then(|| midas_obs::exemplar::with_context(pattern.fingerprint, id.0));
    pattern.plan().count_embeddings(target, cap)
}

/// Everything memoized about one data graph.
#[derive(Debug, Default)]
struct GraphEntry {
    /// Capped embedding counts per pattern, as `(fingerprint, key, count)`
    /// rows. A flat vector beats a per-graph hash map here: the feature
    /// set probed against one graph is small (a TG-matrix row, typically
    /// tens of patterns), a probe sweep touches a couple of contiguous
    /// cache lines instead of scattered buckets, and the 64-bit
    /// fingerprint prescreen makes full key compares rare.
    counts: Vec<(u64, CanonicalCode, StoredCount)>,
}

impl GraphEntry {
    /// The stored count for `pattern`, if any.
    fn find(&self, pattern: &CachedPattern) -> Option<&StoredCount> {
        self.counts
            .iter()
            .find(|(fp, k, _)| *fp == pattern.fingerprint && *k == pattern.key)
            .map(|(_, _, stored)| stored)
    }

    /// Stores `stored` for `pattern`, overwriting its row in place: a miss
    /// on an existing row means the request's cap exceeded the stored one.
    /// Returns `true` when a fresh row was added (the insertion-accounting
    /// event).
    fn store(&mut self, pattern: &CachedPattern, stored: StoredCount) -> bool {
        match self
            .counts
            .iter_mut()
            .find(|(fp, k, _)| *fp == pattern.fingerprint && *k == pattern.key)
        {
            Some((_, _, existing)) => {
                *existing = stored;
                false
            }
            None => {
                self.counts
                    .push((pattern.fingerprint, pattern.key.clone(), stored));
                true
            }
        }
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
    /// Fresh `(pattern, graph)` entries stored (cap upgrades of an existing
    /// entry do not count).
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

/// A single-owner memo of capped embedding counts (see the module's
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

    /// Counts embeddings of `pattern` in graph `id`, whose CSR view is
    /// `target` (borrowed from [`crate::db::GraphDb::csr`]), saturating at
    /// `cap`, consulting and updating the memo.
    pub fn count_embeddings(
        &self,
        pattern: &CachedPattern,
        id: GraphId,
        target: &Csr,
        cap: u64,
    ) -> u64 {
        let mut out = [0];
        self.fill(&[pattern], id, target, cap, &mut out);
        out[0]
    }

    /// Counts embeddings of every pattern in graph `id` in one pass — the
    /// inner loop of a matrix-column build. Equal to one
    /// [`Self::count_embeddings`] call per pattern.
    pub fn count_embeddings_many(
        &self,
        patterns: &[&CachedPattern],
        id: GraphId,
        target: &Csr,
        cap: u64,
    ) -> Vec<u64> {
        let mut out = vec![0; patterns.len()];
        self.fill(patterns, id, target, cap, &mut out);
        out
    }

    /// The one memo body: one probe sweep serves every stored answer into
    /// `out`, the plan runs for the gaps with no borrow of the map held
    /// (a panicking search leaves the map untouched), and one store pass
    /// memoizes the fresh counts.
    fn fill(
        &self,
        patterns: &[&CachedPattern],
        id: GraphId,
        target: &Csr,
        cap: u64,
        out: &mut [u64],
    ) {
        if cap == 0 {
            return;
        }
        let mut gaps = Vec::new();
        {
            let map = self.map.borrow();
            let entry = map.get(&id);
            for (i, (slot, p)) in out.iter_mut().zip(patterns).enumerate() {
                match entry.and_then(|e| e.find(p)).and_then(|s| s.serve(cap)) {
                    Some(answer) => *slot = answer,
                    None => gaps.push(i),
                }
            }
        }
        let hits = (patterns.len() - gaps.len()) as u64;
        if hits > 0 {
            self.record(|s| s.hits += hits);
            midas_obs::counter_add!("cache.hits", hits);
        }
        if gaps.is_empty() {
            return;
        }
        for &i in &gaps {
            out[i] = compute_miss(patterns[i], id, target, cap);
        }
        let misses = gaps.len() as u64;
        let mut map = self.map.borrow_mut();
        let entry = map.entry(id).or_default();
        entry.counts.reserve(gaps.len());
        let mut inserted = 0u64;
        for &i in &gaps {
            let stored = StoredCount { cap, count: out[i] };
            inserted += u64::from(entry.store(patterns[i], stored));
        }
        self.record(|s| {
            s.misses += misses;
            s.insertions += inserted;
        });
        midas_obs::counter_add!("cache.misses", misses);
        if inserted > 0 {
            midas_obs::counter_add!("cache.insertions", inserted);
        }
    }

    /// Whether `pattern ⊆ target`, through the memo: a cap-1 count, which
    /// the plan interpreter answers by stopping at the first embedding.
    pub fn is_subgraph(&self, pattern: &CachedPattern, id: GraphId, target: &Csr) -> bool {
        self.count_embeddings(pattern, id, target, 1) > 0
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

    /// The batch form the memo takes: one reference per pattern.
    fn refs(patterns: &[CachedPattern]) -> Vec<&CachedPattern> {
        patterns.iter().collect()
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

    #[test]
    fn memoizes_counts() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(7);
        let before = cache.stats();
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(delta(before, cache.stats()).misses, 1);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
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
        let first = cache.count_embeddings(&a, id, &t, 64);
        let second = cache.count_embeddings(&b, id, &t, 64);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn cap_upgrades_are_sound() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(1);
        // Boolean query first: stored saturated at cap 1.
        assert!(cache.is_subgraph(&p, id, &t));
        // Same cap served from memo.
        assert_eq!(cache.count_embeddings(&p, id, &t, 1), 1);
        assert_eq!(cache.stats().hits, 1);
        // Larger cap forces a recompute, upgrading the entry.
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        // Now exact: every cap served from memo.
        assert_eq!(cache.count_embeddings(&p, id, &t, 3), 3);
        assert_eq!(cache.count_embeddings(&p, id, &t, 1000), 6);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn prefilter_zero_is_exact() {
        // The plan's label-demand prefilter proves zero; a zero below the
        // cap is exact, so it serves every later cap.
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 9]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(2);
        assert_eq!(cache.count_embeddings(&p, id, &t, 1), 0);
        assert_eq!(cache.count_embeddings(&p, id, &t, u64::MAX), 0);
        // Second query hits the stored exact zero.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn invalidation_drops_one_graph_only() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        cache.count_embeddings(&p, GraphId(0), &t, 64);
        cache.count_embeddings(&p, GraphId(1), &t, 64);
        let before = cache.stats();
        cache.invalidate_graph(GraphId(0));
        assert_eq!(delta(before, cache.stats()).invalidations, 1);
        // Graph 1 still served from memo; graph 0 recomputed.
        cache.count_embeddings(&p, GraphId(1), &t, 64);
        let d = delta(before, cache.stats());
        assert_eq!((d.hits, d.misses), (1, 0));
        cache.count_embeddings(&p, GraphId(0), &t, 64);
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
            cache.count_embeddings(&p, id, &t, 64);
        }
        for id in [GraphId(0), GraphId(1)] {
            cache.count_embeddings(&p, id, &t, 64);
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
            cache.count_embeddings(&p, id, &t, 64);
        }
        let end = delta(start, cache.stats());
        assert_eq!((end.hits, end.misses, end.insertions), (3, 4, 4));
        assert_eq!(end.hit_rate(), 3.0 / 7.0);
    }

    #[test]
    fn batched_counts_match_single_queries() {
        let cache = EmbeddingCache::new();
        let patterns: Vec<CachedPattern> = [path(&[0, 0]), path(&[0, 9]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        let t = Csr::from_graph(&triangle());
        let id = GraphId(3);
        // Partially warm the memo, then batch over everything: each count
        // equals the single query on a cold memo.
        cache.count_embeddings(&patterns[0], id, &t, 64);
        let batch = cache.count_embeddings_many(&refs(&patterns), id, &t, 64);
        for (p, &got) in patterns.iter().zip(&batch) {
            assert_eq!(got, EmbeddingCache::new().count_embeddings(p, id, &t, 64));
        }
        // Second batch: all hits, no new misses.
        let misses = cache.stats().misses;
        let again = cache.count_embeddings_many(&refs(&patterns), id, &t, 64);
        assert_eq!(again, batch);
        assert_eq!(cache.stats().misses, misses);
    }

    #[test]
    fn single_batched_and_boolean_routes_share_the_memo() {
        // Entries are keyed by canonical code and graph id only, so an
        // answer stored by one entry point serves the others.
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(11);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.count_embeddings_many(&[&p], id, &t, 64), vec![6]);
        assert!(cache.is_subgraph(&p, id, &t));
        assert_eq!(cache.stats().hits, 2);
        // After invalidation the entry is recomputed, not served.
        cache.invalidate_graph(id);
        let misses = cache.stats().misses;
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(cache.stats().misses, misses + 1);
    }

    #[test]
    fn reused_id_after_invalidation_is_recomputed_by_every_entry_point() {
        // After invalidate_graph, a different graph stored under the same
        // GraphId must be recomputed, never served the old graph's counts,
        // whichever entry point asks.
        let cache = EmbeddingCache::new();
        let id = GraphId(6);
        let old = Csr::from_graph(&triangle()); // 6 embeddings of each
        let new = Csr::from_graph(&path(&[9, 9])); // none
        let patterns: Vec<CachedPattern> = [path(&[0, 0]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        for entry_point in ["count_embeddings", "count_embeddings_many", "is_subgraph"] {
            assert_eq!(
                cache.count_embeddings_many(&refs(&patterns), id, &old, 64),
                vec![6, 6]
            );
            cache.invalidate_graph(id);
            let before = cache.stats();
            let answers: Vec<u64> = match entry_point {
                "count_embeddings" => patterns
                    .iter()
                    .map(|p| cache.count_embeddings(p, id, &new, 64))
                    .collect(),
                "count_embeddings_many" => {
                    cache.count_embeddings_many(&refs(&patterns), id, &new, 64)
                }
                _ => patterns
                    .iter()
                    .map(|p| u64::from(cache.is_subgraph(p, id, &new)))
                    .collect(),
            };
            assert_eq!(answers, vec![0, 0], "{entry_point} served a stale count");
            let d = delta(before, cache.stats());
            assert_eq!((d.hits, d.misses, d.insertions), (0, 2, 2), "{entry_point}");
            // The rows stored now are the new graph's exact zeros, served
            // on repeat at any cap.
            assert_eq!(
                cache.count_embeddings_many(&refs(&patterns), id, &new, 64),
                vec![0, 0]
            );
            assert_eq!(delta(before, cache.stats()).hits, 2, "{entry_point}");
            cache.invalidate_graph(id);
        }
    }
}
