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
//! Entries are keyed **graph-first**: a sharded map `GraphId → (pattern-key
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
//! so the database owns the only CSR of each graph.

use crate::canonical::{canonical_code, CanonicalCode};
use crate::csr::Csr;
use crate::db::GraphId;
use crate::fasthash::FxHashMap;
use crate::graph::LabeledGraph;
use crate::plan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independent lock shards. Power of two, sized so a dozen
/// threads rarely contend on one lock.
const SHARDS: usize = 64;

/// A pattern prepared for cached matching: the graph plus its canonical
/// key, computed once.
#[derive(Debug, Clone)]
pub struct CachedPattern {
    graph: Arc<LabeledGraph>,
    key: CanonicalCode,
    fingerprint: u64,
    /// Pattern-local memo of the compiled plan, so the per-probe cost is
    /// one atomic load instead of a global-cache round trip.
    plan: std::sync::OnceLock<Arc<crate::plan::MatchPlan>>,
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
            plan: std::sync::OnceLock::new(),
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

    /// The pattern's compiled match plan, compiled at most once per
    /// canonical class per process (via [`plan::cached_plan`]) and then
    /// pinned in this instance, so repeat probes skip the global cache.
    pub fn plan(&self) -> std::sync::Arc<crate::plan::MatchPlan> {
        self.plan_ref().clone()
    }

    /// Borrowing twin of [`Self::plan`] for hot loops — no refcount
    /// traffic.
    pub fn plan_ref(&self) -> &std::sync::Arc<crate::plan::MatchPlan> {
        self.plan
            .get_or_init(|| plan::cached_plan(&self.key, &self.graph))
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

/// The production miss computation: `pattern`'s compiled plan over the
/// target's CSR view.
fn plan_count(pattern: &CachedPattern, target: &Csr, cap: u64) -> u64 {
    pattern.plan_ref().count_embeddings(target, cap)
}

/// One memo miss: runs `compute` tagged so tail exemplars attribute to
/// this (pattern, graph); the guard unwinds the thread-local tag.
fn compute_miss(
    pattern: &CachedPattern,
    id: GraphId,
    target: &Csr,
    cap: u64,
    compute: impl FnOnce(&CachedPattern, &Csr, u64) -> u64,
) -> StoredCount {
    let _ctx =
        midas_obs::enabled().then(|| midas_obs::exemplar::with_context(pattern.fingerprint, id.0));
    StoredCount {
        cap,
        count: compute(pattern, target, cap),
    }
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
    /// The stored count for `key`, if any.
    fn find(&self, fingerprint: u64, key: &CanonicalCode) -> Option<&StoredCount> {
        self.counts
            .iter()
            .find(|(fp, k, _)| *fp == fingerprint && k == key)
            .map(|(_, _, stored)| stored)
    }

    /// Inserts `stored` for `key`, keeping whichever of the racing
    /// computations knows more (the higher cap). Returns `true` when a
    /// fresh row was added (the insertion-accounting event).
    fn store(&mut self, fingerprint: u64, key: &CanonicalCode, stored: StoredCount) -> bool {
        match self
            .counts
            .iter_mut()
            .find(|(fp, k, _)| *fp == fingerprint && k == key)
        {
            Some((_, _, existing)) => {
                if stored.cap > existing.cap {
                    *existing = stored;
                }
                false
            }
            None => {
                self.counts.push((fingerprint, key.clone(), stored));
                true
            }
        }
    }
}

/// One lock shard: the memoized entries plus a shard-local invalidation
/// epoch. The epoch closes the stale-hit window: a compute that started
/// before an [`EmbeddingCache::invalidate_graph`] observed the pre-bump
/// epoch and is refused insertion afterwards, so a graph removed and
/// re-added under a reused [`GraphId`] can never be shadowed by counts of
/// the old graph.
#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<GraphId, GraphEntry>,
    generation: u64,
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
    /// [`EmbeddingCache::invalidate_graph`] / [`EmbeddingCache::clear`]
    /// (only graphs that actually had an entry count).
    pub invalidations: u64,
    /// Invalidation epoch: bumped on **every** [`invalidate_graph`] /
    /// [`clear`] call, whether or not anything was stored. Readers can
    /// compare generations to detect that answers may have changed.
    ///
    /// [`invalidate_graph`]: EmbeddingCache::invalidate_graph
    /// [`clear`]: EmbeddingCache::clear
    pub generation: u64,
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

/// A sharded, thread-safe memo of capped embedding counts.
///
/// Cheap to share (`Arc<EmbeddingCache>`) and safe to hit from many
/// threads at once.
#[derive(Debug)]
pub struct EmbeddingCache {
    shards: Vec<RwLock<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    invalidations: AtomicU64,
    generation: AtomicU64,
}

impl Default for EmbeddingCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EmbeddingCache {
    /// An empty cache.
    pub fn new() -> Self {
        EmbeddingCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    fn record_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        midas_obs::counter_add!("cache.hits", n);
    }

    fn record_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
        midas_obs::counter_add!("cache.misses", n);
    }

    fn record_insertions(&self, n: u64) {
        self.insertions.fetch_add(n, Ordering::Relaxed);
        midas_obs::counter_add!("cache.insertions", n);
    }

    fn record_invalidations(&self, n: u64) {
        self.invalidations.fetch_add(n, Ordering::Relaxed);
        midas_obs::counter_add!("cache.invalidations", n);
    }

    fn shard(&self, id: GraphId) -> &RwLock<Shard> {
        &self.shards[(id.0 as usize) % SHARDS]
    }

    /// Read-locks `id`'s shard, recovering from poison: the data under the
    /// lock is only ever mutated through short, panic-free critical
    /// sections, so a poisoned guard (a worker that panicked elsewhere
    /// while holding it) still protects a consistent map.
    fn read_shard(&self, id: GraphId) -> RwLockReadGuard<'_, Shard> {
        self.shard(id)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-locks `id`'s shard, recovering from poison (see
    /// [`Self::read_shard`]).
    fn write_shard(&self, id: GraphId) -> RwLockWriteGuard<'_, Shard> {
        self.shard(id)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
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
        self.count_embeddings_impl(pattern, id, target, cap, plan_count)
    }

    /// The body of [`Self::count_embeddings`] with the miss computation
    /// injectable, so tests can interleave an invalidation with a running
    /// computation deterministically.
    fn count_embeddings_impl(
        &self,
        pattern: &CachedPattern,
        id: GraphId,
        target: &Csr,
        cap: u64,
        compute: impl FnOnce(&CachedPattern, &Csr, u64) -> u64,
    ) -> u64 {
        if cap == 0 {
            return 0;
        }
        // Fast path: stored entry. The shard epoch observed here gates the
        // later insertion.
        let observed_generation;
        {
            let shard = self.read_shard(id);
            observed_generation = shard.generation;
            if let Some(answer) = shard
                .map
                .get(&id)
                .and_then(|entry| entry.find(pattern.fingerprint, &pattern.key))
                .and_then(|stored| stored.serve(cap))
            {
                self.record_hits(1);
                return answer;
            }
        }
        let stored = compute_miss(pattern, id, target, cap, compute);
        self.record_misses(1);
        self.memoize(id, observed_generation, [(pattern, stored)]);
        stored.serve(cap).expect("fresh entry serves its own cap")
    }

    /// Counts embeddings of every pattern in graph `id` in one pass: a
    /// single read-lock sweep serves all memoized answers, the plan runs
    /// only for the gaps, and a single write lock stores the fresh
    /// entries. Equivalent to (but cheaper than) one
    /// [`Self::count_embeddings`] call per pattern — this is the inner
    /// loop of a matrix-column build.
    pub fn count_embeddings_many(
        &self,
        patterns: &[CachedPattern],
        id: GraphId,
        target: &Csr,
        cap: u64,
    ) -> Vec<u64> {
        if cap == 0 {
            return vec![0; patterns.len()];
        }
        let mut out: Vec<Option<u64>> = vec![None; patterns.len()];
        let mut hits = 0u64;
        let observed_generation;
        {
            let shard = self.read_shard(id);
            observed_generation = shard.generation;
            let Some(entry) = shard.map.get(&id) else {
                // Never-seen graph: every pattern is a miss, so skip the
                // hit bookkeeping entirely (the bootstrap hot path).
                drop(shard);
                return self.count_many_all_cold(patterns, id, target, cap, observed_generation);
            };
            for (slot, p) in out.iter_mut().zip(patterns) {
                if let Some(answer) = entry
                    .find(p.fingerprint, &p.key)
                    .and_then(|stored| stored.serve(cap))
                {
                    *slot = Some(answer);
                    hits += 1;
                }
            }
        }
        if hits > 0 {
            self.record_hits(hits);
        }
        let mut fresh: Vec<(&CachedPattern, StoredCount)> = Vec::new();
        for (slot, p) in out.iter_mut().zip(patterns) {
            if slot.is_none() {
                let stored = compute_miss(p, id, target, cap, plan_count);
                *slot = Some(stored.serve(cap).expect("fresh entry serves its own cap"));
                fresh.push((p, stored));
            }
        }
        if !fresh.is_empty() {
            self.record_misses(fresh.len() as u64);
            self.memoize(id, observed_generation, fresh);
        }
        out.into_iter().map(|s| s.expect("filled")).collect()
    }

    /// Bootstrap arm of [`Self::count_embeddings_many`]: the graph has no
    /// memo entry yet, so every pattern is a miss. Counts go straight into
    /// the output vector — no `Option` slots, no hit scan — which matters
    /// because the bulk build visits every graph exactly once and
    /// therefore runs entirely through this path.
    fn count_many_all_cold(
        &self,
        patterns: &[CachedPattern],
        id: GraphId,
        target: &Csr,
        cap: u64,
        observed_generation: u64,
    ) -> Vec<u64> {
        let rows: Vec<StoredCount> = patterns
            .iter()
            .map(|p| compute_miss(p, id, target, cap, plan_count))
            .collect();
        let out = rows
            .iter()
            .map(|stored| stored.serve(cap).expect("fresh entry serves its own cap"))
            .collect();
        self.record_misses(rows.len() as u64);
        self.memoize(id, observed_generation, patterns.iter().zip(rows));
        out
    }

    /// Stores freshly computed rows for graph `id` under one write lock —
    /// unless the shard was invalidated since `observed_generation` was
    /// read. In that case the graph may have been re-added under the same
    /// id while the rows were computed: they are still correct for the
    /// caller's target, but memoizing them could shadow the re-added graph
    /// with stale counts, so they are dropped.
    fn memoize<'p>(
        &self,
        id: GraphId,
        observed_generation: u64,
        rows: impl IntoIterator<Item = (&'p CachedPattern, StoredCount)>,
    ) {
        let mut shard = self.write_shard(id);
        if shard.generation != observed_generation {
            return;
        }
        let entry = shard.map.entry(id).or_default();
        let rows = rows.into_iter();
        entry.counts.reserve(rows.size_hint().0);
        // `store` dedupes: a racing thread may have populated the entry
        // between our read probe and this write lock.
        let mut inserted = 0u64;
        for (p, stored) in rows {
            if entry.store(p.fingerprint, &p.key, stored) {
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.record_insertions(inserted);
        }
    }

    /// Whether `pattern ⊆ target`, through the memo: a cap-1 count, which
    /// the plan interpreter answers by stopping at the first embedding.
    pub fn is_subgraph(&self, pattern: &CachedPattern, id: GraphId, target: &Csr) -> bool {
        self.count_embeddings(pattern, id, target, 1) > 0
    }

    /// Drops everything memoized about `id`. Call for every graph a batch
    /// inserts or deletes. Always bumps the generation; counts an
    /// invalidation only when an entry was actually dropped.
    ///
    /// The drop and the shard-epoch bump happen under one write lock, so
    /// invalidation + reinsert is atomic per shard: any in-flight compute
    /// that probed before this call is refused insertion afterwards.
    pub fn invalidate_graph(&self, id: GraphId) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        let dropped = {
            let mut shard = self.write_shard(id);
            shard.generation += 1;
            shard.map.remove(&id)
        };
        if dropped.is_some() {
            self.record_invalidations(1);
        }
    }

    /// Drops the entire memo (one generation bump, one invalidation per
    /// graph that had an entry).
    pub fn clear(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
            shard.generation += 1;
            dropped += shard.map.len() as u64;
            shard.map.clear();
        }
        if dropped > 0 {
            self.record_invalidations(dropped);
        }
    }

    /// Number of graphs with at least one memoized entry.
    pub fn cached_graphs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Accounting since construction (or the last [`reset_stats`]). The
    /// generation is never reset — it tracks invalidation epochs, not
    /// workload accounting.
    ///
    /// [`reset_stats`]: EmbeddingCache::reset_stats
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
        }
    }

    /// The current invalidation epoch (see [`CacheStats::generation`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Zeroes the accounting counters (the memo itself and the generation
    /// are untouched).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.insertions.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::isomorphism::count_embeddings;

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

    #[test]
    fn memoizes_counts() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(7);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                insertions: 1,
                invalidations: 0,
                generation: 0,
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
        assert_eq!(cache.cached_graphs(), 2);
        cache.invalidate_graph(GraphId(0));
        assert_eq!(cache.cached_graphs(), 1);
        // Graph 1 still served from memo; graph 0 recomputed.
        cache.reset_stats();
        cache.count_embeddings(&p, GraphId(1), &t, 64);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        cache.count_embeddings(&p, GraphId(0), &t, 64);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
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
        assert_eq!(cache.stats().generation, 0);
        assert_eq!(cache.stats().hit_rate(), 0.0);

        // Warm two graphs (2 misses, 2 insertions), re-query both (2 hits).
        for id in [GraphId(0), GraphId(1)] {
            cache.count_embeddings(&p, id, &t, 64);
        }
        for id in [GraphId(0), GraphId(1)] {
            cache.count_embeddings(&p, id, &t, 64);
        }
        let warm = cache.stats();
        assert_eq!((warm.hits, warm.misses, warm.insertions), (2, 2, 2));
        assert_eq!(warm.hit_rate(), 0.5);

        // "Delete" graph 0 and "insert" graph 2: the batch contract calls
        // invalidate_graph for both ids. Only graph 0 had an entry, so one
        // invalidation counts, but the generation moves on every call.
        cache.invalidate_graph(GraphId(0));
        cache.invalidate_graph(GraphId(2));
        let after = cache.stats();
        assert_eq!(after.invalidations, 1);
        assert_eq!(after.generation, warm.generation + 2);

        // Post-cycle queries: graph 1 survives (hit), graphs 0 and 2 are
        // recomputed and re-inserted (misses + insertions).
        for id in [GraphId(0), GraphId(1), GraphId(2)] {
            cache.count_embeddings(&p, id, &t, 64);
        }
        let end = cache.stats();
        assert_eq!((end.hits, end.misses, end.insertions), (3, 4, 4));
        assert_eq!(end.hit_rate(), 3.0 / 7.0);

        // reset_stats zeroes accounting but preserves the epoch.
        cache.reset_stats();
        let reset = cache.stats();
        assert_eq!((reset.hits, reset.misses), (0, 0));
        assert_eq!((reset.insertions, reset.invalidations), (0, 0));
        assert_eq!(reset.generation, end.generation);
    }

    #[test]
    fn clear_counts_every_stored_graph() {
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        for id in 0..3 {
            cache.count_embeddings(&p, GraphId(id), &t, 64);
        }
        let gen_before = cache.generation();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 3);
        assert_eq!(stats.generation, gen_before + 1);
        assert_eq!(cache.cached_graphs(), 0);
    }

    #[test]
    fn batched_counts_match_single_queries() {
        let cache = EmbeddingCache::new();
        let patterns: Vec<CachedPattern> = [path(&[0, 0]), path(&[0, 9]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        let g = triangle();
        let t = Csr::from_graph(&g);
        let id = GraphId(3);
        // Partially warm the memo, then batch over everything.
        cache.count_embeddings(&patterns[0], id, &t, 64);
        let batch = cache.count_embeddings_many(&patterns, id, &t, 64);
        for (p, &got) in patterns.iter().zip(&batch) {
            assert_eq!(got, count_embeddings(p.graph(), &g, 64));
        }
        // Second batch: all hits, no new misses.
        let misses = cache.stats().misses;
        let again = cache.count_embeddings_many(&patterns, id, &t, 64);
        assert_eq!(again, batch);
        assert_eq!(cache.stats().misses, misses);
    }

    #[test]
    fn single_batched_and_boolean_routes_share_the_memo() {
        // Entries are keyed by canonical code and graph id only, so an
        // answer stored by one entry point serves the others.
        let cache = EmbeddingCache::new();
        let p = CachedPattern::new(&path(&[0, 0]));
        let g = triangle();
        let t = Csr::from_graph(&g);
        let id = GraphId(11);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(
            cache.count_embeddings_many(std::slice::from_ref(&p), id, &t, 64),
            vec![6]
        );
        assert!(cache.is_subgraph(&p, id, &t));
        assert_eq!(cache.stats().hits, 2);
        // The cold batched route equals the serial VF2 reference,
        // including the prefilter-zero case.
        let patterns: Vec<CachedPattern> = [path(&[0, 0]), path(&[0, 9]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        let batch = cache.count_embeddings_many(&patterns, GraphId(12), &t, 64);
        for (p, &got) in patterns.iter().zip(&batch) {
            assert_eq!(got, count_embeddings(p.graph(), &g, 64));
        }
        // After invalidation the entry is recomputed, not served.
        cache.invalidate_graph(id);
        let misses = cache.stats().misses;
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert_eq!(cache.stats().misses, misses + 1);
    }

    #[test]
    fn invalidate_during_compute_is_not_memoized_stale() {
        // Regression: a graph removed and re-added under a reused GraphId
        // must never be served counts computed against the old graph. The
        // injectable compute hook deterministically interleaves the
        // invalidation with a plan search that is already in flight.
        let cache = EmbeddingCache::new();
        let id = GraphId(5);
        let old = Csr::from_graph(&triangle()); // 6 embeddings of 0-0
        let new = Csr::from_graph(&path(&[9, 9])); // none
        let p = CachedPattern::new(&path(&[0, 0]));
        let stale = cache.count_embeddings_impl(&p, id, &old, 64, |pat, t, c| {
            // Mid-compute, the batch deletes `id` and re-adds a different
            // graph under it (the contract calls invalidate for both).
            cache.invalidate_graph(id);
            plan_count(pat, t, c)
        });
        // The in-flight caller still gets the correct answer for ITS graph…
        assert_eq!(stale, 6);
        // …but the memo must not serve that stale count for the new graph.
        assert_eq!(cache.count_embeddings(&p, id, &new, 64), 0);
        // And the entry stored now is the new graph's, served on repeat.
        let hits = cache.stats().hits;
        assert_eq!(cache.count_embeddings(&p, id, &new, 64), 0);
        assert_eq!(cache.stats().hits, hits + 1);
    }

    #[test]
    fn batched_insert_is_skipped_after_mid_compute_invalidation() {
        // Same stale-hit window through count_embeddings_many: the write
        // pass must observe the epoch moved and skip memoization.
        let cache = EmbeddingCache::new();
        let id = GraphId(6);
        let old = Csr::from_graph(&triangle());
        let patterns: Vec<CachedPattern> = [path(&[0, 0]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        // Probe happens inside; simulate the race by invalidating between
        // two calls while nothing is stored yet is not enough — so drive
        // the single-pattern seam first to store, invalidate, then check
        // the batch path recomputes rather than hitting stale state.
        let first = cache.count_embeddings_many(&patterns, id, &old, 64);
        assert_eq!(first, vec![6, 6]);
        cache.invalidate_graph(id);
        let new = Csr::from_graph(&path(&[9, 9]));
        assert_eq!(
            cache.count_embeddings_many(&patterns, id, &new, 64),
            vec![0, 0]
        );
    }

    #[test]
    fn poisoned_shard_lock_recovers() {
        // A worker that panics while holding a shard lock must not wedge
        // the cache: later readers/writers recover the guard and keep
        // serving consistent answers.
        let cache = std::sync::Arc::new(EmbeddingCache::new());
        let p = CachedPattern::new(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle());
        let id = GraphId(3);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        let poisoner = std::sync::Arc::clone(&cache);
        let join = std::thread::spawn(move || {
            let _guard = poisoner.shard(id).write().unwrap();
            panic!("poison the shard");
        })
        .join();
        assert!(join.is_err(), "the poisoning thread must panic");
        assert!(cache.shard(id).is_poisoned());
        // Reads, writes and invalidation all still work.
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        cache.invalidate_graph(id);
        assert_eq!(cache.count_embeddings(&p, id, &t, 64), 6);
        assert!(cache.cached_graphs() >= 1);
        cache.clear();
        assert_eq!(cache.cached_graphs(), 0);
    }

    #[test]
    fn concurrent_queries_agree_with_serial() {
        let cache = EmbeddingCache::new();
        let patterns: Vec<CachedPattern> = [path(&[0, 0]), path(&[0, 0, 0]), triangle()]
            .iter()
            .map(CachedPattern::new)
            .collect();
        let targets: Vec<(GraphId, LabeledGraph, Csr)> = (0..32)
            .map(|i| {
                let g = if i % 2 == 0 {
                    triangle()
                } else {
                    path(&[0, 0, 0, 0])
                };
                let csr = Csr::from_graph(&g);
                (GraphId(i), g, csr)
            })
            .collect();
        // Eight threads scan every graph through the shared memo at once.
        let scans: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        targets
                            .iter()
                            .map(|(id, _, t)| {
                                patterns
                                    .iter()
                                    .map(|p| cache.count_embeddings(p, *id, t, 64))
                                    .collect()
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("scan"))
                .collect()
        });
        for rows in &scans {
            for ((_, g, _), row) in targets.iter().zip(rows) {
                for (p, &got) in patterns.iter().zip(row) {
                    assert_eq!(got, count_embeddings(p.graph(), g, 64));
                }
            }
        }
    }
}
