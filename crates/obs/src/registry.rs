//! The global metrics registry: named counters, gauges and histograms
//! backed by atomics. A span's statistic is the histogram of its
//! completion durations in microseconds, kept in a namespace of its own.
//!
//! Metric handles are `&'static` — registered once (the maps leak their
//! values deliberately; the set of metric names is small and fixed by the
//! instrumentation sites) and then shared lock-free. The handle maps are
//! only locked on first registration and at snapshot time.

use crate::snapshot::HistogramSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Instant;

/// Histogram bucket count: bucket `i` holds values whose bit length is `i`
/// (i.e. `v == 0` → bucket 0, else bucket `⌊log₂ v⌋ + 1`).
const HISTOGRAM_BUCKETS: usize = 64;

/// Sliding-window slots per histogram (ring of time slices): 64 × 15 s ≈
/// 16 minutes of recent history. The `/metrics` `_window` summaries read
/// it (the `midas_sli_read_ns_window` read latency among them), so they
/// describe the last quarter hour rather than the whole process lifetime.
pub const WINDOW_SLOTS: usize = 64;

/// Seconds each window slot covers. The live window therefore spans up to
/// `WINDOW_SLOTS × WINDOW_SLOT_SECS` seconds (and at least one slot less,
/// since the newest slot is still filling).
pub const WINDOW_SLOT_SECS: u64 = 15;

/// Slot tick sentinel: "this slot has never been written".
const TICK_EMPTY: u64 = u64::MAX;

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The current window tick (seconds since process start, in
/// [`WINDOW_SLOT_SECS`] units).
pub fn current_tick() -> u64 {
    process_epoch().elapsed().as_secs() / WINDOW_SLOT_SECS
}

thread_local! {
    /// Dense per-thread index used as the Chrome-trace tid.
    static THREAD_INDEX: usize = next_thread_index();
}

fn next_thread_index() -> usize {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) as usize
}

/// The dense index of the calling thread (also the Chrome-trace `tid`).
pub(crate) fn thread_index() -> usize {
    THREAD_INDEX.with(|i| *i)
}

/// A monotonically increasing sum in one atomic.
#[derive(Debug)]
pub struct Counter {
    total: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter {
            total: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.total.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` value (stored as bits in one atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// One set of log₂ buckets with exact count/sum/max — the storage shared
/// by a histogram's lifetime totals and each of its window slots.
#[derive(Debug)]
struct BucketSet {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl BucketSet {
    fn new() -> Self {
        BucketSet {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn totals(&self) -> (u64, u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let (count, sum, max) = self.totals();
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets: nonempty_buckets(self.buckets.iter().map(|b| b.load(Ordering::Relaxed))),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Index of the bucket `v` falls in: 0 for 0, else `⌊log₂ v⌋ + 1`.
/// Bucket `i > 0` therefore covers `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// Per-bucket counts (indexed by bucket) as the non-empty
/// `(inclusive upper bound, count)` pairs, ascending.
fn nonempty_buckets(counts: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(i, n)| (bucket_upper(i), n))
        .collect()
}

/// One time slice of a histogram's sliding window.
#[derive(Debug)]
struct WindowSlot {
    /// The tick this slot currently holds, or [`TICK_EMPTY`].
    tick: AtomicU64,
    set: BucketSet,
}

/// A log₂-bucketed histogram of `u64` samples with exact count/sum/max
/// plus a sliding-window ring for recency-scoped quantiles.
///
/// The window is *lock-light and approximate*: slot rotation resets a slot
/// with a CAS on its tick, so a sample racing the reset at a slot boundary
/// may be dropped from (or double-counted in) the window — never from the
/// lifetime totals. Telemetry tolerates this; correctness code must not
/// read windows.
#[derive(Debug)]
pub struct Histogram {
    base: BucketSet,
    window: [WindowSlot; WINDOW_SLOTS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            base: BucketSet::new(),
            window: std::array::from_fn(|_| WindowSlot {
                tick: AtomicU64::new(TICK_EMPTY),
                set: BucketSet::new(),
            }),
        }
    }

    /// Records one sample into the lifetime totals and the current window
    /// slot.
    #[inline]
    pub fn record(&self, v: u64) {
        self.base.record(v);
        self.record_windowed_at(v, current_tick());
    }

    /// Records only into the window ring, at an explicit tick. Exposed so
    /// tests can drive slot rotation deterministically.
    pub fn record_windowed_at(&self, v: u64, tick: u64) {
        let slot = &self.window[(tick % WINDOW_SLOTS as u64) as usize];
        let seen = slot.tick.load(Ordering::Acquire);
        if seen != tick {
            // This slot holds a stale slice (≥ WINDOW_SLOTS ticks old);
            // whoever wins the CAS clears it for the new tick.
            if slot
                .tick
                .compare_exchange(seen, tick, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                slot.set.reset();
            }
        }
        slot.set.record(v);
    }

    /// `(count, sum, max)` over the histogram's lifetime.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.base.totals()
    }

    /// The lifetime totals and non-empty buckets, ascending.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.base.snapshot()
    }

    /// Aggregate over the live sliding window — what the last
    /// ~`WINDOW_SLOTS × WINDOW_SLOT_SECS` seconds recorded.
    pub fn windowed(&self) -> HistogramSnapshot {
        self.windowed_at(current_tick())
    }

    /// Window aggregate as seen at an explicit tick (slots older than
    /// `WINDOW_SLOTS` ticks are excluded). Exposed for deterministic tests.
    pub fn windowed_at(&self, now: u64) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut agg = HistogramSnapshot::default();
        for slot in &self.window {
            let tick = slot.tick.load(Ordering::Acquire);
            if tick == TICK_EMPTY || tick > now || now - tick >= WINDOW_SLOTS as u64 {
                continue;
            }
            let (count, sum, max) = slot.set.totals();
            agg.count += count;
            agg.sum += sum;
            agg.max = agg.max.max(max);
            for (i, b) in slot.set.buckets.iter().enumerate() {
                buckets[i] += b.load(Ordering::Relaxed);
            }
        }
        agg.buckets = nonempty_buckets(buckets);
        agg
    }

    /// Zeroes the lifetime totals and every window slot. Public so tests
    /// (and the integration suite) can isolate window-rotation scenarios.
    pub fn reset(&self) {
        self.base.reset();
        for slot in &self.window {
            slot.tick.store(TICK_EMPTY, Ordering::Release);
            slot.set.reset();
        }
    }
}

/// The process-wide registry of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    gauges: RwLock<BTreeMap<String, &'static Gauge>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
    spans: RwLock<BTreeMap<String, &'static Histogram>>,
}

fn lookup_or_register<T>(
    map: &RwLock<BTreeMap<String, &'static T>>,
    name: &str,
    make: fn() -> T,
) -> &'static T {
    if let Some(&m) = map.read().expect("registry lock").get(name) {
        return m;
    }
    let mut w = map.write().expect("registry lock");
    w.entry(name.to_owned())
        .or_insert_with(|| Box::leak(Box::new(make())))
}

impl Registry {
    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        lookup_or_register(&self.counters, name, Counter::new)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        lookup_or_register(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        lookup_or_register(&self.histograms, name, Histogram::new)
    }

    /// The duration histogram (µs) of the span named `name`, registering
    /// it on first use. Span names and histogram names do not collide.
    pub fn span(&self, name: &str) -> &'static Histogram {
        lookup_or_register(&self.spans, name, Histogram::new)
    }

    /// Visits every registered counter.
    pub fn for_each_counter(&self, mut f: impl FnMut(&str, &Counter)) {
        for (name, c) in self.counters.read().expect("registry lock").iter() {
            f(name, c);
        }
    }

    /// Visits every registered gauge.
    pub fn for_each_gauge(&self, mut f: impl FnMut(&str, &Gauge)) {
        for (name, g) in self.gauges.read().expect("registry lock").iter() {
            f(name, g);
        }
    }

    /// Visits every registered histogram.
    pub fn for_each_histogram(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (name, h) in self.histograms.read().expect("registry lock").iter() {
            f(name, h);
        }
    }

    /// Visits every registered span's duration histogram.
    pub fn for_each_span(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (name, s) in self.spans.read().expect("registry lock").iter() {
            f(name, s);
        }
    }

    /// Zeroes every registered metric (names stay registered).
    pub fn reset(&self) {
        self.for_each_counter(|_, c| c.reset());
        self.for_each_gauge(|_, g| g.reset());
        self.for_each_histogram(|_, h| h.reset());
        self.for_each_span(|_, s| s.reset());
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards_and_threads() {
        let c = registry().counter("test.registry.threads");
        c.reset();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn same_name_same_handle() {
        let a = registry().counter("test.registry.same") as *const Counter;
        let b = registry().counter("test.registry.same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = registry().histogram("test.registry.hist");
        h.reset();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let (count, sum, max) = h.totals();
        assert_eq!((count, sum, max), (6, 1010, 1000));
        // 0 → [0,0]; 1 → (0,1]; 2,3 → (1,3]; 4 → (3,7]; 1000 → (511,1023].
        assert_eq!(
            h.snapshot().buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]
        );
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = registry().gauge("test.registry.gauge");
        g.set(2.5);
        g.set(-0.5);
        assert_eq!(g.get(), -0.5);
    }

    #[test]
    fn span_stat_accumulates() {
        let s = registry().span("test.registry.span");
        s.reset();
        s.record(10);
        s.record(30);
        assert_eq!(s.totals(), (2, 40, 30));
        // 10 → (7,15], 30 → (15,31].
        assert_eq!(s.snapshot().buckets, vec![(15, 1), (31, 1)]);
        // A span and a histogram of the same name are two statistics.
        let h = registry().histogram("test.registry.span");
        assert!(!std::ptr::eq(s, h));
        assert_eq!(h.totals().0, 0);
    }

    #[test]
    fn window_aggregates_only_recent_slots() {
        let h = registry().histogram("test.registry.window");
        h.reset();
        // Ticks 0..3 record distinct values; at tick 3 all are in-window.
        for tick in 0..4u64 {
            h.record_windowed_at(10 * (tick + 1), tick);
        }
        let w = h.windowed_at(3);
        assert_eq!(w.count, 4);
        assert_eq!(w.sum, 10 + 20 + 30 + 40);
        assert_eq!(w.max, 40);
        // Far in the future, every slot has aged out.
        let empty = h.windowed_at(3 + WINDOW_SLOTS as u64);
        assert_eq!(empty, HistogramSnapshot::default());
    }

    #[test]
    fn window_slots_recycle_on_wraparound() {
        let h = registry().histogram("test.registry.window_wrap");
        h.reset();
        h.record_windowed_at(1, 0);
        // One full ring later the same slot is reused for the new tick;
        // the stale tick-0 slice must be dropped, not merged.
        let reuse = WINDOW_SLOTS as u64;
        h.record_windowed_at(100, reuse);
        let w = h.windowed_at(reuse);
        assert_eq!(w.count, 1);
        assert_eq!(w.sum, 100);
        assert_eq!(w.buckets, vec![(127, 1)]);
    }

    // Named for the sub-window query folded into `windowed_at`, so the
    // test id stays; what is left to pin is that every live slot counts.
    #[test]
    fn windowed_recent_scopes_to_the_requested_slots() {
        let h = registry().histogram("test.registry.window_live");
        h.reset();
        // Old traffic at ticks 10..20, a fresh burst at ticks 58..=60:
        // all of it is inside the 64-slot ring at tick 60.
        for tick in 10..20u64 {
            h.record_windowed_at(1, tick);
        }
        for tick in 58..=60u64 {
            h.record_windowed_at(1000, tick);
        }
        let w = h.windowed_at(60);
        assert_eq!(w.count, 13);
        assert_eq!(w.max, 1000);
        h.reset();
    }

    #[test]
    fn window_rotation_survives_concurrent_recording() {
        // 8 threads sweep ticks far past the ring size, so every slot is
        // reused (CAS-rotated) many times while other threads are still
        // recording into it. The documented contract: races at slot
        // boundaries may drop or double-count *window* samples, but never
        // corrupt a slot (the aggregate stays internally consistent) and
        // never touch lifetime totals.
        let h = registry().histogram("test.registry.window_race");
        h.reset();
        let (life_before, _, _) = h.totals();
        assert_eq!(life_before, 0);
        const THREADS: u64 = 8;
        const TICKS: u64 = 4 * WINDOW_SLOTS as u64; // 4 full ring laps
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for tick in 0..TICKS {
                        h.record_windowed_at(t + 1, tick);
                    }
                });
            }
        });
        // Lifetime totals are untouched: record_windowed_at feeds only the
        // ring.
        assert_eq!(h.totals(), (0, 0, 0));
        // The final lap's slots survive; earlier laps were rotated away.
        // Window counts are approximate under racing rotation, but bounded:
        // never more than everything recorded, and the last tick of the
        // sweep (rotated last) retains at least one sample.
        let w = h.windowed_at(TICKS - 1);
        assert!(w.count >= 1, "final lap left samples behind");
        assert!(
            w.count <= THREADS * TICKS,
            "count bounded by total recorded"
        );
        assert!(w.max <= THREADS, "only recorded values appear");
        // count vs Σbuckets may diverge by the records that raced a slot
        // reset (each race skews one slot by at most one sample per racing
        // thread) — bounded, not exact.
        let bucket_total: u64 = w.buckets.iter().map(|(_, n)| n).sum();
        assert!(bucket_total <= THREADS * TICKS);
        let skew = bucket_total.abs_diff(w.count);
        assert!(
            skew <= THREADS * WINDOW_SLOTS as u64,
            "slot-boundary skew {skew} exceeds the per-race bound"
        );
        h.reset();
    }

    #[test]
    fn record_feeds_both_lifetime_and_window() {
        let h = registry().histogram("test.registry.window_live");
        h.reset();
        h.record(5);
        h.record(9);
        let (count, sum, _) = h.totals();
        assert_eq!((count, sum), (2, 14));
        let w = h.windowed();
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 14);
    }
}
