//! The global metrics registry: named counters, gauges and histograms
//! backed by atomics. A span's statistic is the histogram of its
//! completion durations in microseconds, kept in a namespace of its own.
//! A histogram keeps one set of lifetime log₂ buckets; the distribution of
//! a region of work is the difference of two captures
//! ([`crate::MetricsSnapshot::since`]).
//!
//! Metric handles are `&'static` — registered once (the maps leak their
//! values deliberately; the set of metric names is small and fixed by the
//! instrumentation sites) and then shared lock-free. The handle maps are
//! only locked on first registration and at snapshot time.

use crate::snapshot::HistogramSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Histogram bucket count: bucket `i` holds values whose bit length is `i`
/// (i.e. `v == 0` → bucket 0, else bucket `⌊log₂ v⌋ + 1`).
const HISTOGRAM_BUCKETS: usize = 64;

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

/// A log₂-bucketed histogram of `u64` samples with exact count/sum/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// `(count, sum, max)` over the histogram's lifetime.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// The lifetime totals and the non-empty buckets as
    /// `(inclusive upper bound, count)` pairs, ascending.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let (count, sum, max) = self.totals();
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (bucket_upper(i), b.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }

    /// Zeroes the histogram. Public so tests (and the integration suite)
    /// can start a family from nothing.
    pub fn reset(&self) {
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
    fn counter_sums_across_threads() {
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
    fn span_histogram_accumulates() {
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
}
