//! Point-in-time snapshots of the metrics registry, with delta
//! arithmetic. [`crate::prom::render`] is their text form.

use crate::registry::registry;
use std::collections::BTreeMap;
use std::time::Duration;

/// Snapshot of one histogram: a registry histogram or a span's durations
/// (µs), over its lifetime or over a region ([`MetricsSnapshot::since`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty log₂ buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimated q-quantile, by linear interpolation inside the log₂
    /// bucket holding rank `⌈q·count⌉`.
    ///
    /// Because bucket `i > 0` spans `[2^(i-1), 2^i)`, the estimate is off
    /// by at most the bucket width: it always lands in the right bucket,
    /// so the relative error is below 2× (and the result is additionally
    /// clamped to the exact observed maximum). Returns 0 on an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(upper, n) in &self.buckets {
            if rank <= cum + n {
                let lower = if upper == 0 { 0 } else { upper.div_ceil(2) };
                let into = (rank - cum) as f64 / n as f64;
                let est = lower as f64 + (upper - lower) as f64 * into;
                return (est.round() as u64).min(self.max);
            }
            cum += n;
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The delta `self − baseline`, bucket by bucket (saturating); the
    /// count is the sum of the bucket deltas.
    fn since(&self, base: Option<&HistogramSnapshot>) -> HistogramSnapshot {
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        for &(upper, n) in &self.buckets {
            let base_n = base
                .and_then(|b| b.buckets.iter().find(|(u, _)| *u == upper))
                .map_or(0, |(_, n)| *n);
            let d = n.saturating_sub(base_n);
            if d > 0 {
                buckets.push((upper, d));
            }
        }
        HistogramSnapshot {
            count: buckets.iter().map(|(_, n)| n).sum(),
            sum: self.sum.saturating_sub(base.map_or(0, |b| b.sum)),
            max: self.max,
            buckets,
        }
    }
}

/// A point-in-time copy of every registered metric.
///
/// Captured with [`MetricsSnapshot::capture`]; two captures subtract with
/// [`MetricsSnapshot::since`] to isolate one region of work (how
/// `profile_batch` scopes a single batch). `GET /metrics` renders one with
/// [`crate::prom::render_live`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (last write wins; [`Self::since`] keeps the
    /// newer value rather than subtracting).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span duration histograms (µs) by span name.
    pub spans: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Captures the current value of every registered metric.
    pub fn capture() -> Self {
        let mut snap = MetricsSnapshot::default();
        let reg = registry();
        reg.for_each_counter(|name, c| {
            snap.counters.insert(name.to_owned(), c.get());
        });
        reg.for_each_gauge(|name, g| {
            snap.gauges.insert(name.to_owned(), g.get());
        });
        reg.for_each_histogram(|name, h| {
            snap.histograms.insert(name.to_owned(), h.snapshot());
        });
        reg.for_each_span(|name, h| {
            snap.spans.insert(name.to_owned(), h.snapshot());
        });
        snap
    }

    /// The delta `self − baseline`: counters and histogram counts, sums
    /// and buckets subtract (saturating), gauges and maxima keep `self`'s
    /// value. Metrics absent from `baseline` pass through unchanged;
    /// zero-delta entries are dropped so a batch snapshot lists only what
    /// the batch touched. Every delta is exact: a histogram's count, sum
    /// and buckets are the region's own samples. Its `max` is `self`'s
    /// lifetime maximum.
    pub fn since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(baseline.counters.get(name).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        out.gauges = self.gauges.clone();
        for (mine, base, into) in [
            (&self.histograms, &baseline.histograms, &mut out.histograms),
            (&self.spans, &baseline.spans, &mut out.spans),
        ] {
            for (name, h) in mine {
                let delta = h.since(base.get(name));
                if delta.count > 0 {
                    into.insert(name.clone(), delta);
                }
            }
        }
        out
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// The named span's duration histogram, µs (zeroed when absent).
    pub fn span(&self, name: &str) -> HistogramSnapshot {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// The named histogram (zeroed when absent) — e.g.
    /// `snapshot.histogram("vf2.search_ns").quantile(0.99)`.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Sum of the named spans' durations — e.g. the Algorithm-1 phase
    /// roll-up compared against PMT.
    pub fn span_total(&self, names: &[&str]) -> Duration {
        Duration::from_micros(names.iter().map(|n| self.span(n).sum).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;

    #[test]
    fn snapshot_delta_isolates_a_region() {
        let _g = exclusive();
        crate::set_enabled(true);
        crate::counter_add!("test.snap.delta", 10);
        let base = MetricsSnapshot::capture();
        crate::counter_add!("test.snap.delta", 7);
        {
            let _s = crate::span!("test.snap.span");
        }
        let delta = MetricsSnapshot::capture().since(&base);
        crate::set_enabled(false);
        assert_eq!(delta.counter("test.snap.delta"), 7);
        assert_eq!(delta.span("test.snap.span").count, 1);
        // Untouched metrics do not appear in the delta.
        assert!(!delta.counters.contains_key("test.lib.enabled"));
    }

    #[test]
    fn empty_snapshot_serializes() {
        assert_eq!(crate::prom::render(&MetricsSnapshot::default()), "");
    }

    #[test]
    fn span_total_sums_phases() {
        let mut snap = MetricsSnapshot::default();
        snap.spans.insert(
            "a".into(),
            HistogramSnapshot {
                count: 1,
                sum: 30,
                max: 30,
                buckets: vec![(31, 1)],
            },
        );
        snap.spans.insert(
            "b".into(),
            HistogramSnapshot {
                count: 2,
                sum: 70,
                max: 50,
                buckets: vec![(31, 1), (63, 1)],
            },
        );
        assert_eq!(
            snap.span_total(&["a", "b", "missing"]),
            Duration::from_micros(100)
        );
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        // 100 samples of 10 and 1 sample of 1000:
        //   p50 falls in the (7,15] bucket holding the 10s,
        //   p99 still falls there (rank 100 of 101),
        //   p100 → the 1000 outlier's bucket, clamped to the exact max.
        let mut h = HistogramSnapshot {
            count: 101,
            sum: 100 * 10 + 1000,
            max: 1000,
            buckets: vec![(15, 100), (1023, 1)],
        };
        let p50 = h.p50();
        assert!((8..=15).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((8..=15).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000, "clamped to observed max");
        // Empty histogram: all quantiles are 0, never NaN or a panic.
        h.count = 0;
        h.buckets.clear();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn quantile_error_stays_within_one_bucket() {
        // The documented bound: the estimate lands in the same log₂ bucket
        // as the true quantile, so it is within 2× of the true value.
        let mut h = HistogramSnapshot::default();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            let upper = if v == 0 {
                0
            } else {
                (1u64 << (64 - v.leading_zeros())) - 1
            };
            match h.buckets.iter_mut().find(|(u, _)| *u == upper) {
                Some((_, n)) => *n += 1,
                None => h.buckets.push((upper, 1)),
            }
            h.count += 1;
            h.sum += v;
            h.max = h.max.max(v);
        }
        h.buckets.sort_unstable();
        for q in [0.5f64, 0.9, 0.99] {
            let exact = values[((q * 1000.0).ceil() as usize - 1).min(999)];
            let est = h.quantile(q);
            assert!(
                est >= exact / 2 && est <= exact.saturating_mul(2),
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn since_counts_the_region_and_renders() {
        let _g = exclusive();
        let s = registry().span("test.snap.region_span");
        s.reset();
        crate::set_enabled(true);
        crate::histogram_record!("test.snap.region", 42);
        s.record(5);
        let baseline = MetricsSnapshot::capture();
        crate::histogram_record!("test.snap.region", 43);
        crate::histogram_record!("test.snap.region", 100);
        s.record(20);
        let snap = MetricsSnapshot::capture();
        crate::set_enabled(false);
        // The delta holds the region's samples and nothing from before
        // the baseline: 43 → (31,63], 100 → (63,127], 20 → (15,31].
        let delta = snap.since(&baseline);
        let h = delta.histogram("test.snap.region");
        assert_eq!((h.count, h.sum, h.max), (2, 143, 100));
        assert_eq!(h.buckets, vec![(63, 1), (127, 1)]);
        let span = delta.span("test.snap.region_span");
        assert_eq!((span.count, span.sum), (1, 20));
        assert_eq!(span.buckets, vec![(31, 1)]);
        // A region that recorded nothing keeps no family.
        let none = snap.since(&snap);
        assert!(none.histograms.is_empty() && none.spans.is_empty());
        let doc = crate::prom::render(&delta);
        assert!(doc.contains("midas_test_snap_region_count 2"), "{doc}");
        assert!(doc.contains("midas_test_snap_region_sum 143"), "{doc}");
        assert!(
            doc.contains("midas_span_test_snap_region_span_duration_us_sum 20"),
            "{doc}"
        );
        s.reset();
    }
}
