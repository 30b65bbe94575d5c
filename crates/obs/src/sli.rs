//! User-facing SLIs: what the *users* of the canned pattern set
//! experience, as opposed to the maintenance-side telemetry everywhere
//! else in this crate.
//!
//! MIDAS's point is that maintained patterns keep query-formulation cost
//! low while the database evolves. Three service-level indicators make
//! that claim observable on a live process:
//!
//! * **Formulation-cost reduction** — per query, steps to formulate
//!   against the *live* (maintained) pattern set vs against a *frozen*
//!   no-maintenance baseline set captured at bootstrap. Aggregated,
//!   `reduction = 1 − Σ steps_live / Σ steps_baseline` (1 would mean
//!   maintenance made formulation free, 0 means no help, negative means
//!   maintenance hurt).
//! * **Pattern staleness** — when a user formulates against a snapshot it
//!   read earlier, how far behind is that snapshot: `batches_behind`
//!   (publication epochs elapsed) and the graphlet-distribution drift
//!   between the snapshot's database view and the latest one (the same
//!   distance that classifies modifications, recorded here in millionths
//!   so a log₂ histogram can hold it).
//! * **Read / formulation latency** — end-to-end time for a snapshot read
//!   and for one query formulation, as histograms with lifetime and
//!   sliding-window quantiles.
//!
//! Every sample lands in the global [`crate::registry`] under `sli.*`
//! names, so the existing exporters pick it up for free: Prometheus
//! serves `midas_sli_*` families (histograms and windows) on `/metrics`,
//! and [`render_json`] (the `GET /sli` endpoint) serves the digest. Per-tick summaries additionally go to a bounded
//! ring here (mirrored into the flight recorder as `sli.tick` events) so
//! `/sli` can show the recent trajectory, not just totals. The serving
//! daemon is the producer: `POST /v1/{t}/querylog` records one sample per
//! query, and each batch a tenant applies closes one tick.
//!
//! Like every probe in this crate, recording is gated on
//! [`crate::enabled`] and costs one relaxed load when telemetry is off.

use crate::json;
use crate::registry::registry;
use crate::snapshot::HistogramSnapshot;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Scale factor between a graphlet-drift distance (an `f64` in `[0, √2]`)
/// and its integer-histogram representation: drift is recorded in
/// *millionths* (`sli.staleness_drift_micro`).
pub const DRIFT_MICRO: f64 = 1e6;

/// How many per-tick summaries the ring keeps for `/sli`.
pub const TICK_CAPACITY: usize = 128;

/// One formulated query, as experienced by a user of the pattern panel.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuerySample {
    /// Time to read the pattern snapshot, nanoseconds.
    pub read_ns: u64,
    /// Time to formulate the query against the live snapshot, nanoseconds.
    pub formulate_ns: u64,
    /// Formulation steps against the live (maintained) pattern set.
    pub steps_live: u64,
    /// Formulation steps against the frozen no-maintenance baseline set.
    pub steps_baseline: u64,
    /// Publication epochs between the snapshot used and the latest one.
    pub staleness_batches: u64,
    /// Graphlet drift between the used snapshot and the latest one.
    pub staleness_drift: f64,
}

/// Records one user query into the `sli.*` metrics. No-op while telemetry
/// is disabled.
pub fn record_query(s: &QuerySample) {
    if !crate::enabled() {
        return;
    }
    let reg = registry();
    reg.counter("sli.queries").add(1);
    reg.counter("sli.steps_live").add(s.steps_live);
    reg.counter("sli.steps_baseline").add(s.steps_baseline);
    reg.histogram("sli.read_ns").record(s.read_ns);
    reg.histogram("sli.formulate_ns").record(s.formulate_ns);
    reg.histogram("sli.staleness_batches")
        .record(s.staleness_batches);
    reg.histogram("sli.staleness_drift_micro")
        .record((s.staleness_drift.max(0.0) * DRIFT_MICRO) as u64);
    reg.gauge("sli.formulation_reduction")
        .set(reduction_from_steps(
            reg.counter("sli.steps_live").get(),
            reg.counter("sli.steps_baseline").get(),
        ));
}

/// `1 − live/baseline`, guarded: a zero baseline (no queries yet, or only
/// empty queries) yields 0.0, never NaN/∞.
pub fn reduction_from_steps(steps_live: u64, steps_baseline: u64) -> f64 {
    if steps_baseline == 0 {
        0.0
    } else {
        1.0 - steps_live as f64 / steps_baseline as f64
    }
}

/// Aggregate of one tick: the queries logged against one tenant since its
/// previous batch, closed when its next batch applies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickSummary {
    /// Tick number (1-based, process lifetime, across every tenant);
    /// assigned by [`record_tick`].
    pub tick: u64,
    /// Pattern-snapshot epoch the closing batch published.
    pub epoch: u64,
    /// Queries formulated during the tick.
    pub queries: u64,
    /// Sum of live-set formulation steps during the tick.
    pub steps_live: u64,
    /// Sum of baseline-set formulation steps during the tick.
    pub steps_baseline: u64,
    /// `1 − steps_live/steps_baseline` for this tick alone.
    pub reduction: f64,
    /// Worst "batches behind" any query in the tick observed.
    pub staleness_batches_max: u64,
    /// Worst graphlet drift any query in the tick observed.
    pub staleness_drift_max: f64,
    /// Wall-clock at the end of the tick (unix ms).
    pub unix_ms: u64,
}

/// The recent ticks plus the number the next one gets.
struct TickRing {
    ticks: VecDeque<TickSummary>,
    next: u64,
}

fn tick_ring() -> &'static Mutex<TickRing> {
    static RING: Mutex<TickRing> = Mutex::new(TickRing {
        ticks: VecDeque::new(),
        next: 1,
    });
    &RING
}

/// Records one per-tick summary: ring + `sli.ticks` counter + reduction
/// gauge + one flight-recorder event. No-op while telemetry is disabled.
///
/// The caller's `tick` is overwritten with the next process-lifetime
/// number, taken under the ring lock, so the ring stays in `tick` order
/// even when several tenants close ticks concurrently.
///
/// A zero-baseline tick (empty query pool, zero-query tick) computed
/// naively as `1 − live/baseline` arrives as NaN or ±∞; both fields are
/// sanitized to `0.0` here so the gauge, the tick ring, the `/sli` JSON
/// and the `midas_sli_*` exposition stay finite no matter what the
/// producer handed over.
pub fn record_tick(t: TickSummary) {
    if !crate::enabled() {
        return;
    }
    let mut t = t;
    if !t.reduction.is_finite() {
        t.reduction = 0.0;
    }
    if !t.staleness_drift_max.is_finite() {
        t.staleness_drift_max = 0.0;
    }
    {
        let mut ring = tick_ring().lock().unwrap_or_else(|e| e.into_inner());
        t.tick = ring.next;
        ring.next += 1;
        if ring.ticks.len() == TICK_CAPACITY {
            ring.ticks.pop_front();
        }
        ring.ticks.push_back(t);
    }
    registry().counter("sli.ticks").add(1);
    registry().gauge("sli.tick_reduction").set(t.reduction);
    crate::flight::record_event(
        "sli.tick",
        format!(
            "tick {} epoch {}: {} queries, reduction {:.4}, staleness ≤ {} batches / {:.6} drift",
            t.tick, t.epoch, t.queries, t.reduction, t.staleness_batches_max, t.staleness_drift_max
        ),
    );
}

/// The recorded tick summaries, oldest first.
pub fn ticks() -> Vec<TickSummary> {
    tick_ring()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .ticks
        .iter()
        .copied()
        .collect()
}

/// Clears the tick ring and restarts numbering at 1 (tests; the
/// counters/histograms are reset through the registry as usual).
pub fn clear_ticks() {
    let mut ring = tick_ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.ticks.clear();
    ring.next = 1;
}

/// Lifetime + windowed snapshot of one `sli.*` histogram.
fn hist(name: &str) -> (HistogramSnapshot, HistogramSnapshot) {
    let h = registry().histogram(name);
    (h.snapshot(), h.windowed())
}

fn quantile_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
        h.count,
        h.p50(),
        h.p99(),
        h.max
    )
}

fn tick_json(t: &TickSummary) -> String {
    format!(
        "{{\"tick\": {}, \"epoch\": {}, \"queries\": {}, \"steps_live\": {}, \"steps_baseline\": {}, \"reduction\": {}, \"staleness_batches_max\": {}, \"staleness_drift_max\": {}, \"unix_ms\": {}}}",
        t.tick,
        t.epoch,
        t.queries,
        t.steps_live,
        t.steps_baseline,
        json::number(t.reduction),
        t.staleness_batches_max,
        json::number(t.staleness_drift_max),
        t.unix_ms
    )
}

/// Renders the `GET /sli` document: cumulative reduction, staleness and
/// latency quantiles (lifetime and sliding-window), and the recent
/// per-tick trajectory.
pub fn render_json() -> String {
    let reg = registry();
    let queries = reg.counter("sli.queries").get();
    let ticks_total = reg.counter("sli.ticks").get();
    let steps_live = reg.counter("sli.steps_live").get();
    let steps_baseline = reg.counter("sli.steps_baseline").get();
    let (read_life, read_win) = hist("sli.read_ns");
    let (form_life, form_win) = hist("sli.formulate_ns");
    let (stale_b, _) = hist("sli.staleness_batches");
    let (stale_d, _) = hist("sli.staleness_drift_micro");
    let recent = ticks();
    let last = recent.last().copied();
    format!(
        "{{\n  \"ticks\": {},\n  \"queries\": {},\n  \"steps_live\": {},\n  \"steps_baseline\": {},\n  \"reduction\": {{\"cumulative\": {}, \"last_tick\": {}}},\n  \"staleness\": {{\"batches\": {}, \"drift_micro\": {}}},\n  \"latency_ns\": {{\"read\": {}, \"formulate\": {}, \"read_window\": {}, \"formulate_window\": {}}},\n  \"recent_ticks\": [{}]\n}}\n",
        ticks_total,
        queries,
        steps_live,
        steps_baseline,
        json::number(reduction_from_steps(steps_live, steps_baseline)),
        json::number(last.map_or(0.0, |t| t.reduction)),
        quantile_json(&stale_b),
        quantile_json(&stale_d),
        quantile_json(&read_life),
        quantile_json(&form_life),
        quantile_json(&read_win),
        quantile_json(&form_win),
        recent
            .iter()
            .map(tick_json)
            .collect::<Vec<_>>()
            .join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // `sli.*` metrics are process-global and other tests may touch them;
    // these tests assert deltas, not absolutes, and serialize through
    // `crate::tests::exclusive()`.

    #[test]
    fn reduction_guards_zero_baseline() {
        assert_eq!(reduction_from_steps(10, 0), 0.0);
        assert_eq!(reduction_from_steps(0, 0), 0.0);
        assert!((reduction_from_steps(5, 10) - 0.5).abs() < 1e-12);
        assert!(reduction_from_steps(20, 10) < 0.0, "maintenance can hurt");
        assert!(reduction_from_steps(10, 0).is_finite());
    }

    #[test]
    fn record_query_feeds_registry_and_render() {
        let _g = crate::tests::exclusive();
        crate::set_enabled(true);
        let before = registry().counter("sli.queries").get();
        record_query(&QuerySample {
            read_ns: 120,
            formulate_ns: 45_000,
            steps_live: 3,
            steps_baseline: 9,
            staleness_batches: 2,
            staleness_drift: 0.0125,
        });
        crate::set_enabled(false);
        assert_eq!(registry().counter("sli.queries").get(), before + 1);
        let (life, _) = hist("sli.read_ns");
        assert!(life.count >= 1);
        let doc = render_json();
        json::validate(&doc).expect("sli JSON validates");
        assert!(doc.contains("\"reduction\""), "{doc}");
        assert!(doc.contains("\"latency_ns\""), "{doc}");
        assert!(doc.contains("\"staleness\""), "{doc}");
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let _g = crate::tests::exclusive();
        crate::set_enabled(false);
        let before = registry().counter("sli.queries").get();
        record_query(&QuerySample::default());
        record_tick(TickSummary::default());
        assert_eq!(registry().counter("sli.queries").get(), before);
    }

    #[test]
    fn tick_ring_bounds_and_orders() {
        let _g = crate::tests::exclusive();
        crate::set_enabled(true);
        clear_ticks();
        for i in 0..(TICK_CAPACITY as u64 + 10) {
            record_tick(TickSummary {
                tick: i + 1,
                queries: 1,
                reduction: 0.25,
                ..TickSummary::default()
            });
        }
        crate::set_enabled(false);
        let t = ticks();
        assert_eq!(t.len(), TICK_CAPACITY, "ring is bounded");
        assert_eq!(t.last().unwrap().tick, TICK_CAPACITY as u64 + 10);
        assert!(t.windows(2).all(|w| w[0].tick < w[1].tick));
        let doc = render_json();
        json::validate(&doc).expect("sli JSON validates");
        assert!(doc.contains("\"last_tick\": 0.25"), "{doc}");
        clear_ticks();
    }

    #[test]
    fn concurrent_producers_get_ordered_tick_numbers() {
        // Two tenants closing ticks at once, each handing over its own
        // numbering: the ring numbers them itself, in ring order.
        let _g = crate::tests::exclusive();
        crate::set_enabled(true);
        clear_ticks();
        std::thread::scope(|scope| {
            for epoch in [1u64, 2] {
                scope.spawn(move || {
                    for i in 0..50u64 {
                        record_tick(TickSummary {
                            tick: 50 - i,
                            epoch,
                            ..TickSummary::default()
                        });
                    }
                });
            }
        });
        crate::set_enabled(false);
        let numbers: Vec<u64> = ticks().iter().map(|t| t.tick).collect();
        assert_eq!(numbers, (1..=100).collect::<Vec<u64>>());
        clear_ticks();
    }

    #[test]
    fn zero_baseline_tick_stays_finite_everywhere() {
        // A tick that saw no baseline steps (empty pool / zero-query
        // tick): the naive `1 - live/baseline` is NaN (0/0) or -inf
        // (live>0, baseline 0). Whatever the producer computed, the
        // recorded tick, the `/sli` JSON and the Prometheus gauge must
        // all stay finite.
        let _g = crate::tests::exclusive();
        crate::set_enabled(true);
        clear_ticks();
        for bad in [f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            record_tick(TickSummary {
                tick: 1,
                queries: 0,
                steps_live: 0,
                steps_baseline: 0,
                reduction: bad,
                staleness_drift_max: bad,
                ..TickSummary::default()
            });
        }
        crate::set_enabled(false);
        for t in ticks() {
            assert_eq!(t.reduction, 0.0, "sanitized in the ring");
            assert_eq!(t.staleness_drift_max, 0.0);
        }
        assert_eq!(
            registry().gauge("sli.tick_reduction").get(),
            0.0,
            "gauge sanitized"
        );
        let doc = render_json();
        json::validate(&doc).expect("sli JSON validates");
        for token in ["NaN", "nan", "inf"] {
            assert!(!doc.contains(token), "{token} leaked into /sli: {doc}");
        }
        let prom = crate::prom::render(&crate::snapshot::MetricsSnapshot::capture());
        for line in prom
            .lines()
            .filter(|l| !l.starts_with('#') && l.contains("sli_tick_reduction"))
        {
            if let Some((_, v)) = line.rsplit_once(' ') {
                assert!(
                    v.parse::<f64>().map(f64::is_finite).unwrap_or(false),
                    "{line}"
                );
            }
        }
        clear_ticks();
    }

    #[test]
    fn render_is_valid_json_when_empty() {
        let _g = crate::tests::exclusive();
        clear_ticks();
        let doc = render_json();
        json::validate(&doc).expect("empty sli JSON validates");
        assert!(doc.contains("\"recent_ticks\": []"), "{doc}");
    }
}
