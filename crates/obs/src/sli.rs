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
//!   and for one query formulation, as histograms with lifetime
//!   quantiles.
//!
//! Every sample lands in the global [`crate::registry`] under `sli.*`
//! names, and that is the one SLI record: `/metrics` serves it as the
//! `midas_sli_*` families (counters, the reduction gauge and lifetime
//! summaries). The serving daemon is the producer: `POST
//! /v1/{t}/querylog` records one sample per query.
//!
//! Like every probe in this crate, recording is gated on
//! [`crate::enabled`] and costs one relaxed load when telemetry is off.

use crate::registry::registry;

/// Scale factor between a graphlet-drift distance (an `f64` in `[0, √2]`)
/// and its integer-histogram representation: drift is recorded in
/// *millionths* (`sli.staleness_drift_micro`).
pub const DRIFT_MICRO: f64 = 1e6;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom;
    use crate::snapshot::MetricsSnapshot;

    // `sli.*` metrics are process-global and other tests may touch them;
    // these tests assert deltas, not absolutes, and serialize through
    // `crate::tests::exclusive()`.

    /// The unlabeled sample `name` of a `/metrics` body.
    fn sample(body: &str, name: &str) -> Option<f64> {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .map(|v| v.parse().expect("numeric sample"))
    }

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
        let before = prom::render(&MetricsSnapshot::capture());
        crate::set_enabled(true);
        record_query(&QuerySample {
            read_ns: 120,
            formulate_ns: 45_000,
            steps_live: 3,
            steps_baseline: 9,
            staleness_batches: 2,
            staleness_drift: 0.0125,
        });
        crate::set_enabled(false);
        let after = prom::render(&MetricsSnapshot::capture());
        let delta =
            |name: &str| sample(&after, name).expect(name) - sample(&before, name).unwrap_or(0.0);
        assert_eq!(delta("midas_sli_queries"), 1.0);
        assert_eq!(delta("midas_sli_steps_live"), 3.0);
        assert_eq!(delta("midas_sli_steps_baseline"), 9.0);
        for family in [
            "midas_sli_read_ns",
            "midas_sli_formulate_ns",
            "midas_sli_staleness_batches",
            "midas_sli_staleness_drift_micro",
        ] {
            assert_eq!(delta(&format!("{family}_count")), 1.0, "{family}");
            assert!(
                after.contains(&format!("{family}{{quantile=\"0.99\"}}")),
                "{family}: {after}"
            );
        }
        assert!(sample(&after, "midas_sli_formulation_reduction").is_some());
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let _g = crate::tests::exclusive();
        crate::set_enabled(false);
        let before = registry().counter("sli.queries").get();
        record_query(&QuerySample::default());
        assert_eq!(registry().counter("sli.queries").get(), before);
    }

    #[test]
    fn zero_baseline_reduction_stays_finite_on_metrics() {
        // A zero-step query (an empty pool) adds nothing to either sum;
        // on a zero-baseline history the naive `1 - live/baseline` is NaN,
        // so the gauge and its exposition must stay finite whatever came
        // before (`reduction_guards_zero_baseline` pins the guard itself).
        let _g = crate::tests::exclusive();
        crate::set_enabled(true);
        record_query(&QuerySample::default());
        crate::set_enabled(false);
        assert!(registry()
            .gauge("sli.formulation_reduction")
            .get()
            .is_finite());
        let body = prom::render(&MetricsSnapshot::capture());
        let value = sample(&body, "midas_sli_formulation_reduction").expect("gauge rendered");
        assert!(value.is_finite(), "{value}");
    }
}
