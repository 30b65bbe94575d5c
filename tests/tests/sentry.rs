//! The regression-sentry layer, end to end: tail-latency exemplars must
//! stay deterministic and carry (pattern, graph) attribution out of the
//! plan matcher, and an injected `MIDAS_FAULT=slow:US` must show up in
//! `/slow`, `/metrics` and `/healthz` within two batches.
//!
//! Telemetry, the fault injector and the exemplar reservoirs are all
//! process-global, so every test here holds a shared lock and restores
//! the defaults before releasing it.

use midas_core::framework::Midas;
use midas_graph::exec::set_fault_for_tests;
use midas_graph::BatchUpdate;
use midas_obs::json::{self, Value};
use midas_obs::registry::registry;
use midas_obs::{exemplar, Env, TelemetryConfig};
use midas_serve::{ServeConfig, ServeDaemon};
use midas_tests::{exclusive, http_get, seed_db, test_config, wave};

/// The injected delay, µs: every `batch.index` span must last at least
/// this long.
const SLOW_US: u64 = 200_000;

#[test]
fn exemplar_reservoir_is_deterministic_under_interleaving() {
    let _g = exclusive();
    midas_obs::set_enabled(true);
    let series = exemplar::series("sentry.ex_ns", "ns");
    series.reset();

    // Offer 40 distinct values in a scrambled order; the reservoir must
    // converge to the same top-K regardless of arrival order.
    let mut values: Vec<u64> = (1..=40).map(|i| i * 1_000).collect();
    let mid = values.len() / 2;
    values.rotate_left(7);
    values.swap(0, mid);
    for &v in &values {
        series.offer(v);
    }
    midas_obs::set_enabled(false);

    assert_eq!(series.offered(), 40);
    let top = series.top();
    assert_eq!(top.len(), exemplar::RESERVOIR_K);
    let got: Vec<u64> = top.iter().map(|e| e.value).collect();
    let want: Vec<u64> = (0..exemplar::RESERVOIR_K as u64)
        .map(|i| (40 - i) * 1_000)
        .collect();
    assert_eq!(got, want, "top-K is the K largest, sorted descending");
    series.reset();
}

#[test]
fn injected_slowdown_shows_in_slow_metrics_and_healthz() {
    let _g = exclusive();
    // The documented fault-injection path: the settings parse from the
    // same `MIDAS_*` spellings an operator exports, and flow through
    // TelemetryConfig::with_env, which the host activates.
    let server = ServeDaemon::start(ServeConfig::default()).expect("bind daemon");
    let addr = server.addr();
    let (env, warnings) = Env::parse([("MIDAS_FAULT", "slow:200000")]); // +200 ms in batch.index
    assert!(warnings.is_empty(), "{warnings:?}");
    set_fault_for_tests(env.fault);
    registry().span("batch.index").reset();
    exemplar::series("batch.index", "us").reset();

    TelemetryConfig {
        enabled: true,
        ..TelemetryConfig::default()
    }
    .with_env(&env)
    .activate();
    let mut midas = Midas::bootstrap(seed_db(), test_config(7)).unwrap();

    // Two batches, each sleeping 200 ms inside the batch.index span.
    for i in 0..2u32 {
        midas.apply_batch(BatchUpdate::insert_only(wave(i)));
    }
    set_fault_for_tests(None);

    // /slow names batch.index as the slow phase: its top exemplar holds
    // the injected delay.
    let (status, body) = http_get(addr, "/slow");
    assert_eq!(status, 200);
    json::validate(&body).expect("slow JSON validates");
    let doc = Value::parse(&body).expect("slow JSON parses");
    let top = doc
        .get("series")
        .and_then(|s| s.get("batch.index"))
        .and_then(|s| s.get("top"))
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("batch.index series in /slow:\n{body}"));
    let slowest = top
        .first()
        .and_then(|e| e.get("value"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("batch.index has an exemplar:\n{body}"));
    assert!(slowest >= SLOW_US, "top batch.index exemplar {slowest} µs");

    // /slow also attributes the slowest searches to concrete ids. The
    // kernel defaults to the plan-compiled matcher, so attribution lands
    // on its series.
    assert!(body.contains("\"plan.search_ns\""), "{body}");
    let attributed = exemplar::series("plan.search_ns", "ns")
        .top()
        .iter()
        .any(|e| e.pattern().is_some() && e.graph().is_some());
    assert!(attributed, "at least one exemplar carries (pattern, graph)");

    // /metrics carries the batch.index span summary, whose max is the
    // injected delay.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let max: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("midas_span_batch_index_duration_us_max "))
        .unwrap_or_else(|| panic!("batch.index span summary in /metrics:\n{body}"))
        .parse()
        .expect("numeric max");
    assert!(max >= SLOW_US, "batch.index span max {max} µs");
    assert!(
        body.contains("midas_span_batch_index_duration_us{quantile=\"0.5\"}"),
        "batch.index span quantiles in /metrics"
    );

    // /healthz reports the slow last batch.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    json::validate(&body).expect("healthz is valid JSON");
    let doc = Value::parse(&body).expect("healthz JSON parses");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    let pmt_us = doc
        .get("last_batch")
        .and_then(|b| b.get("pmt_us"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("last_batch.pmt_us in /healthz: {body}"));
    assert!(pmt_us >= SLOW_US, "last batch PMT {pmt_us} µs");

    server.shutdown();
    registry().span("batch.index").reset();
    exemplar::series("batch.index", "us").reset();
    TelemetryConfig::default().activate();
}
