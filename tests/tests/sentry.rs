//! The regression-sentry layer, end to end: the cooperative profiler must
//! attribute samples to live span stacks, tail-latency exemplars must stay
//! deterministic and carry (pattern, graph) attribution out of the plan
//! matcher, the burn-rate alert windows must rotate exactly at the slot
//! boundary, and an injected `MIDAS_FAULT=slow:US` must flip `/alerts`
//! and `/healthz` to firing within two batches.
//!
//! Telemetry, the SLO config, the profiler and the exemplar reservoirs
//! are all process-global, so every test here holds a shared lock and
//! restores the defaults before releasing it.

use midas_core::framework::Midas;
use midas_graph::exec::set_fault_for_tests;
use midas_graph::BatchUpdate;
use midas_obs::alerts::{self, AlertState, SloConfig, FAST_SLOTS};
use midas_obs::registry::registry;
use midas_obs::{exemplar, json, profile, Env, TelemetryConfig};
use midas_serve::{ServeConfig, ServeDaemon};
use midas_tests::{exclusive, http_get, seed_db, test_config, wave};

#[test]
fn profiler_attributes_samples_to_nested_span_stacks() {
    let _g = exclusive();
    midas_obs::set_enabled(true);
    profile::reset();

    // A worker parked inside a nested span pair: the sampler must see the
    // full stack from another thread, folded outer-first.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let _outer = midas_obs::span!("sentry.outer");
        let _inner = midas_obs::span!("sentry.inner");
        ready_tx.send(()).unwrap();
        let _ = done_rx.recv();
    });
    ready_rx.recv().unwrap();
    let mut observed = 0;
    for _ in 0..3 {
        observed += profile::sample_once();
    }
    done_tx.send(()).unwrap();
    worker.join().unwrap();
    midas_obs::set_enabled(false);

    assert!(observed >= 3, "worker stack sampled each pass: {observed}");
    let text = profile::folded();
    let line = text
        .lines()
        .find(|l| l.starts_with("sentry.outer;sentry.inner "))
        .unwrap_or_else(|| panic!("nested stack missing from folded output: {text:?}"));
    let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 3, "three passes aggregate into one line: {line}");
    profile::reset();
}

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
fn alert_windows_rotate_exactly_at_the_fast_boundary() {
    let _g = exclusive();
    alerts::configure(SloConfig {
        phase_budget_us: 100,
        ..SloConfig::default()
    });
    let h = registry().span("batch.cluster").durations();
    h.reset();
    // A burst of violations filling ticks 0..=3.
    for tick in 0..=3u64 {
        for _ in 0..5 {
            h.record_windowed_at(100_000, tick);
        }
    }
    let eval_at = |now: u64| {
        alerts::evaluate_at(now)
            .into_iter()
            .find(|a| a.name == "batch.cluster")
            .expect("monitored phase")
    };

    // While the burst is inside the fast window, both windows burn.
    let eval = eval_at(3);
    assert_eq!(eval.fast, (20, 20));
    assert_eq!(eval.state, AlertState::Firing, "{eval:?}");

    // The last burst tick (3) stays in the fast window up to and
    // including now = 3 + FAST_SLOTS - 1...
    let eval = eval_at(3 + FAST_SLOTS - 1);
    assert!(eval.fast.0 > 0, "tick 3 still inside the fast window");
    assert_eq!(eval.state, AlertState::Firing, "{eval:?}");

    // ...and ages out exactly one tick later: the fast window is now
    // empty, and an empty fast window never fires, even though the slow
    // window still holds all 20 violations.
    let eval = eval_at(3 + FAST_SLOTS);
    assert_eq!(eval.fast, (0, 0), "fast window drained at the boundary");
    assert_eq!(eval.slow, (20, 20), "slow window still burning");
    assert_eq!(eval.state, AlertState::Ok, "no false fire on empty fast");

    h.reset();
    alerts::configure(SloConfig::default());
}

#[test]
fn injected_slowdown_flips_alerts_and_healthz_to_firing() {
    let _g = exclusive();
    // The documented fault-injection path: the settings parse from the
    // same `MIDAS_*` spellings an operator exports, and flow through
    // TelemetryConfig::with_env into Midas::bootstrap.
    let server = ServeDaemon::start(ServeConfig::default()).expect("bind daemon");
    let addr = server.addr();
    let (env, warnings) = Env::parse([
        ("MIDAS_FAULT", "slow:200000"), // +200 ms in batch.index
        ("MIDAS_SLO_PHASE_US", "1000"), // 1 ms budget
        ("MIDAS_PROFILE_HZ", "200"),
    ]);
    assert!(warnings.is_empty(), "{warnings:?}");
    set_fault_for_tests(env.fault);
    registry().span("batch.index").durations().reset();
    profile::reset();

    let mut cfg = test_config(7);
    cfg.telemetry.enabled = true;
    cfg.telemetry = cfg.telemetry.with_env(&env);
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();

    // Two batches, each sleeping 200 ms inside the batch.index span: both
    // land in the current fast window, so the alert must fire well within
    // the two-fast-window acceptance bound.
    for i in 0..2u32 {
        midas.apply_batch(BatchUpdate::insert_only(wave(i)));
    }
    set_fault_for_tests(None);

    let firing = alerts::firing();
    assert!(
        firing.contains(&"batch.index"),
        "batch.index alert fires after the injected slowdown: {firing:?}"
    );

    // /alerts reports the firing state with the configured budget.
    let (status, body) = http_get(addr, "/alerts");
    assert_eq!(status, 200);
    json::validate(&body).expect("alerts JSON validates");
    assert!(body.contains("\"phase_budget_us\": 1000"), "{body}");
    assert!(
        body.contains("\"name\": \"batch.index\", \"state\": \"firing\""),
        "alerts endpoint shows batch.index firing:\n{body}"
    );

    // /healthz degrades to "alerting" and names the culprit.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    json::validate(&body).expect("healthz is valid JSON");
    assert!(body.contains("\"status\": \"alerting\""), "{body}");
    assert!(body.contains("\"batch.index\""), "{body}");

    // /slow attributes the slowest searches to concrete ids. The kernel
    // defaults to the plan-compiled matcher, so attribution lands on its
    // series.
    let (status, body) = http_get(addr, "/slow");
    assert_eq!(status, 200);
    json::validate(&body).expect("slow JSON validates");
    assert!(body.contains("\"plan.search_ns\""), "{body}");
    let attributed = exemplar::series("plan.search_ns", "ns")
        .top()
        .iter()
        .any(|e| e.pattern().is_some() && e.graph().is_some());
    assert!(attributed, "at least one exemplar carries (pattern, graph)");

    // /profile caught the batch loop in the act: 200 ms asleep inside
    // batch.index at 200 Hz leaves dozens of samples on that frame.
    let (status, body) = http_get(addr, "/profile");
    assert_eq!(status, 200);
    assert!(
        body.lines().any(|l| l.starts_with("batch.index")),
        "sampler attributes time to batch.index:\n{body}"
    );

    server.shutdown();
    registry().span("batch.index").durations().reset();
    profile::reset();
    TelemetryConfig::default().activate();
}
