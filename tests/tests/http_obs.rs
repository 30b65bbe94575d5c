//! Live observability, end to end: with a `Midas` instance running
//! batches, a `ServeDaemon` in the same process must answer `/metrics`
//! (with quantile series), `/healthz` and `/flight` over
//! plain HTTP on its one listener, and the flight recorder must retain
//! exactly its capacity after wraparound, numbering batches in one
//! process-wide sequence across instances.
//!
//! The telemetry switch and the flight recorder are process-global, so
//! every test here holds a shared lock and restores the defaults before
//! releasing it.

use midas_core::framework::Midas;
use midas_graph::BatchUpdate;
use midas_obs::{json, TelemetryConfig};
use midas_serve::{ServeConfig, ServeDaemon};
use midas_tests::{exclusive, http_get, seed_db, test_config, wave};

#[test]
fn served_endpoints_answer_with_quantiles_and_bounded_flight_history() {
    let _g = exclusive();
    // The deployment shape: the host binary owns the daemon, the library
    // only records into the process-global registry and flight recorder.
    let server = ServeDaemon::start(ServeConfig::default()).expect("bind daemon");
    let addr = server.addr();
    midas_obs::flight::clear();

    let mut cfg = test_config(7);
    cfg.telemetry.enabled = true;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    for i in 0..10u32 {
        midas.apply_batch(BatchUpdate::insert_only(wave(i)));
    }
    // More summaries than the flight recorder holds, to force wraparound:
    // the recorder numbers them after the 10 real batches.
    let capacity = midas_obs::flight::CAPACITY as u64;
    let last = midas_obs::flight::last_batch().expect("batches were recorded");
    for _ in 0..capacity {
        midas_obs::flight::record_batch(last.clone());
    }
    let total = 10 + capacity;

    // /flight — valid JSON, exactly `capacity` summaries survive, and they
    // are the *newest* ones (seq 11..=74 after 74 into a ring of 64).
    let (status, body) = http_get(addr, "/flight");
    assert_eq!(status, 200);
    json::validate(&body).expect("flight dump is valid JSON");
    assert_eq!(
        body.matches("\"seq\": ").count() as u64,
        capacity,
        "ring keeps the newest 64"
    );
    assert!(!body.contains("\"seq\": 10,"), "oldest summaries evicted");
    assert!(body.contains("\"seq\": 11,"), "oldest survivor retained");
    assert!(
        body.contains(&format!("\"seq\": {total},")),
        "newest retained"
    );
    assert!(body.contains(&format!("\"total_batches\": {total}")));
    assert!(body.contains("\"capacity\": 64"));

    // /metrics — Prometheus text exposition with quantile-labeled series
    // for the search latency histogram of the plan matcher.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("midas_plan_search_ns{quantile=\"0.99\"}"),
        "p99 plan search latency series missing:\n{body}"
    );
    assert!(body.contains("# TYPE midas_plan_search_ns summary"));
    assert!(body.contains("midas_pmt_us "), "pmt counter series missing");

    // /healthz — drift + batch progress as JSON.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    json::validate(&body).expect("healthz is valid JSON");
    assert!(body.contains("\"status\": \"ok\""));
    assert!(body.contains(&format!("\"batches\": {total}")));
    assert!(body.contains("\"tenants\": 0"), "one document: {body}");

    // Unknown routes 404 without killing the worker.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, 200, "server survives a 404");

    server.shutdown();
    midas_obs::flight::clear();
    TelemetryConfig::default().activate();
}

#[test]
fn interleaved_instances_share_one_flight_sequence() {
    let _g = exclusive();
    midas_obs::flight::clear();
    // Two tenants' worth of instances, batches interleaved the way a
    // multi-tenant daemon's per-tenant maintenance threads run them.
    let mut a = Midas::bootstrap_embedded(seed_db(), test_config(7)).unwrap();
    let mut b = Midas::bootstrap_embedded(seed_db(), test_config(8)).unwrap();
    for i in 0..3u32 {
        a.apply_batch(BatchUpdate::insert_only(wave(i)));
        b.apply_batch(BatchUpdate::insert_only(wave(i + 10)));
    }
    let seqs: Vec<u64> = midas_obs::flight::batches().iter().map(|s| s.seq).collect();
    assert_eq!(
        seqs,
        vec![1, 2, 3, 4, 5, 6],
        "process-wide, strictly increasing"
    );
    assert_eq!(midas_obs::flight::total_batches(), 6);
    midas_obs::flight::clear();
}
