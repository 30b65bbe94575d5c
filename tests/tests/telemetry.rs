//! End-to-end telemetry: Algorithm-1 phase spans must tile PMT, the
//! required counters must appear in a batch's snapshot, and both exporters
//! must emit valid JSON.
//!
//! The telemetry switch is process-global, so every test here holds a
//! shared lock and restores the disabled default before releasing it.

use midas_core::framework::Midas;
use midas_graph::{BatchUpdate, GraphBuilder, LabeledGraph};
use midas_obs::{json, MetricsSnapshot, TelemetryConfig};
use midas_tests::{exclusive, path, seed_db, test_config};

fn dense_wave() -> Vec<LabeledGraph> {
    let brick = GraphBuilder::new()
        .vertices(&[3, 3, 3, 3])
        .path(&[0, 1, 2, 3])
        .edge(0, 2)
        .edge(1, 3)
        .edge(0, 3)
        .build();
    vec![brick; 16]
}

/// The Algorithm-1 phase spans, in pipeline order.
const PHASES: &[&str] = &[
    "batch.ingest",
    "batch.fct",
    "batch.cluster",
    "batch.index",
    "batch.classify",
    "batch.candidates",
    "batch.swap",
];

#[test]
fn phase_spans_tile_pattern_maintenance_time() {
    let _g = exclusive();
    let mut cfg = test_config(7);
    cfg.telemetry.enabled = true; // metrics only; no trace.json side effect
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    // Every phase that ran left exactly one span; together they must cover
    // at least 95% of PMT (what is left over is Vec bookkeeping between
    // phases and the snapshot captures themselves).
    let telemetry = &report.telemetry;
    for phase in &PHASES[..5] {
        assert_eq!(telemetry.span(phase).count, 1, "span {phase}");
    }
    let covered = telemetry.span_total(PHASES);
    let pmt = report.pattern_maintenance_time;
    assert!(
        covered.as_secs_f64() >= 0.95 * pmt.as_secs_f64(),
        "phase spans cover {covered:?} of PMT {pmt:?}"
    );

    // The counters the CI schema gate requires, plus phase accounting.
    assert!(telemetry.counter("pmt_us") > 0);
    assert!(telemetry.counter("vf2.nodes") > 0);
    assert!(telemetry.counter("cache.hits") + telemetry.counter("cache.misses") > 0);
    assert_eq!(telemetry.counter("batch.inserted"), 16);
    assert_eq!(
        telemetry.counter("monitor.major") + telemetry.counter("monitor.minor"),
        1,
        "snapshot delta is scoped to exactly one batch"
    );
    // PGT phases only run on a major modification; this wave forces one.
    assert!(telemetry.counter("monitor.major") == 1, "wave drifts");
    assert_eq!(telemetry.span("batch.candidates").count, 1);
    assert_eq!(telemetry.span("batch.swap").count, 1);
    assert!(telemetry.span("batch.swap.scan").count >= 1);
}

#[test]
fn metrics_snapshot_exports_valid_json() {
    let _g = exclusive();
    let mut cfg = test_config(11);
    cfg.telemetry.enabled = true;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    let doc = report.telemetry.to_json();
    json::validate(&doc).expect("metrics JSON validates");
    for key in ["\"pmt_us\"", "\"cache.hits\"", "\"vf2.nodes\"", "\"spans\""] {
        assert!(doc.contains(key), "metrics.json must contain {key}");
    }

    // Round-trip through a file, as the CI gate consumes it.
    let file = std::env::temp_dir().join(format!("midas-metrics-{}.json", std::process::id()));
    report.telemetry.write(&file).expect("write metrics.json");
    let read_back = std::fs::read_to_string(&file).expect("read metrics.json");
    json::validate(&read_back).expect("file round-trip validates");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn trace_export_is_valid_chrome_trace() {
    let _g = exclusive();
    let trace_file = std::env::temp_dir().join(format!("midas-trace-{}.json", std::process::id()));
    midas_obs::trace::set_output_path(Some(trace_file.clone()));
    let mut cfg = test_config(13);
    cfg.telemetry.enabled = true;
    cfg.telemetry.trace = true;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let _report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();
    midas_obs::trace::set_output_path(None);

    let doc = std::fs::read_to_string(&trace_file).expect("trace.json written");
    let _ = std::fs::remove_file(&trace_file);
    json::validate(&doc).expect("trace JSON validates");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"ph\": \"X\""));
    assert!(doc.contains("\"batch.ingest\""));
    assert!(doc.contains("\"displayTimeUnit\": \"ms\""));
}

#[test]
fn disabled_telemetry_leaves_no_trace_in_reports() {
    let _g = exclusive();
    TelemetryConfig::default().activate();
    let mut midas = Midas::bootstrap(seed_db(), test_config(17)).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
    assert!(report.telemetry.is_empty());
    assert!(MetricsSnapshot::capture()
        .since(&MetricsSnapshot::capture())
        .counters
        .is_empty());
}

#[test]
fn fine_clustering_splits_report_their_span_and_memo_counters() {
    let _g = exclusive();
    let mut cfg = test_config(19);
    cfg.telemetry.enabled = true;
    // Small clusters: the 16-graph wave overflows its cluster repeatedly.
    cfg.max_cluster_size = 8;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let report = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    let telemetry = &report.telemetry;
    let splits = telemetry.span("batch.cluster.split").count;
    assert!(splits >= 2, "the wave must split more than once: {splits}");
    assert_eq!(telemetry.counter("cluster.splits"), splits);
    // Later splits re-pick the same seed, so the memo serves its pairs.
    assert!(telemetry.counter("cluster.mccs_computed") > 0);
    assert!(telemetry.counter("cluster.mccs_memo_hits") > 0);
    assert!(
        telemetry.span("batch.cluster.split").total_us <= telemetry.span("batch.cluster").total_us
    );
}

#[test]
fn single_thread_bootstrap_fans_out_nothing() {
    let _g = exclusive();
    let mut cfg = test_config(23);
    cfg.telemetry.enabled = true;
    cfg.threads = 1;
    cfg.coarse_clusters = 10;
    // Small clusters: fine clustering leaves more groups than the spawn
    // threshold, so a CSG build that ignored `threads` would fan out.
    cfg.max_cluster_size = 2;
    let before = MetricsSnapshot::capture();
    let midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let delta = MetricsSnapshot::capture().since(&before);
    TelemetryConfig::default().activate();

    assert!(
        midas.clusters().len() >= midas_graph::exec::SPAWN_THRESHOLD,
        "only {} clusters",
        midas.clusters().len()
    );
    assert_eq!(delta.counter("exec.fanouts"), 0);
}
