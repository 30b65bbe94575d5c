//! End-to-end telemetry: Algorithm-1 phase spans must tile PMT, the
//! required counters must appear in a batch's registry delta, the delta
//! must render the Prometheus families the CI gate requires, and the
//! Chrome trace must be valid JSON.
//!
//! The telemetry switch is process-global, so every test here holds a
//! shared lock and restores the disabled default before releasing it.

use midas_core::framework::{MaintenanceReport, Midas, ModificationKind};
use midas_core::MidasConfig;
use midas_graph::{BatchUpdate, GraphBuilder, GraphId, LabeledGraph, MatchKernel};
use midas_obs::{json, LogLevel, MetricsSnapshot, TelemetryConfig};
use midas_tests::{exclusive, metrics_on, path, seed_db, test_config};
use std::collections::BTreeSet;

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

/// Applies one batch and returns its report with the registry delta the
/// batch left behind.
fn measured_batch(midas: &mut Midas, update: BatchUpdate) -> (MaintenanceReport, MetricsSnapshot) {
    let before = MetricsSnapshot::capture();
    let report = midas.apply_batch(update);
    (report, MetricsSnapshot::capture().since(&before))
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
    metrics_on(); // metrics only; no trace.json side effect
    let mut midas = Midas::bootstrap(seed_db(), test_config(7)).unwrap();
    let (report, telemetry) = measured_batch(&mut midas, BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    // Every phase that ran left exactly one span; together they must cover
    // at least 95% of PMT (what is left over is Vec bookkeeping between
    // phases).
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
    assert!(telemetry.counter("plan.nodes") > 0);
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
fn swap_child_spans_nest_inside_batch_swap() {
    let _g = exclusive();
    metrics_on();
    let mut midas = Midas::bootstrap(seed_db(), test_config(7)).unwrap();
    let (report, telemetry) = measured_batch(&mut midas, BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    // One ranking and one candidate loop per scan, both inside the swap.
    assert!(telemetry.counter("monitor.major") == 1, "wave drifts");
    let scans = telemetry.span("batch.swap.scan").count;
    assert!(scans >= 1);
    assert_eq!(telemetry.span("batch.swap.rank").count, scans);
    assert_eq!(telemetry.span("batch.swap.check").count, scans);
    let children = telemetry.span_total(&["batch.swap.rank", "batch.swap.check"]);
    let swap = telemetry.span_total(&["batch.swap"]);
    assert!(
        children <= swap,
        "rank + check {children:?} exceed batch.swap {swap:?}"
    );
    // Every swap was examined against sw3–sw5, and every examined
    // candidate was ranked.
    let ranked = telemetry.counter("swap.ranked");
    let examined = telemetry.counter("swap.examined");
    assert!(
        report.swaps as u64 <= examined && examined <= ranked && ranked > 0,
        "{} swaps, {examined} examined, {ranked} ranked",
        report.swaps
    );
    // The batch's Def. 5.5 threshold is 0, so every swapped-in candidate
    // was verified by the swap, and none twice.
    let verified = telemetry.counter("swap.verified");
    let generated = telemetry.counter("batch.candidates_generated");
    assert_eq!(telemetry.gauge("candidates.def55_threshold"), 0.0);
    assert!(
        report.swaps as u64 <= verified && verified <= generated,
        "{} swaps, {verified} verified, {generated} generated",
        report.swaps
    );
}

#[test]
fn candidate_child_spans_nest_inside_batch_candidates() {
    let _g = exclusive();
    metrics_on();
    let mut midas = Midas::bootstrap(seed_db(), test_config(7)).unwrap();
    let before = MetricsSnapshot::capture();
    let mut majors = 0;
    for update in [
        BatchUpdate::insert_only(dense_wave()),
        BatchUpdate::insert_only(vec![path(&[0, 1, 2]); 2]),
        BatchUpdate::insert_only(vec![path(&[5, 6, 5, 6, 5]); 12]),
    ] {
        majors += usize::from(midas.apply_batch(update).kind == ModificationKind::Major);
    }
    let telemetry = MetricsSnapshot::capture().since(&before);
    TelemetryConfig::default().activate();

    // One generation pass and one (two-piece) coverage span per major
    // batch, both inside `batch.candidates`.
    const STEPS: &[&str] = &["batch.candidates.generate", "batch.candidates.covered"];
    assert_eq!(majors, 2, "two of the three batches drift");
    let majors = majors as u64;
    assert_eq!(telemetry.span("batch.candidates").count, majors);
    for step in STEPS {
        assert_eq!(telemetry.span(step).count, majors, "span {step}");
    }
    let children = telemetry.span_total(STEPS);
    let candidates = telemetry.span_total(&["batch.candidates"]);
    assert!(
        children <= candidates,
        "candidate steps {children:?} exceed batch.candidates {candidates:?}"
    );
}

#[test]
fn bootstrap_layer_spans_and_selection_counters() {
    let _g = exclusive();
    metrics_on();
    let before = MetricsSnapshot::capture();
    Midas::bootstrap(seed_db(), test_config(7)).unwrap();
    let telemetry = MetricsSnapshot::capture().since(&before);
    TelemetryConfig::default().activate();

    // One span per layer, together inside `bootstrap`.
    const LAYERS: &[&str] = &[
        "bootstrap.fct",
        "bootstrap.cluster",
        "bootstrap.select",
        "bootstrap.index",
    ];
    assert_eq!(telemetry.span("bootstrap").count, 1);
    for layer in LAYERS {
        assert_eq!(telemetry.span(layer).count, 1, "span {layer}");
    }
    let layers = telemetry.span_total(LAYERS);
    let bootstrap = telemetry.span_total(&["bootstrap"]);
    assert!(
        layers <= bootstrap,
        "layers {layers:?} exceed bootstrap {bootstrap:?}"
    );
    // Each class is matched at most once, and a class is one or more
    // scored candidates.
    let candidates = telemetry.counter("select.candidates");
    let classes = telemetry.counter("select.classes");
    let matched = telemetry.counter("select.ccov_matched");
    assert!(
        0 < matched && matched <= classes && classes <= candidates,
        "{matched} matched, {classes} classes, {candidates} candidates"
    );
}

#[test]
fn fct_child_spans_nest_inside_batch_fct() {
    let _g = exclusive();
    metrics_on();
    let mut midas = Midas::bootstrap(seed_db(), test_config(7)).unwrap();
    let (_, telemetry) = measured_batch(&mut midas, BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    // One span per step of an inserting batch, all inside `batch.fct`.
    const STEPS: &[&str] = &[
        "batch.fct.extend",
        "batch.fct.delta_mine",
        "batch.fct.support_scan",
        "batch.fct.prune",
    ];
    assert_eq!(telemetry.span("batch.fct").count, 1);
    for step in STEPS {
        assert_eq!(telemetry.span(step).count, 1, "span {step}");
    }
    let children = telemetry.span_total(STEPS);
    let fct = telemetry.span_total(&["batch.fct"]);
    assert!(
        children <= fct,
        "fct steps {children:?} exceed batch.fct {fct:?}"
    );
}

/// One batch's delta rendered as Prometheus text — what `profile_batch`
/// writes to `metrics.prom` — carries every family the CI telemetry gate
/// (`scripts/check_telemetry.py`) requires. As in `profile_batch`, the
/// measured batch is the second: its coverage scans are answered in part
/// from containment answers the first batch memoized.
#[test]
fn batch_delta_renders_the_gated_prom_families() {
    let _g = exclusive();
    metrics_on();
    let mut midas = Midas::bootstrap(seed_db(), test_config(11)).unwrap();
    midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    let (_, delta) = measured_batch(&mut midas, BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    let doc = midas_obs::prom::render(&delta);
    let value = |series: &str| -> f64 {
        doc.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{series} missing:\n{doc}"))
            .parse()
            .expect("numeric sample")
    };
    for counter in ["pmt_us", "cache_hits", "plan_nodes", "plan_searches"] {
        assert!(value(&format!("midas_{counter}")) > 0.0, "{counter}");
    }
    for phase in ["ingest", "fct", "cluster", "index"] {
        let family = format!("midas_span_batch_{phase}_duration_us");
        assert!(value(&format!("{family}_count")) >= 1.0, "{family}");
        value(&format!("{family}_sum"));
        value(&format!("{family}_max"));
    }
    assert!(doc.contains("# TYPE midas_plan_search_ns summary"), "{doc}");
}

#[test]
fn trace_export_is_valid_chrome_trace() {
    let _g = exclusive();
    let trace_file = std::env::temp_dir().join(format!("midas-trace-{}.json", std::process::id()));
    midas_obs::trace::set_output_path(Some(trace_file.clone()));
    TelemetryConfig {
        enabled: true,
        trace: true,
        ..TelemetryConfig::default()
    }
    .activate();
    let mut midas = Midas::bootstrap(seed_db(), test_config(13)).unwrap();
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

/// The switches belong to the host: a bootstrap with a default
/// configuration leaves telemetry the host turned on switched on, at the
/// log level the host chose.
#[test]
fn bootstrap_leaves_the_process_switches_alone() {
    let _g = exclusive();
    TelemetryConfig {
        enabled: true,
        trace: false,
        log: LogLevel::Error,
    }
    .activate();
    let bootstrapped = Midas::bootstrap(seed_db(), MidasConfig::small_defaults()).is_ok();
    let (enabled, level) = (midas_obs::enabled(), midas_obs::log::log_level());
    TelemetryConfig::default().activate();
    assert!(bootstrapped);
    assert!(enabled, "bootstrap switched metrics off");
    assert_eq!(level, LogLevel::Error, "bootstrap changed the log level");
}

#[test]
fn disabled_telemetry_leaves_the_registry_unchanged() {
    let _g = exclusive();
    TelemetryConfig::default().activate();
    let mut midas = Midas::bootstrap(seed_db(), test_config(17)).unwrap();
    let before = MetricsSnapshot::capture();
    midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
    let after = MetricsSnapshot::capture();
    let delta = after.since(&before);
    assert!(delta.counters.is_empty(), "{:?}", delta.counters);
    assert!(delta.histograms.is_empty(), "{:?}", delta.histograms);
    assert!(delta.spans.is_empty(), "{:?}", delta.spans);
    assert_eq!(after.gauges, before.gauges);
}

#[test]
fn fine_clustering_splits_report_their_span_and_memo_counters() {
    let _g = exclusive();
    metrics_on();
    let mut cfg = test_config(19);
    // Small clusters: the 16-graph wave overflows its cluster repeatedly.
    cfg.max_cluster_size = 8;
    let mut midas = Midas::bootstrap(seed_db(), cfg).unwrap();
    let (_, telemetry) = measured_batch(&mut midas, BatchUpdate::insert_only(dense_wave()));
    TelemetryConfig::default().activate();

    let splits = telemetry.span("batch.cluster.split").count;
    assert!(splits >= 2, "the wave must split more than once: {splits}");
    assert_eq!(telemetry.counter("cluster.splits"), splits);
    // Later splits re-pick the same seed, so the memo serves its pairs.
    assert!(telemetry.counter("cluster.mccs_computed") > 0);
    assert!(telemetry.counter("cluster.mccs_memo_hits") > 0);
    // One search-time sample per memo miss.
    let searches = telemetry.histogram("cluster.mccs_ns");
    assert_eq!(searches.count, telemetry.counter("cluster.mccs_computed"));
    assert!(searches.sum > 0);
    assert!(telemetry.span("batch.cluster.split").sum <= telemetry.span("batch.cluster").sum);
}

/// VF2 is the reference matcher: no production path may run it. Over a
/// bootstrap, a major, a minor and a deletion batch, formulation and set
/// quality, the VF2 search counter stays at zero while the plan matcher's
/// rises.
#[test]
fn production_matching_runs_on_the_plan_matcher_only() {
    let _g = exclusive();
    metrics_on();
    let mut last = MetricsSnapshot::capture();
    let mut step = |name: &str| {
        let now = MetricsSnapshot::capture();
        let delta = now.since(&last);
        assert_eq!(delta.counter("vf2.searches"), 0, "{name} ran VF2");
        assert!(delta.counter("plan.searches") > 0, "{name} matched nothing");
        last = now;
    };

    let mut midas = Midas::bootstrap(seed_db(), test_config(29)).unwrap();
    step("bootstrap");
    let major = midas.apply_batch(BatchUpdate::insert_only(dense_wave()));
    assert_eq!(major.kind, ModificationKind::Major, "wave drifts");
    step("major batch");
    let minor = midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
    assert_eq!(minor.kind, ModificationKind::Minor);
    step("minor batch");
    let victims: Vec<GraphId> = midas.db().ids().take(4).collect();
    midas.apply_batch(BatchUpdate::delete_only(victims));
    step("deletion batch");

    let patterns = midas.patterns();
    let queries = midas_datagen::query_set(midas.db(), 8, (3, 6), 5);
    for q in &queries {
        midas_queryform::formulate(q, &patterns);
    }
    step("formulate");
    // Set quality as the experiment harnesses compute it, on a cold
    // kernel so that the containment scan searches.
    let universe: BTreeSet<GraphId> = midas.db().ids().collect();
    let (kernel, catalog) = (MatchKernel::new(), &midas.fct_state().edges);
    midas_catapult::score::set_quality(&kernel, &patterns, midas.db(), catalog, &universe);
    step("score::set_quality");
    TelemetryConfig::default().activate();
}
