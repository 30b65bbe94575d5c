//! Kernel benchmark: the serial VF2 reference (the oracle's
//! `reference_tg_cells`) vs the `MatchKernel` (plan-compiled matcher over
//! the database's CSR views, cold and with a warm memo) for matrix builds
//! and batch maintenance (§5.1). Writes
//! `BENCH_kernel.json` at the repo root with medians and the measured
//! speedups, and appends one timestamped record per run to
//! `BENCH_history.jsonl` — the trajectory `scripts/bench_gate.py` gates
//! regressions against.
//!
//! Scenario: a 2 000-graph molecule database, a 12-feature FCT-Index, and
//! a 100-graph (5 %) insertion batch — the shape of one Algorithm 1 round;
//! plus one tenant bootstrap (`bootstrap/pubchem120`) on a 120-graph
//! database.
//! `MIDAS_BENCH_QUICK=1` shrinks that to 300 graphs / 20 insertions for
//! CI: the medians are smaller (history records carry a `quick` flag so
//! the gate never compares across modes) but the relative regressions the
//! gate watches for still show.

use criterion::{BatchSize, Criterion};
use midas_catapult::PatternBudget;
use midas_core::{Midas, MidasConfig};
use midas_datagen::{DatasetKind, DatasetSpec};
use midas_graph::{Csr, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::FctIndex;
use midas_mining::{tree_key, TreeKey};
use midas_oracle::reference_tg_cells;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;

const DB_SIZE: usize = 2_000;
const BATCH_SIZE: usize = 100; // 5% of DB_SIZE
const QUICK_DB_SIZE: usize = 300;
const QUICK_BATCH_SIZE: usize = 20;
const FEATURES: usize = 12;

struct Scenario {
    db: GraphDb,
    batch: Vec<(GraphId, LabeledGraph)>,
    features: Vec<(TreeKey, LabeledGraph)>,
}

fn scenario(db_size: usize, batch_size: usize) -> Scenario {
    let generated = DatasetSpec::new(DatasetKind::PubchemLike, db_size + batch_size, 42).generate();
    let graphs: Vec<LabeledGraph> = generated
        .db
        .iter()
        .map(|(_, g)| g.as_ref().clone())
        .collect();
    let db = GraphDb::from_graphs(graphs[..db_size].iter().cloned());
    let batch: Vec<(GraphId, LabeledGraph)> = graphs[db_size..]
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, g)| (GraphId((db_size + i) as u64), g))
        .collect();
    // Features: random connected subtrees (1–4 edges, the paper's
    // `max_tree_edges` range) drawn from the database, deduplicated by
    // canonical key. Cyclic draws are discarded — features must be trees.
    let mut rng = StdRng::seed_from_u64(7);
    let mut features: Vec<(TreeKey, LabeledGraph)> = Vec::new();
    let mut i = 0usize;
    while features.len() < FEATURES && i < 50 * FEATURES {
        let source = db.get(GraphId((i % db_size) as u64)).expect("dense ids");
        let edges = 1 + (i % 4);
        if let Some(t) = midas_datagen::random_connected_subgraph(source, edges, &mut rng) {
            if t.edge_count() + 1 != t.vertex_count() {
                i += 1;
                continue; // not a tree
            }
            let key = tree_key(&t);
            if !features.iter().any(|(k, _)| *k == key) {
                features.push((key, t));
            }
        }
        i += 1;
    }
    Scenario {
        db,
        batch,
        features,
    }
}

/// The TG cells of the whole database, counted by VF2.
fn serial_build(s: &Scenario) -> BTreeMap<(TreeKey, GraphId), u32> {
    reference_tg_cells(&s.features, s.db.iter().map(|(id, g)| (id, g.as_ref())))
}

fn kernel_build(s: &Scenario, kernel: &MatchKernel) -> FctIndex {
    let csrs: Vec<(GraphId, &Csr)> = s.db.csrs().collect();
    FctIndex::build(kernel, s.features.iter().cloned(), &csrs)
}

/// Appends one JSONL record for this run to `BENCH_history.jsonl` at the
/// repo root (falling back to the current directory, mirroring the
/// `BENCH_kernel.json` write). One line per run keeps the file
/// append-only and trivially parsable; `scripts/bench_gate.py` compares
/// the newest record against the trailing median of its mode.
fn append_history(
    quick: bool,
    db_size: usize,
    batch_size: usize,
    results: &[criterion::BenchResult],
    probe_ns: f64,
) {
    let mut medians = String::new();
    for (i, r) in results.iter().enumerate() {
        medians.push_str(&format!(
            "\"{}\": {}{}",
            r.name,
            r.median().as_nanos(),
            if i + 1 < results.len() { ", " } else { "" }
        ));
    }
    let line = format!(
        "{{\"unix_ms\": {}, \"quick\": {quick}, \"db_size\": {db_size}, \"batch_size\": {batch_size}, \"disabled_probe_ns\": {probe_ns:.2}, \"median_ns\": {{{medians}}}}}\n",
        midas_obs::flight::unix_ms()
    );
    let append = |path: &str| -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(line.as_bytes())
    };
    append("../../BENCH_history.jsonl")
        .or_else(|_| append("BENCH_history.jsonl"))
        .expect("append BENCH_history.jsonl");
}

fn main() {
    // `MIDAS_BENCH_QUICK=1|true|on` — CI-sized scenario, no
    // `BENCH_kernel.json` rewrite (history still appends, flagged `quick`).
    let quick = midas_obs::config::env().bench_quick;
    let (db_size, batch_size) = if quick {
        (QUICK_DB_SIZE, QUICK_BATCH_SIZE)
    } else {
        (DB_SIZE, BATCH_SIZE)
    };
    let s = scenario(db_size, batch_size);
    println!(
        "kernel bench: |D| = {}, batch = {}, features = {}{}",
        s.db.len(),
        s.batch.len(),
        s.features.len(),
        if quick { " (quick mode)" } else { "" }
    );
    let mut c = Criterion::default().sample_size(10);

    // --- Matrix build: the bootstrap-time TG matrix ---------------------
    c.bench_function("matrix_build/serial", |b| {
        b.iter(|| black_box(serial_build(&s)))
    });
    let warm = MatchKernel::new();
    kernel_build(&s, &warm); // warm the memo once
                             // The warm memo; `parallel_` is a historical name, kept so the
                             // history stays one series.
    c.bench_function("matrix_build/parallel_cached", |b| {
        b.iter(|| black_box(kernel_build(&s, &warm)))
    });

    // --- The kernel on a cold memo ---------------------------------------
    // Fresh embedding cache per iteration: the direct replacement for the
    // serial VF2 build above. Pattern plans are memoized per canonical
    // class in the process-wide plan cache and the CSR views belong to the
    // database, so after the first iteration the measured work is the
    // plan searches plus memo stores — the steady state a maintenance
    // round sees.
    c.bench_function("matrix_build/plan_serial", |b| {
        b.iter_batched(
            MatchKernel::new,
            |kernel| black_box(kernel_build(&s, &kernel)),
            BatchSize::LargeInput,
        )
    });

    // --- Batch maintenance: 5% insertion, TG columns --------------------
    let base = kernel_build(&s, &MatchKernel::new());
    let batch_refs: Vec<(GraphId, &LabeledGraph)> =
        s.batch.iter().map(|(id, g)| (*id, g)).collect();
    // The batch graphs' CSR views, built once outside the timed sections
    // (in the pipeline `GraphDb::insert` builds them before the index
    // phase runs).
    let batch_csrs: Vec<(GraphId, Csr)> = s
        .batch
        .iter()
        .map(|(id, g)| (*id, Csr::from_graph(g)))
        .collect();
    let batch_csr_refs: Vec<(GraphId, &Csr)> = batch_csrs.iter().map(|(id, c)| (*id, c)).collect();
    // The batch graphs' TG cells, counted by VF2.
    c.bench_function("apply_batch/serial", |b| {
        b.iter(|| black_box(reference_tg_cells(&s.features, batch_refs.iter().copied())))
    });
    c.bench_function("apply_batch/plan_serial", |b| {
        // The kernel on a cold cache: a plan search per (feature, batch
        // graph) pair.
        b.iter_batched(
            || (base.clone(), MatchKernel::new()),
            |(mut index, kernel)| {
                index.add_graphs(&kernel, &batch_csr_refs);
                black_box(index)
            },
            BatchSize::LargeInput,
        )
    });
    // The warm memo; `parallel_` is a historical name, kept so the
    // history stays one series.
    let warm_batch = MatchKernel::new();
    base.clone().add_graphs(&warm_batch, &batch_csr_refs); // warm once
    c.bench_function("apply_batch/parallel_cached_repeat", |b| {
        // The same batch re-applied with a warm memo — the steady state
        // when scoring re-scans recently maintained graphs.
        b.iter_batched(
            || base.clone(),
            |mut index| {
                index.add_graphs(&warm_batch, &batch_csr_refs);
                black_box(index)
            },
            BatchSize::LargeInput,
        )
    });

    // --- Tenant bootstrap -------------------------------------------------
    // `Midas::bootstrap` on servebench's tenant shape: mining,
    // clustering, CATAPULT selection and the index builds over 120
    // PubchemLike graphs at γ 10, η 3–6 and 5 coarse clusters. The same
    // size in both modes.
    let tenant_db = DatasetSpec::new(DatasetKind::PubchemLike, 120, 41)
        .generate()
        .db;
    let tenant_config = MidasConfig {
        budget: PatternBudget {
            eta_min: 3,
            eta_max: 6,
            gamma: 10,
        },
        sup_min: 0.4,
        max_tree_edges: 3,
        coarse_clusters: 5,
        ..MidasConfig::default()
    };
    c.bench_function("bootstrap/pubchem120", |b| {
        b.iter_batched(
            || tenant_db.clone(),
            |db| black_box(Midas::bootstrap(db, tenant_config)),
            BatchSize::LargeInput,
        )
    });

    // --- Telemetry ------------------------------------------------------
    // All timed sections above ran with telemetry disabled (the default),
    // so the medians measure the kernel itself. Two extra readings feed
    // the report: the cost of a disabled probe (the overhead-budget
    // guard), one instrumented serial reference build for the VF2 search
    // latency and signature-prefilter reject-rate, and one instrumented
    // cold+warm kernel pass for the cache hit-rate and plan statistics.
    let probe_ns = {
        let n = 1_000_000u64;
        let start = std::time::Instant::now();
        for i in 0..n {
            midas_obs::counter_add!("bench.kernel.probe", i & 1);
        }
        start.elapsed().as_nanos() as f64 / n as f64
    };
    midas_obs::set_enabled(true);
    let telemetry_base = midas_obs::MetricsSnapshot::capture();
    black_box(serial_build(&s));
    let telemetry = midas_obs::MetricsSnapshot::capture().since(&telemetry_base);
    // Plan-matcher pass: fresh compiles (bypassing the process-wide plan
    // cache) for compile-time stats, then a cold + warm build through a
    // plan kernel for search latency, intersection and pruning counters.
    let plan_base = midas_obs::MetricsSnapshot::capture();
    for (_, t) in &s.features {
        black_box(midas_graph::MatchPlan::compile(t));
    }
    let observed = MatchKernel::new();
    kernel_build(&s, &observed); // cold: all misses
    kernel_build(&s, &observed); // warm: all hits
    let plan_telemetry = midas_obs::MetricsSnapshot::capture().since(&plan_base);
    midas_obs::set_enabled(false);
    let cache_stats = observed.cache().stats();
    let hit_rate = cache_stats.hit_rate();
    // Share of the serial build's (feature, graph) calls the VF2
    // signature prefilter answered without a search.
    let prefilter_rejects = telemetry.counter("vf2.prefilter_rejects");
    let pairs = (s.features.len() * s.db.len()).max(1);
    let prefilter_reject_rate = prefilter_rejects as f64 / pairs as f64;
    // Per-search VF2 latency percentiles from the log₂ histogram the
    // instrumented pass fed (the same series `/metrics` exposes as
    // `midas_vf2_search_ns{quantile=...}`).
    let vf2_latency = telemetry.histogram("vf2.search_ns");
    let vf2_search_p50_ns = vf2_latency.quantile(0.5);
    let vf2_search_p99_ns = vf2_latency.quantile(0.99);
    // The plan-path equivalents of the VF2 percentiles, from the same
    // log₂ histograms `/metrics` exposes.
    let plan_latency = plan_telemetry.histogram("plan.search_ns");
    let plan_search_p50_ns = plan_latency.quantile(0.5);
    let plan_search_p99_ns = plan_latency.quantile(0.99);
    let plan_compile = plan_telemetry.histogram("plan.compile_ns");
    let plan_compile_p50_ns = plan_compile.quantile(0.5);

    // --- Report ---------------------------------------------------------
    let results = c.take_results();
    let median_ns = |name: &str| -> u128 {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median().as_nanos())
            .unwrap_or(0)
    };
    let ratio = |num: &str, den: &str| -> f64 {
        let d = median_ns(den);
        if d == 0 {
            return 0.0;
        }
        median_ns(num) as f64 / d as f64
    };
    let build_cached_speedup = ratio("matrix_build/serial", "matrix_build/parallel_cached");
    let batch_repeat_speedup = ratio("apply_batch/serial", "apply_batch/parallel_cached_repeat");
    let plan_build_speedup = ratio("matrix_build/serial", "matrix_build/plan_serial");
    let plan_batch_speedup = ratio("apply_batch/serial", "apply_batch/plan_serial");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"db_size\": {db_size}, \"batch_size\": {batch_size}, \"features\": {FEATURES}, \"available_cores\": {cores}}},\n"
    ));
    json.push_str("  \"median_ns\": {\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {}{}\n",
            r.name,
            r.median().as_nanos(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedups\": {{\n    \"matrix_build_parallel_cached\": {build_cached_speedup:.2},\n    \"matrix_build_plan_serial\": {plan_build_speedup:.2},\n    \"apply_batch_repeat_cached\": {batch_repeat_speedup:.2},\n    \"apply_batch_plan_serial\": {plan_batch_speedup:.2}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"telemetry\": {{\n    \"disabled_probe_ns\": {probe_ns:.2},\n    \"cache_hit_rate\": {hit_rate:.4},\n    \"prefilter_reject_rate\": {prefilter_reject_rate:.4},\n    \"vf2_search_p50_ns\": {vf2_search_p50_ns},\n    \"vf2_search_p99_ns\": {vf2_search_p99_ns},\n    \"cache_hits\": {},\n    \"cache_misses\": {},\n    \"prefilter_rejects\": {prefilter_rejects},\n    \"vf2_nodes\": {},\n    \"plan_search_p50_ns\": {plan_search_p50_ns},\n    \"plan_search_p99_ns\": {plan_search_p99_ns},\n    \"plan_compile_p50_ns\": {plan_compile_p50_ns},\n    \"plan_compiles\": {},\n    \"plan_searches\": {},\n    \"plan_intersections\": {},\n    \"plan_candidates_pruned\": {},\n    \"plan_prefilter_rejects\": {}\n  }}\n",
        cache_stats.hits,
        cache_stats.misses,
        telemetry.counter("vf2.nodes"),
        plan_telemetry.counter("plan.compiles"),
        plan_telemetry.counter("plan.searches"),
        plan_telemetry.counter("plan.intersections"),
        plan_telemetry.counter("plan.candidates_pruned"),
        plan_telemetry.counter("plan.prefilter_rejects")
    ));
    json.push_str("}\n");
    // The headline report tracks the full-size scenario only; a quick run
    // must never overwrite it with incomparable numbers.
    if !quick {
        std::fs::write("../../BENCH_kernel.json", &json)
            .or_else(|_| std::fs::write("BENCH_kernel.json", &json))
            .expect("write BENCH_kernel.json");
    }
    append_history(quick, db_size, batch_size, &results, probe_ns);
    println!("{json}");
    println!(
        "matrix_build cached {build_cached_speedup:.2}x, apply_batch repeated cached \
         {batch_repeat_speedup:.2}x (target >= 10x)"
    );
    println!(
        "kernel, cold memo: matrix_build {plan_build_speedup:.2}x vs serial VF2 \
         (target >= 5x), apply_batch {plan_batch_speedup:.2}x, \
         search p50 {plan_search_p50_ns}ns p99 {plan_search_p99_ns}ns, \
         compile p50 {plan_compile_p50_ns}ns"
    );
    println!(
        "telemetry: disabled probe {probe_ns:.2}ns, cache hit rate {:.1}%, \
         prefilter reject rate {:.1}%, vf2 search p50 {vf2_search_p50_ns}ns \
         p99 {vf2_search_p99_ns}ns",
        100.0 * hit_rate,
        100.0 * prefilter_reject_rate
    );
    assert!(
        probe_ns < 50.0,
        "disabled telemetry probe costs {probe_ns:.1}ns — overhead budget blown"
    );
}
