//! Closed-loop load scenario: user-facing SLIs as a gated benchmark.
//!
//! Runs `midas_load::run` — N concurrent simulated users formulating
//! queries against the live pattern snapshot while the driver streams
//! update batches — and reports the SLIs the harness exists to measure:
//! formulation-cost reduction vs the frozen no-maintenance baseline,
//! snapshot staleness (batches behind + graphlet drift), and snapshot-read
//! / formulation latency quantiles.
//!
//! Full mode (the committed `BENCH_load.json`): 8 users over a 240-graph
//! PubchemLike database for 12 ticks — the `pubchem_like_u8` scenario.
//! `MIDAS_BENCH_QUICK=1` shrinks to 4 users / 100 graphs / 4 ticks for CI.
//! Both modes append one record to `BENCH_history.jsonl` (flagged `quick`
//! so `scripts/bench_gate.py` never compares across modes); the gate
//! tracks `load/read_ns_p50` for read-path regressions.
//!
//! Latency quantiles come from the report's exact per-query samples, so
//! the run itself executes with telemetry *disabled* — the numbers are the
//! user-visible cost, not the instrumented cost.

use midas_core::{Midas, MidasConfig};
use midas_datagen::{DatasetKind, DatasetSpec};
use midas_load::{LoadConfig, LoadReport};
use midas_obs::TelemetryConfig;

const SCENARIO: &str = "pubchem_like_u8";
const DB_SIZE: usize = 240;
const QUICK_DB_SIZE: usize = 100;

fn report_json(quick: bool, db_size: usize, r: &LoadReport) -> String {
    format!(
        "{{\n  \"scenario\": \"{SCENARIO}\",\n  \"config\": {{\"users\": {}, \"ticks\": {}, \"db_size\": {db_size}, \"quick\": {quick}}},\n  \"queries\": {},\n  \"steps_live\": {},\n  \"steps_baseline\": {},\n  \"formulation_reduction\": {:.6},\n  \"staleness\": {{\"batches_p50\": {}, \"batches_p99\": {}, \"batches_max\": {}, \"drift_mean\": {:.8}, \"drift_max\": {:.8}}},\n  \"latency_ns\": {{\"read_p50\": {}, \"read_p99\": {}, \"read_max\": {}, \"formulate_p50\": {}, \"formulate_p99\": {}, \"formulate_max\": {}}},\n  \"final_epoch\": {},\n  \"wall_ms\": {}\n}}\n",
        r.users,
        r.ticks,
        r.queries,
        r.steps_live,
        r.steps_baseline,
        r.reduction,
        r.staleness_batches.p50,
        r.staleness_batches.p99,
        r.staleness_batches.max,
        r.staleness_drift_mean,
        r.staleness_drift_max,
        r.read_ns.p50,
        r.read_ns.p99,
        r.read_ns.max,
        r.formulate_ns.p50,
        r.formulate_ns.p99,
        r.formulate_ns.max,
        r.final_epoch,
        r.wall_ms
    )
}

/// One `BENCH_history.jsonl` record, in the kernel bench's shape: the gate
/// reads `quick` + `median_ns` and skips records missing a tracked metric.
fn append_history(quick: bool, db_size: usize, r: &LoadReport) {
    let line = format!(
        "{{\"unix_ms\": {}, \"quick\": {quick}, \"scenario\": \"{SCENARIO}\", \"users\": {}, \"ticks\": {}, \"db_size\": {db_size}, \"median_ns\": {{\"load/read_ns_p50\": {}, \"load/read_ns_p99\": {}, \"load/formulate_ns_p50\": {}, \"load/formulate_ns_p99\": {}}}}}\n",
        midas_obs::flight::unix_ms(),
        r.users,
        r.ticks,
        r.read_ns.p50,
        r.read_ns.p99,
        r.formulate_ns.p50,
        r.formulate_ns.p99
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
    let quick = midas_obs::config::env().bench_quick;
    let (db_size, cfg) = if quick {
        (
            QUICK_DB_SIZE,
            LoadConfig {
                users: 4,
                ticks: 4,
                tick_ms: 25,
                pool: 16,
                ..LoadConfig::default()
            },
        )
    } else {
        (
            DB_SIZE,
            LoadConfig {
                users: 8,
                ticks: 12,
                tick_ms: 60,
                pool: 32,
                ..LoadConfig::default()
            },
        )
    };
    let kind = DatasetKind::PubchemLike;
    println!(
        "load bench [{SCENARIO}]: {} users × {} ticks, |D| = {db_size}{}",
        cfg.users,
        cfg.ticks,
        if quick { " (quick mode)" } else { "" }
    );
    let dataset = DatasetSpec::new(kind, db_size, 41).generate();
    let config = MidasConfig {
        budget: midas_catapult::PatternBudget {
            eta_min: 3,
            eta_max: 6,
            gamma: 10,
        },
        sup_min: 0.4,
        max_tree_edges: 3,
        coarse_clusters: 5,
        epsilon: 0.01,
        telemetry: TelemetryConfig::default(), // disabled: measure user cost
        ..MidasConfig::default()
    };
    let mut midas = Midas::bootstrap(dataset.db, config).expect("non-empty database");
    let report = midas_load::run(&mut midas, kind, &cfg);

    let json = report_json(quick, db_size, &report);
    // Like BENCH_kernel.json: the committed headline report tracks the
    // full-size scenario only.
    if !quick {
        std::fs::write("../../BENCH_load.json", &json)
            .or_else(|_| std::fs::write("BENCH_load.json", &json))
            .expect("write BENCH_load.json");
    }
    append_history(quick, db_size, &report);
    println!("{json}");
    println!(
        "reduction {:.4} over {} queries; read p50 {}ns p99 {}ns; staleness p99 {} batches",
        report.reduction,
        report.queries,
        report.read_ns.p50,
        report.read_ns.p99,
        report.staleness_batches.p99
    );
    assert!(report.queries > 0, "closed loop produced no samples");
    assert_eq!(
        report.final_epoch, cfg.ticks,
        "every batch published a snapshot"
    );
}
