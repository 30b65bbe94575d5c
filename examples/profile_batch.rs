//! Profiling a batch: run one maintenance cycle with full telemetry and
//! export `metrics.prom` + `trace.json`.
//!
//! ```sh
//! cargo run -p midas-examples --bin profile_batch
//! # the environment switches override its defaults:
//! MIDAS_TELEMETRY=1 MIDAS_TRACE_OUT=trace.json cargo run -p midas-examples --bin profile_batch
//! ```
//!
//! Open `trace.json` in `chrome://tracing` or <https://ui.perfetto.dev> to
//! see the Algorithm-1 phases (`batch.*` spans) with their child spans
//! nested underneath. `metrics.prom` holds the registry delta of the same
//! batch in the Prometheus text format `GET /metrics` serves — this is the
//! file the CI telemetry gate validates.

use midas_core::{Midas, MidasConfig};
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_obs::{MetricsSnapshot, TelemetryConfig};

fn main() {
    // Telemetry on: metrics + trace + info logging. The switches are
    // process-wide and belong to the host, so this binary activates them
    // itself; the environment can still override (MIDAS_TELEMETRY=0
    // silences this example).
    TelemetryConfig::on()
        .with_env(midas_obs::config::env())
        .activate();
    let config = MidasConfig {
        budget: midas_catapult::PatternBudget {
            eta_min: 3,
            eta_max: 6,
            gamma: 8,
        },
        sup_min: 0.4,
        max_tree_edges: 3,
        coarse_clusters: 4,
        epsilon: 0.01,
        ..MidasConfig::default()
    };

    let dataset = DatasetSpec::new(DatasetKind::PubchemLike, 150, 7).generate();
    let mut midas = Midas::bootstrap(dataset.db, config).expect("non-empty database");
    println!(
        "bootstrapped on {} graphs, {} initial patterns",
        midas.db().len(),
        midas.patterns().len()
    );

    let update = midas_datagen::novel_family_batch(MotifKind::BoronicEster, 50, 99);
    let before = MetricsSnapshot::capture();
    let report = midas.apply_batch(update);
    let telemetry = MetricsSnapshot::capture().since(&before);
    println!(
        "batch classified {:?} (drift {:.3}): {} candidates, {} swaps, PMT {:?}",
        report.kind,
        report.distance,
        report.candidates_generated,
        report.swaps,
        report.pattern_maintenance_time
    );

    // The delta is scoped to the batch; persist it next to the Chrome
    // trace (written by apply_batch itself, honoring MIDAS_TRACE_OUT).
    std::fs::write("metrics.prom", midas_obs::prom::render(&telemetry))
        .expect("write metrics.prom");
    let phases = [
        "batch.ingest",
        "batch.fct",
        "batch.cluster",
        "batch.index",
        "batch.classify",
        "batch.candidates",
        "batch.swap",
    ];
    println!("\nphase breakdown (spans, µs):");
    for phase in phases {
        let s = telemetry.span(phase);
        if s.count > 0 {
            println!("  {phase:<18} {:>10}", s.sum);
        }
    }
    println!(
        "\nplan: {} searches ({} closed-form), {} recursion nodes, {} prefilter rejects, {} compiles",
        telemetry.counter("plan.searches"),
        telemetry.counter("plan.closed_forms"),
        telemetry.counter("plan.nodes"),
        telemetry.counter("plan.prefilter_rejects"),
        telemetry.counter("plan.compiles")
    );
    println!(
        "vf2 (reference matcher): {} searches",
        telemetry.counter("vf2.searches")
    );
    println!(
        "cache: {} hits / {} misses, {} insertions, {} invalidations",
        telemetry.counter("cache.hits"),
        telemetry.counter("cache.misses"),
        telemetry.counter("cache.insertions"),
        telemetry.counter("cache.invalidations")
    );
    println!(
        "\nwrote metrics.prom; trace at {}",
        midas_obs::trace::output_path().display()
    );
}
