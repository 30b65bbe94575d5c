//! Profiling a batch: run one maintenance cycle with full telemetry and
//! export `metrics.json` + `trace.json`.
//!
//! ```sh
//! cargo run -p midas-examples --bin profile_batch
//! # or via the environment switches, with any binary:
//! MIDAS_TELEMETRY=1 MIDAS_TRACE_OUT=trace.json cargo run -p midas-examples --bin quickstart
//! ```
//!
//! Open `trace.json` in `chrome://tracing` or <https://ui.perfetto.dev> to
//! see the Algorithm-1 phases (`batch.*` spans) with their child spans
//! nested underneath. `metrics.json` holds the counter/histogram snapshot
//! for the same batch — this is the file the CI telemetry gate validates.

use midas_core::{Midas, MidasConfig};
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_obs::TelemetryConfig;

fn main() {
    // Telemetry on: metrics + trace + info logging. The environment can
    // still override (MIDAS_TELEMETRY=0 silences this example).
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
        telemetry: TelemetryConfig::on(),
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
    let report = midas.apply_batch(update);
    println!(
        "batch classified {:?} (drift {:.3}): {} candidates, {} swaps, PMT {:?}",
        report.kind,
        report.distance,
        report.candidates_generated,
        report.swaps,
        report.pattern_maintenance_time
    );

    // The report's snapshot is scoped to the batch; persist it next to the
    // Chrome trace (written by apply_batch itself, honoring
    // MIDAS_TRACE_OUT).
    report
        .telemetry
        .write("metrics.json")
        .expect("write metrics.json");
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
        let s = report.telemetry.span(phase);
        if s.count > 0 {
            println!("  {phase:<18} {:>10}", s.total_us);
        }
    }
    println!(
        "\nplan: {} searches ({} closed-form), {} recursion nodes, {} prefilter rejects, {} compiles",
        report.telemetry.counter("plan.searches"),
        report.telemetry.counter("plan.closed_forms"),
        report.telemetry.counter("plan.nodes"),
        report.telemetry.counter("plan.prefilter_rejects"),
        report.telemetry.counter("plan.compiles")
    );
    println!(
        "vf2 (reference matcher): {} searches",
        report.telemetry.counter("vf2.searches")
    );
    println!(
        "cache: {} hits / {} misses, {} insertions, {} invalidations",
        report.telemetry.counter("cache.hits"),
        report.telemetry.counter("cache.misses"),
        report.telemetry.counter("cache.insertions"),
        report.telemetry.counter("cache.invalidations")
    );
    println!(
        "\nwrote metrics.json; trace at {}",
        midas_obs::trace::output_path().display()
    );
}
