//! Exp 1 (Fig. 11): effect of the evolution-ratio threshold ε and the
//! swapping thresholds κ = λ on PMT, clustering time and PGT, versus
//! CATAPULT++ from-scratch maintenance.
//!
//! Paper setting: AIDS25K with a +5K batch. Here: AIDS-like at 1/100
//! scale (250 graphs, +50 batch).

use midas_bench::{experiment_config, fmt_duration, print_table, scaled_dataset};
use midas_core::baselines::catapult_pp_from_scratch;
use midas_core::Midas;
use midas_datagen::updates::growth_batch;
use midas_datagen::DatasetKind;

fn main() {
    let kind = DatasetKind::AidsLike;
    let db = scaled_dataset(kind, 25_000, 100, 11);
    let batch_size = db.len() / 5; // +20%, mirroring +5K on 25K

    // Sweep ε. The paper sweeps {0.05, 0.1, 0.2} on its datasets; our
    // generator's drift scale is ~10× smaller (see experiment_config), so
    // the equivalent sweep is {0.005, 0.01, 0.02}. The batch is a
    // novel-family addition, whose drift sits between the lower and upper
    // sweep values — making the Major→Minor transition visible.
    let mut rows = Vec::new();
    for epsilon in [0.005, 0.01, 0.02] {
        let mut config = experiment_config(11);
        config.epsilon = epsilon;
        let mut midas = Midas::bootstrap(db.clone(), config).expect("non-empty");
        let update = midas_datagen::novel_family_batch(
            midas_datagen::MotifKind::BoronicEster,
            batch_size,
            42,
        );
        let report = midas.apply_batch(update);
        rows.push(vec![
            format!("{epsilon}"),
            format!("{:?}", report.kind),
            fmt_duration(report.pattern_maintenance_time),
            fmt_duration(report.clustering_time),
            fmt_duration(report.pattern_generation_time()),
            report.swaps.to_string(),
        ]);
    }
    // CATAPULT++ reference (from scratch on the evolved database).
    {
        let config = experiment_config(11);
        let mut evolved = db.clone();
        evolved.apply(midas_datagen::novel_family_batch(
            midas_datagen::MotifKind::BoronicEster,
            batch_size,
            42,
        ));
        let scratch = catapult_pp_from_scratch(&evolved, &config);
        rows.push(vec![
            "CATAPULT++".into(),
            "(rebuild)".into(),
            fmt_duration(scratch.total_time),
            fmt_duration(scratch.clustering_time),
            fmt_duration(scratch.selection_time),
            "-".into(),
        ]);
    }
    print_table(
        "Fig 11 (top): varying ε on AIDS-like +20%",
        &["epsilon", "kind", "PMT", "cluster", "PGT", "swaps"],
        &rows,
    );

    // Sweep κ (λ = κ).
    let mut rows = Vec::new();
    for kappa in [0.05, 0.1, 0.2, 0.4] {
        let mut config = experiment_config(11);
        config.kappa = kappa;
        config.epsilon = 0.0; // force pattern maintenance so PGT is visible
        let mut midas = Midas::bootstrap(db.clone(), config).expect("non-empty");
        let update = growth_batch(&kind.params(), batch_size, 43);
        let report = midas.apply_batch(update);
        rows.push(vec![
            format!("{kappa}"),
            fmt_duration(report.pattern_maintenance_time),
            fmt_duration(report.pattern_generation_time()),
            report.candidates_generated.to_string(),
            report.swaps.to_string(),
        ]);
    }
    print_table(
        "Fig 11 (bottom): varying κ = λ (ε = 0 to force maintenance)",
        &["kappa", "PMT", "PGT", "candidates", "swaps"],
        &rows,
    );
}
