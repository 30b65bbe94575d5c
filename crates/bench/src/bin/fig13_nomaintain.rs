//! Exp 3a (Fig. 13): MIDAS vs NoMaintain on AIDS-like data — missed
//! percentage, diversity and subgraph coverage across a batch sequence.
//!
//! Paper setting: AIDS25K with ±Y% batches; the paper reports MIDAS beating
//! NoMaintain's MP by 61% on average with better div and scov. Queries are
//! balanced over Δ⁺ (§7.1), which is where stale pattern sets lose.

use midas_bench::{experiment_config, print_table, scaled_dataset};
use midas_catapult::score::set_quality;
use midas_core::Midas;
use midas_datagen::updates::{deletion_percent, growth_percent, novel_family_batch};
use midas_datagen::{DatasetKind, MotifKind};
use midas_graph::{BatchUpdate, GraphId};
use std::collections::BTreeSet;

fn main() {
    let kind = DatasetKind::AidsLike;
    let db = scaled_dataset(kind, 25_000, 100, 13);
    let config = experiment_config(13);
    let mut midas = Midas::bootstrap(db, config).expect("non-empty");
    let stale_patterns = midas.patterns();

    // Batch sequence: successive novel families arrive, plus growth and
    // deletions — the paper's ±Y% programme.
    let size = midas.db().len();
    let batches: Vec<(&str, BatchUpdate)> = vec![
        (
            "+20% ester",
            novel_family_batch(MotifKind::BoronicEster, size / 5, 131),
        ),
        (
            "+10%",
            growth_percent(&kind.params(), midas.db(), 10.0, 132),
        ),
        (
            "+20% phosphate",
            novel_family_batch(MotifKind::Phosphate, size / 5, 134),
        ),
        ("-10%", deletion_percent(midas.db(), 10.0, 133)),
        (
            "+20% thiol",
            novel_family_batch(MotifKind::Thiol, size / 5, 135),
        ),
    ];

    let mut rows = Vec::new();
    let mut mp_gains = Vec::new();
    for (i, (label, update)) in batches.into_iter().enumerate() {
        let before_ids: BTreeSet<GraphId> = midas.db().ids().collect();
        let report = midas.apply_batch(update);
        let inserted: Vec<GraphId> = midas
            .db()
            .ids()
            .filter(|id| !before_ids.contains(id))
            .collect();
        // Balanced queries: half from Δ⁺ when there is one (§7.1).
        let queries =
            midas_datagen::balanced_query_set(midas.db(), &inserted, 60, (3, 10), 1_300 + i as u64);
        let universe: BTreeSet<GraphId> = midas.db().ids().collect();
        let q_midas = set_quality(
            midas.kernel(),
            &midas.patterns(),
            midas.db(),
            &midas.fct_state().edges,
            &universe,
        );
        let q_stale = set_quality(
            midas.kernel(),
            &stale_patterns,
            midas.db(),
            &midas.fct_state().edges,
            &universe,
        );
        let mp_midas = midas_queryform::missed_percentage(&queries, &midas.patterns());
        let mp_stale = midas_queryform::missed_percentage(&queries, &stale_patterns);
        if mp_stale > 0.0 {
            mp_gains.push((mp_stale - mp_midas) / mp_stale * 100.0);
        }
        rows.push(vec![
            label.to_owned(),
            format!("{:?}", report.kind),
            format!("{:.1}%", mp_midas),
            format!("{:.1}%", mp_stale),
            format!("{:.3}", q_midas.scov),
            format!("{:.3}", q_stale.scov),
            format!("{:.2}", q_midas.div),
            format!("{:.2}", q_stale.div),
            report.swaps.to_string(),
        ]);
    }
    print_table(
        "Fig 13: MIDAS vs NoMaintain on AIDS-like (MP / scov / div per batch)",
        &[
            "batch",
            "kind",
            "MP midas",
            "MP stale",
            "scov midas",
            "scov stale",
            "div midas",
            "div stale",
            "swaps",
        ],
        &rows,
    );
    if !mp_gains.is_empty() {
        let avg = mp_gains.iter().sum::<f64>() / mp_gains.len() as f64;
        println!("\naverage MP improvement over NoMaintain: {avg:.1}% (paper: 61%)");
    }
}
