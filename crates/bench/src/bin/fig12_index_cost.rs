//! Exp 2 (Fig. 12): cost of FCT mining, index construction (time and
//! memory), and FCT/index maintenance across dataset scales.
//!
//! Paper setting: PubChem at 100K / 500K / 1M. Here: PubChem-like at
//! 1/500 scale (200 / 1 000 / 2 000 graphs). The FCT-Index is built and
//! maintained as a tenant's is: synced to [`FctState::index_trees`], each
//! row counted over its tree's support by the plan the lattice compiled.
//! "idx maint" times the index phase of a +5 % batch, the sync after
//! [`FctState::apply_batch`]. The edge-label counts the dominance filter
//! reads are the edge catalog's, which FCT mining and maintenance already
//! keep, so the index columns cost nothing more for them.

use midas_bench::{fmt_duration, print_table};
use midas_datagen::updates::growth_batch;
use midas_datagen::{DatasetKind, DatasetSpec};
use midas_index::FctIndex;
use midas_mining::incremental::FctState;
use midas_mining::MiningConfig;
use std::time::Instant;

fn main() {
    let kind = DatasetKind::PubchemLike;
    let mining = MiningConfig {
        sup_min: 0.4,
        max_edges: 3,
    };
    let mut rows = Vec::new();
    for (label, size) in [
        ("PubChem100K/500", 200),
        ("PubChem500K/500", 1_000),
        ("PubChem1M/500", 2_000),
    ] {
        let db = DatasetSpec::new(kind, size, 12).generate().db;
        // FCT mining time.
        let t = Instant::now();
        let mut state = FctState::build(&db, mining);
        let fct_time = t.elapsed();
        let fct_count = state.fct(db.len()).len();
        // Index construction time + memory.
        let t = Instant::now();
        let mut fct_index = FctIndex::build(state.index_trees(db.len()), &db);
        let index_time = t.elapsed();
        let index_bytes = fct_index.approx_bytes();
        // FCT maintenance time for a +5% batch.
        let mut evolving = db.clone();
        let batch = growth_batch(&kind.params(), size / 20, 77);
        let (inserted, _) = evolving.apply(batch);
        let t = Instant::now();
        state.apply_batch(&evolving, &inserted, &[]);
        let fct_maint = t.elapsed();
        // Index maintenance: the sync to the maintained FCT state.
        let t = Instant::now();
        fct_index.sync(state.index_trees(evolving.len()), &evolving);
        let index_maint = t.elapsed();
        rows.push(vec![
            label.to_owned(),
            db.len().to_string(),
            fmt_duration(fct_time),
            fct_count.to_string(),
            fmt_duration(index_time),
            format!("{:.1}KB", index_bytes as f64 / 1024.0),
            fmt_duration(fct_maint),
            fmt_duration(index_maint),
        ]);
    }
    print_table(
        "Fig 12: FCT & index costs across dataset scales (PubChem-like)",
        &[
            "dataset",
            "|D|",
            "FCT mine",
            "|FCT|",
            "idx build",
            "idx mem",
            "FCT maint (+5%)",
            "idx maint (+5%)",
        ],
        &rows,
    );
}
