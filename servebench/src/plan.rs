//! The inputs: four tenants and their update and query plans, all made
//! from the workload seed.

use midas_core::MidasConfig;
use midas_datagen::updates::{deletion_percent, growth_percent};
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_graph::{io, BatchUpdate, GraphDb, LabeledGraph};

/// Tenants per daemon.
const TENANTS: u64 = 4;
/// Graphs in each tenant's initial database.
const DB_SIZE: usize = 120;
/// Every tenant is a PubchemLike database.
pub const KIND: DatasetKind = DatasetKind::PubchemLike;
/// Growth and deletion batches, percent of the current database.
const BATCH_PERCENT: f64 = 4.0;
/// Queries per `/querylog` post.
const QUERY_POOL: usize = 128;
/// Query sizes in edges, inclusive.
const QUERY_EDGES: (usize, usize) = (3, 8);

/// The `pubchem_like_u8` configuration of the load bench
/// (`crates/bench/benches/load.rs`).
pub fn config() -> MidasConfig {
    MidasConfig {
        budget: midas_catapult::PatternBudget {
            eta_min: 3,
            eta_max: 6,
            gamma: 10,
        },
        sup_min: 0.4,
        max_tree_edges: 3,
        coarse_clusters: 5,
        epsilon: 0.01,
        // Serial maintenance. On a 2-core host shared with other guests a
        // fan-out waits for its slowest thread, so it made batches both
        // slower and less steady than one thread did.
        threads: 1,
        ..MidasConfig::default()
    }
}

/// One round of one tenant.
pub struct Round {
    /// The batch the round posts.
    pub batch: BatchUpdate,
    /// `batch` in the `/updates` wire format.
    pub body: String,
    /// Queries drawn from the database once the batch has applied.
    pub queries: Vec<LabeledGraph>,
    /// `queries` as a `/querylog` body.
    pub querylog: String,
}

/// One tenant: its initial database and its rounds.
pub struct TenantPlan {
    pub name: String,
    pub db: GraphDb,
    pub rounds: Vec<Round>,
    /// Database size once every round has applied.
    pub final_len: usize,
}

/// Seed of the tenants' initial databases and of their batches. Both are
/// the same for every workload seed, so every seed does the same set-up and
/// maintenance work, and the workload seed draws the users' query pools.
/// Drawing the batches from the workload seed too made the update-path
/// figures differ by a fifth between seeds, more than any bound allows.
const DATA_SEED: u64 = 41;

/// Every tenant's plan of `rounds` rounds.
pub fn build(seed: u64, rounds: usize) -> Vec<TenantPlan> {
    (0..TENANTS)
        .map(|t| tenant(t, mix(DATA_SEED, t), mix(seed, t), rounds))
        .collect()
}

fn tenant(t: u64, data_seed: u64, query_seed: u64, rounds: usize) -> TenantPlan {
    let db = DatasetSpec::new(KIND, DB_SIZE, data_seed).generate().db;
    // The mirror tracks what the daemon's database will hold, so deletions
    // name live ids and queries come from the evolved data.
    let mut mirror = db.clone();
    let rounds = (1..=rounds as u64)
        .map(|r| {
            let s = mix(data_seed, r);
            // The load crate's rotation: a novel-family wave every 5th
            // round, deletions on rounds 5k+3, growth otherwise.
            let batch = match r % 5 {
                0 => midas_datagen::novel_family_batch(
                    if r % 2 == 0 {
                        MotifKind::BoronicEster
                    } else {
                        MotifKind::Phosphate
                    },
                    (mirror.len() / 5).max(1),
                    s,
                ),
                3 => deletion_percent(&mirror, BATCH_PERCENT, s),
                _ => growth_percent(&KIND.params(), &mirror, BATCH_PERCENT, s),
            };
            let body = io::batch_to_json(&batch).expect("a batch serializes");
            mirror.apply(batch.clone());
            let queries =
                midas_datagen::query_set(&mirror, QUERY_POOL, QUERY_EDGES, mix(query_seed, r));
            let querylog = format!(
                "{{\"queries\": {}}}",
                io::patterns_to_json(&queries).expect("graphs serialize")
            );
            Round {
                batch,
                body,
                queries,
                querylog,
            }
        })
        .collect();
    TenantPlan {
        name: format!("t{t}"),
        db,
        rounds,
        final_len: mirror.len(),
    }
}

/// Every round in posting order (round-major, tenant-minor), with its
/// 0-based round index.
pub fn posting_order(plan: &[TenantPlan]) -> impl Iterator<Item = (usize, &TenantPlan, &Round)> {
    let rounds = plan.first().map_or(0, |t| t.rounds.len());
    (0..rounds).flat_map(move |r| plan.iter().map(move |t| (r, t, &t.rounds[r])))
}

/// SplitMix64 of `seed` and `i`: decorrelated seeds for tenants and rounds.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
