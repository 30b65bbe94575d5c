//! Criterion micro-benchmarks for the substrate operations MIDAS leans on:
//! VF2 subgraph isomorphism, GED bounds, graphlet counting, MCCS, canonical
//! codes, closure/CSG construction, and FCT mining.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use midas_datagen::{DatasetKind, DatasetSpec};
use midas_graph::{ClosureGraph, GraphDb, GraphId, LabeledGraph};
use midas_mining::{mine_lattice, MiningConfig};
use std::hint::black_box;

fn dataset(n: usize) -> Vec<LabeledGraph> {
    DatasetSpec::new(DatasetKind::PubchemLike, n, 7)
        .generate()
        .db
        .iter()
        .map(|(_, g)| g.as_ref().clone())
        .collect()
}

fn pattern_of(g: &LabeledGraph, edges: usize, seed: u64) -> LabeledGraph {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    midas_datagen::random_connected_subgraph(g, edges.min(g.edge_count()), &mut rng)
        .expect("graph large enough")
}

fn bench_isomorphism(c: &mut Criterion) {
    let graphs = dataset(50);
    let target = graphs
        .iter()
        .max_by_key(|g| g.edge_count())
        .expect("non-empty")
        .clone();
    let pattern = pattern_of(&target, 5, 1);
    c.bench_function("vf2/contains_5edge_pattern", |b| {
        b.iter(|| {
            black_box(midas_graph::isomorphism::is_subgraph_of(
                black_box(&pattern),
                black_box(&target),
            ))
        })
    });
    c.bench_function("vf2/count_embeddings_cap64", |b| {
        b.iter(|| {
            black_box(midas_graph::isomorphism::count_embeddings(
                black_box(&pattern),
                black_box(&target),
                64,
            ))
        })
    });
}

fn bench_ged(c: &mut Criterion) {
    let graphs = dataset(10);
    let a = pattern_of(&graphs[0], 5, 2);
    let b2 = pattern_of(&graphs[1], 5, 3);
    c.bench_function("ged/tight_lower_bound", |b| {
        b.iter(|| {
            black_box(midas_graph::ged::ged_tight_lower_bound(
                black_box(&a),
                black_box(&b2),
            ))
        })
    });
    let small_a = pattern_of(&graphs[2], 3, 4);
    let small_b = pattern_of(&graphs[3], 3, 5);
    c.bench_function("ged/exact_small", |b| {
        b.iter(|| {
            black_box(midas_graph::ged::ged_exact_bounded(
                black_box(&small_a),
                black_box(&small_b),
                16,
            ))
        })
    });
}

fn bench_graphlets(c: &mut Criterion) {
    let graphs = dataset(20);
    c.bench_function("graphlets/count_one_molecule", |b| {
        let g = &graphs[0];
        b.iter(|| black_box(midas_graph::graphlets::count_graphlets(black_box(g))))
    });
    c.bench_function("graphlets/count_20_molecules", |b| {
        b.iter(|| {
            let mut total = midas_graph::graphlets::GraphletCounts::default();
            for g in &graphs {
                total.add(&midas_graph::graphlets::count_graphlets(g));
            }
            black_box(total)
        })
    });
}

fn bench_mccs(c: &mut Criterion) {
    let graphs = dataset(10);
    c.bench_function("mccs/similarity_budget2k", |b| {
        b.iter(|| {
            black_box(midas_graph::mccs::mccs_similarity(
                black_box(&graphs[0]),
                black_box(&graphs[1]),
                2_000,
            ))
        })
    });
    // The same search on the reference twin: the per-search ratio of the
    // bitset node state.
    c.bench_function("mccs/reference_budget2k", |b| {
        b.iter(|| {
            black_box(midas_oracle::reference_mccs_edges(
                black_box(&graphs[0]),
                black_box(&graphs[1]),
                2_000,
            ))
        })
    });
}

fn bench_canonical(c: &mut Criterion) {
    let graphs = dataset(10);
    let pattern = pattern_of(&graphs[0], 6, 8);
    c.bench_function("canonical/code_6edge_pattern", |b| {
        b.iter(|| black_box(midas_graph::canonical::canonical_code(black_box(&pattern))))
    });
}

fn bench_closure(c: &mut Criterion) {
    let graphs = dataset(30);
    c.bench_function("closure/csg_of_30_graphs", |b| {
        b.iter_batched(
            || {
                graphs
                    .iter()
                    .enumerate()
                    .map(|(i, g)| (GraphId(i as u64), g))
                    .collect::<Vec<_>>()
            },
            |refs| black_box(ClosureGraph::from_graphs(refs)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_mining(c: &mut Criterion) {
    let db = GraphDb::from_graphs(dataset(60));
    let ids: Vec<GraphId> = db.ids().collect();
    let config = MiningConfig {
        sup_min: 0.4,
        max_edges: 3,
    };
    c.bench_function("mining/fct_lattice_60_graphs", |b| {
        b.iter(|| {
            black_box(mine_lattice(
                black_box(&db),
                black_box(&ids),
                black_box(&config),
            ))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_isomorphism,
        bench_ged,
        bench_graphlets,
        bench_mccs,
        bench_canonical,
        bench_closure,
        bench_mining
);
criterion_main!(micro);
