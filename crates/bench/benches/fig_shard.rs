//! Flat vs. sharded top-k over growing size-heterogeneous stores, with a
//! bucket-width sweep. The flat plan scores every stored graph before
//! the candidate tiers run; the sharded plan first drops whole shards
//! whose aggregate bound already exceeds the running k-th distance, so
//! on IMDB-like data (small ego-nets mixed with much larger graphs) a
//! small query never touches the large-graph partitions. Width 1 puts
//! every node count in its own shard (tightest aggregate bounds, most
//! shards); `usize::MAX` degenerates to one shard — the flat plan plus
//! bookkeeping — bracketing the practical widths 4 and 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_core::engine::GedEngine;
use ged_core::method::MethodKind;
use ged_core::solver::{GedgwSolver, SolverRegistry};
use ged_graph::{GraphDataset, ShardedStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

const K: usize = 5;

fn engine() -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(1) // isolate plan cost from parallel speedup
        .build()
        .expect("GEDGW is registered")
}

fn bench_sharded_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_shard_top_k");
    group.sample_size(10);
    for size in [100usize, 400, 1600] {
        let mut rng = SmallRng::seed_from_u64(10_000 + size as u64);
        let store = GraphDataset::imdb_like(size, 14, &mut rng).into_store();
        let query = store
            .graphs()
            .min_by_key(|g| g.num_nodes())
            .expect("non-empty")
            .clone();
        let engine = engine();

        group.bench_with_input(BenchmarkId::new("flat", size), &size, |b, _| {
            b.iter(|| {
                let result = engine.top_k(&query, &store, K).expect("valid query");
                black_box(result)
            })
        });

        for width in [1usize, 4, 8, usize::MAX] {
            let mut sharded = ShardedStore::new(width);
            for (_, g) in store.iter() {
                sharded.insert(g.clone());
            }
            let tag = if width == usize::MAX {
                "w-inf".to_string()
            } else {
                format!("w{width}")
            };
            group.bench_with_input(BenchmarkId::new(tag, size), &size, |b, _| {
                b.iter(|| {
                    let result = engine.top_k(&query, &sharded, K).expect("valid query");
                    black_box(result)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_top_k);
criterion_main!(benches);
