//! Nested-loop vs. the shared-work join plan on growing stores. The
//! nested loop runs the τ-bounded exact search on every unordered pair
//! independently — `n·(n−1)/2` calls with no shared state. The join
//! plan generates candidates in signature-sort order so a single
//! size-gap comparison discards a contiguous band, and (sharded) drops
//! whole shard×shard blocks on one aggregate bound and reads each
//! shard's synced pivot block. All produce bit-identical pair sets; the
//! gap is pure filter-tier savings, so it widens quadratically with the
//! store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_core::engine::GedEngine;
use ged_core::method::MethodKind;
use ged_core::search::bounded_exact_ged;
use ged_core::solver::{GedgwSolver, SolverRegistry};
use ged_graph::{GraphDataset, ShardedStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

const TAU: usize = 2;

fn engine() -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(1) // isolate plan cost from parallel speedup
        .pivots(3)
        .build()
        .expect("GEDGW is registered")
}

fn bench_self_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_join_self");
    group.sample_size(10);
    for size in [50usize, 100, 200] {
        let mut rng = SmallRng::seed_from_u64(11_000 + size as u64);
        let store = GraphDataset::aids_like(size, &mut rng).into_store();
        let engine = engine();

        group.bench_with_input(BenchmarkId::new("nested", size), &size, |b, _| {
            b.iter(|| {
                let entries: Vec<_> = store.iter().collect();
                let mut pairs = Vec::new();
                for (i, &(a, ga)) in entries.iter().enumerate() {
                    for &(b, gb) in &entries[i + 1..] {
                        if let Some(ged) = bounded_exact_ged(ga, gb, TAU) {
                            pairs.push((a, b, ged));
                        }
                    }
                }
                black_box(pairs)
            })
        });

        group.bench_with_input(BenchmarkId::new("flat", size), &size, |b, _| {
            b.iter(|| {
                let result = engine.self_join(&store, TAU as f64).expect("valid join");
                black_box(result)
            })
        });

        let mut sharded = ShardedStore::new(4);
        for (_, g) in store.iter() {
            sharded.insert(g.clone());
        }
        engine.sync_sharded_pivots(&mut sharded);
        group.bench_with_input(BenchmarkId::new("sharded", size), &size, |b, _| {
            b.iter(|| {
                let result = engine.self_join(&sharded, TAU as f64).expect("valid join");
                black_box(result)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_self_join);
criterion_main!(benches);
