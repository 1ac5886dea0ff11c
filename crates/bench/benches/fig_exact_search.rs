//! Exact range-search throughput: a brute-force τ-bounded exact scan vs.
//! the engine's three-tier filter–branch–verify plan at growing store
//! sizes. The filter tier reads only precomputed signatures and the
//! branch tier discards with the search's own root bound before any
//! expansion, so the plan's advantage widens with the store — this bench
//! makes the `ExactSearchStats` savings visible as wall clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_core::engine::GedEngine;
use ged_core::method::MethodKind;
use ged_core::search::bounded_exact_ged;
use ged_core::solver::{GedgwSolver, SolverRegistry};
use ged_graph::{Graph, GraphDataset, GraphId, GraphStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

const TAU: usize = 4;

fn engine() -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(1) // isolate plan cost from parallel speedup
        .build()
        .expect("GEDGW is registered")
}

/// The unindexed baseline: a τ-bounded exact search per stored graph.
fn brute_force_exact_range(store: &GraphStore, query: &Graph, tau: usize) -> Vec<(GraphId, usize)> {
    store
        .iter()
        .filter_map(|(id, g)| bounded_exact_ged(query, g, tau).map(|ged| (id, ged)))
        .collect()
}

fn bench_exact_search(c: &mut Criterion) {
    let engine = engine();
    let mut group = c.benchmark_group("fig_exact_search_range");
    group.sample_size(10);
    for size in [25usize, 50, 100] {
        let mut rng = SmallRng::seed_from_u64(8_000 + size as u64);
        let store = GraphDataset::aids_like(size, &mut rng).into_store();
        let query = store.graphs().next().expect("non-empty").clone();

        group.bench_with_input(BenchmarkId::new("brute_force", size), &size, |b, _| {
            b.iter(|| black_box(brute_force_exact_range(&store, &query, TAU)))
        });
        group.bench_with_input(
            BenchmarkId::new("filter_prune_verify", size),
            &size,
            |b, _| {
                b.iter(|| {
                    let result = engine
                        .range_exact(&query, &store, TAU as f64)
                        .expect("valid query");
                    black_box(result)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exact_search);
criterion_main!(benches);
