//! Integration test for the solver layer: the [`BatchRunner`] parallel
//! path must produce **bit-identical** results to a sequential per-pair
//! [`GedSolver::predict`] / [`GedSolver::edit_path`] loop, for *every*
//! solver in the registry, on a small seeded dataset.
//!
//! This is the contract every future scaling layer (sharding, caching,
//! async serving) relies on: parallelism may change throughput, never
//! values.
//!
//! [`GedSolver::predict`]: ot_ged::core::solver::GedSolver::predict
//! [`GedSolver::edit_path`]: ot_ged::core::solver::GedSolver::edit_path
//! [`BatchRunner`]: ot_ged::core::solver::BatchRunner

use ot_ged::core::gediot::{Gediot, GediotConfig};
use ot_ged::core::pairs::GedPair;
use ot_ged::core::solver::{BatchRunner, GedSolver, GedhotSolver, GediotSolver};
use ot_ged::experiments::harness::{prepare, train_all, ExpConfig, MethodKind};
use ot_ged::graph::{DatasetKind, Graph, GraphDataset};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tiny_cfg() -> ExpConfig {
    ExpConfig {
        dataset_size: 24,
        partners: 4,
        train_pair_cap: 30,
        epochs: 2,
        kbest_k: 4,
        max_queries: 3,
        seed: 20_260_728,
    }
}

#[test]
fn batch_runner_matches_sequential_for_every_registered_solver() {
    let cfg = tiny_cfg();
    let mut rng = cfg.rng();
    let prep = prepare(DatasetKind::Aids, &cfg, false, &mut rng);
    let models = train_all(&prep, &cfg, &mut rng);
    let registry = models.registry(cfg.kbest_k);

    // Sanity: the whole Table-3 lineup is registered.
    assert_eq!(registry.len(), MethodKind::table3().len());

    let pairs: Vec<GedPair> = prep.test_groups.iter().flatten().cloned().collect();
    assert!(
        pairs.len() >= 8,
        "need a non-trivial batch, got {}",
        pairs.len()
    );

    for (method, solver) in registry.iter() {
        let name = solver.name();
        assert_eq!(name, method.name(), "registry key matches display name");

        // Values: bit-identical across thread counts and chunk sizes.
        let sequential: Vec<f64> = pairs.iter().map(|p| solver.predict(p).ged).collect();
        for (threads, chunk) in [(1, 8), (2, 3), (4, 1), (8, 5)] {
            let runner = BatchRunner::new(threads).with_chunk_size(chunk);
            let batch = runner.predict_batch(solver, &pairs);
            assert_eq!(batch.len(), sequential.len(), "{name}: batch size mismatch");
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    b.ged.to_bits(),
                    s.to_bits(),
                    "{name}: pair {i} differs at threads={threads} chunk={chunk}: \
                     {} (batch) vs {} (sequential)",
                    b.ged,
                    s
                );
            }
        }

        // Edit paths: identical mappings, lengths and canonical ops — and
        // the path-capable set is exactly the Table-4 lineup.
        let sequential_paths: Vec<_> = pairs
            .iter()
            .map(|p| solver.edit_path(p, cfg.kbest_k))
            .collect();
        let runner = BatchRunner::new(4).with_chunk_size(3);
        let batch_paths = runner.edit_path_batch(solver, &pairs, cfg.kbest_k);
        assert_eq!(batch_paths, sequential_paths, "{name}: path batch differs");

        let expects_paths = method.path_capable();
        for (i, est) in sequential_paths.iter().enumerate() {
            assert_eq!(
                est.is_some(),
                expects_paths,
                "{name}: pair {i} path capability mismatch"
            );
            if let Some(est) = est {
                assert_eq!(est.ops.len(), est.ged, "{name}: ops/length mismatch");
            }
        }
    }
}

/// GEDIOT and GEDHOT batches give the same bits at 1 and at 4 threads,
/// and the same bits as a fresh per-pair `predict`. Each worker runs its
/// pairs on one workspace, so its tape pool is dirty from pairs of other
/// sizes, and which pairs share a pool depends on the thread count.
#[test]
fn gediot_and_gedhot_batches_are_bit_identical_across_threads() {
    let mut rng = SmallRng::seed_from_u64(20_261_019);
    let graphs: Vec<Graph> = GraphDataset::build(DatasetKind::Aids, 96, &mut rng)
        .store()
        .graphs()
        .cloned()
        .collect();
    let pairs: Vec<GedPair> = graphs
        .chunks_exact(2)
        .map(|c| GedPair::new(c[0].clone(), c[1].clone()))
        .collect();
    let model = Arc::new(Gediot::new(GediotConfig::small(29), &mut rng));
    let gediot = GediotSolver::new(Arc::clone(&model));
    let gedhot = GedhotSolver::new(model);
    for solver in [&gediot as &dyn GedSolver, &gedhot] {
        let name = solver.name();
        let fresh: Vec<u64> = pairs
            .iter()
            .map(|p| solver.predict(p).ged.to_bits())
            .collect();
        for (threads, chunk) in [(1, 8), (4, 3)] {
            let batch = BatchRunner::new(threads)
                .with_chunk_size(chunk)
                .predict_batch(solver, &pairs);
            let got: Vec<u64> = batch.iter().map(|e| e.ged.to_bits()).collect();
            assert_eq!(got, fresh, "{name}: batch at {threads} threads differs");
        }
    }
}
