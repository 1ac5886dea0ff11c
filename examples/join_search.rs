//! Dataset-scale GED joins: the τ-similarity self-join over one store
//! and the cross-store join between two, executed as first-class engine
//! plans instead of `n·(n−1)/2` (resp. `n·m`) independent queries.
//!
//! The join plan shares work across the whole candidate matrix:
//!
//! ```text
//! block tier (shard×shard / size-range gap, whole blocks by arithmetic)
//!   → band tier (signature-sort order, contiguous size bands)
//!     → signature lower bounds → pivot triangle bounds → dedup cache
//!       → upper-bound accepts → τ-bounded exact verification
//! ```
//!
//! Every tier is exact or admissible, so this example asserts the
//! contract end-to-end: answers bit-identical to the brute-force nested
//! loop, strictly fewer verifications than the nested loop performs,
//! `JoinStats` accounting that closes to the exact pair count, and a
//! sharded plan that prunes whole blocks while staying bit-identical to
//! the flat plan.
//!
//! Run with: `cargo run --release --example join_search`

use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn engine(pivots: usize) -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(2)
        .pivots(pivots)
        .build()
        .expect("GEDGW is registered")
}

/// The nested-loop ground truth: a τ-bounded exact search on every
/// ordered candidate pair, one pair at a time, no shared work.
fn nested_loop(pairs: &[(GraphId, &Graph, GraphId, &Graph)], tau: usize) -> Vec<JoinPair> {
    pairs
        .iter()
        .filter_map(|&(a, ga, b, gb)| {
            bounded_exact_ged(ga, gb, tau).map(|ged| JoinPair { a, b, ged })
        })
        .collect()
}

fn main() {
    // AIDS-like molecules: many near-duplicates, so a small τ already
    // yields a non-trivial join.
    let mut rng = SmallRng::seed_from_u64(4083);
    let store = GraphDataset::aids_like(48, &mut rng).into_store();
    let tau = 2usize;
    let n = store.len();
    let nested_pairs = n * (n - 1) / 2;

    // Ground truth: the brute-force nested loop over all unordered pairs.
    let entries: Vec<(GraphId, &Graph)> = store.iter().collect();
    let mut product = Vec::new();
    for (i, &(a, ga)) in entries.iter().enumerate() {
        for &(b, gb) in &entries[i + 1..] {
            product.push((a, ga, b, gb));
        }
    }
    let oracle = nested_loop(&product, tau);
    println!(
        "self-join: {n} graphs, τ = {tau} → {} matching pairs \
         (nested loop verifies all {nested_pairs})",
        oracle.len()
    );

    // The flat self-join plan: identical answer, closed accounting,
    // strictly fewer verifications than the nested loop's `n·(n−1)/2`.
    let e = engine(3);
    let flat = e.self_join(&store, tau as f64).expect("valid join");
    assert_eq!(flat.pairs, oracle, "bit-identical to the nested loop");
    assert!(
        flat.budget_exhausted.is_empty(),
        "unlimited budget decides all"
    );
    assert_eq!(flat.stats.total(), nested_pairs, "accounting closes");
    assert!(
        flat.stats.verified < nested_pairs,
        "shared-work plan must verify strictly fewer pairs"
    );
    println!("  flat : {}", flat.stats);

    // The sharded self-join, on size-spread IMDB-like data (small
    // ego-nets next to much larger ones — AIDS-like stores are too
    // uniform for shard-level gaps at this τ): whole shard×shard blocks
    // discarded by one aggregate bound, answers still bit-identical to
    // the flat plan (modulo the id mint).
    let wide = GraphDataset::imdb_like(40, 12, &mut rng).into_store();
    let wide_pairs = wide.len() * (wide.len() - 1) / 2;
    let mut sharded = ShardedStore::new(4);
    let mut twin = BTreeMap::new();
    for (flat_id, graph) in wide.iter() {
        twin.insert(flat_id, sharded.insert(graph.clone()));
    }
    e.sync_sharded_pivots(&mut sharded);
    let wide_flat = e.self_join(&wide, tau as f64).expect("valid join");
    let shrd = e.self_join(&sharded, tau as f64).expect("valid join");
    assert_eq!(shrd.pairs.len(), wide_flat.pairs.len());
    for (f, s) in wide_flat.pairs.iter().zip(&shrd.pairs) {
        assert_eq!((twin[&f.a], twin[&f.b], f.ged), (s.a, s.b, s.ged));
    }
    assert_eq!(shrd.stats.total(), wide_pairs);
    assert!(shrd.stats.pruned_block > 0, "whole blocks must drop");
    println!(
        "\nsharded self-join: {} graphs in {} shards, τ = {tau} → {} pairs",
        sharded.len(),
        sharded.shard_count(),
        shrd.pairs.len()
    );
    println!("  shard: {}", shrd.stats);

    // The cross-store join: a probe set against the store — half fresh
    // molecules, half re-submissions of stored ones (the typical
    // dedup-on-ingest workload) — all `n·m` ordered pairs accounted,
    // same contract.
    let resubmitted = store.graphs().take(6).cloned();
    let fresh = GraphDataset::aids_like(6, &mut rng).into_store();
    let probes = GraphStore::from_graphs(fresh.graphs().cloned().chain(resubmitted));
    let cross_pairs = probes.len() * n;
    let mut product = Vec::new();
    for (a, ga) in probes.iter() {
        for (b, gb) in store.iter() {
            product.push((a, ga, b, gb));
        }
    }
    let oracle = nested_loop(&product, tau);
    let cross = e.join(&probes, &store, tau as f64).expect("valid join");
    assert_eq!(cross.pairs, oracle, "bit-identical to the nested loop");
    assert_eq!(cross.stats.total(), cross_pairs, "accounting closes");
    assert!(cross.stats.verified < cross_pairs);
    println!(
        "\ncross-join: {} probes × {n} stored, τ = {tau} → {} pairs",
        probes.len(),
        cross.pairs.len()
    );
    println!("  cross: {}", cross.stats);

    let saved = nested_pairs + cross_pairs - flat.stats.verified - cross.stats.verified;
    println!(
        "\n{saved} of {} τ-bounded verifications avoided, answers bit-identical ✓",
        nested_pairs + cross_pairs
    );
}
